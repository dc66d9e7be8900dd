import numpy as np
import pytest

from quasiherm import (DegenerateSpectrum, SelfOrthogonal, biorthonormalize,
                       discretize_hamiltonian, eigendecompose, is_real_spectrum,
                       make_grid, parse_model)
from quasiherm import spectral

from conftest import random_diagonalizable


def test_diagonal_matrix_is_exact():
    s = eigendecompose(np.diag([1.0, 2.0, 3.0]))
    assert np.abs(s.eigenvalues - np.array([1.0, 2.0, 3.0])).max() <= 1e-14
    assert np.abs(np.abs(s.pairing()) - np.eye(3)).max() <= 1e-14


def test_model_eigenvalues(model_h):
    # characteristic polynomial: lambda^2 = 1 - 0.36
    expected = np.sqrt(1.0 - 0.36)
    s = eigendecompose(model_h)
    assert s.eigenvalues[0] == pytest.approx(-expected, abs=1e-12)
    assert s.eigenvalues[1] == pytest.approx(+expected, abs=1e-12)


def test_broken_model_eigenvalues(broken_h):
    # characteristic polynomial: lambda^2 = 1 - 1.44 = -0.44
    expected = np.sqrt(1.44 - 1.0)
    s = eigendecompose(broken_h)
    assert np.abs(np.sort(s.eigenvalues.imag)
                  - np.array([-expected, expected])).max() <= 1e-12
    assert np.abs(s.eigenvalues.real).max() <= 1e-12


def test_is_real_spectrum(model_h, broken_h):
    flag, max_imag = is_real_spectrum(eigendecompose(model_h), 1e-10)
    assert flag and max_imag <= 1e-12
    flag, max_imag = is_real_spectrum(eigendecompose(broken_h), 1e-10)
    assert not flag
    assert max_imag == pytest.approx(np.sqrt(0.44), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_hermitian_spectrum_is_real(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    flag, _ = is_real_spectrum(eigendecompose(b + b.conj().T), 1e-10)
    assert flag


def test_biorthonormalize_model_pair():
    right = np.array([1.0, 0.8 - 0.6j])
    left = np.array([1.0, 0.8 + 0.6j])
    # oracle: raw pairing 1 + (0.8 - 0.6i)^2 = 1.28 - 0.96i
    raw = left.conj() @ right
    assert raw == pytest.approx(1.28 - 0.96j)
    r, l = biorthonormalize(right, left)
    assert np.linalg.norm(r[:, 0]) == pytest.approx(1.0, abs=1e-15)
    assert l[:, 0].conj() @ r[:, 0] == pytest.approx(1.0, abs=1e-14)


def test_biorthonormalize_orthonormal_system_unchanged_up_to_phase():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(b)
    r, l = biorthonormalize(q, q)
    overlap = np.abs(np.einsum("ij,ij->j", q.conj(), r))
    assert np.abs(overlap - 1.0).max() <= 1e-13
    assert np.abs(l.conj().T @ r - np.eye(4)).max() <= 1e-13


def test_completeness_on_model(model_h):
    s = eigendecompose(model_h)
    ident = s.right_vectors @ s.left_vectors.conj().T
    assert np.abs(ident - np.eye(2)).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_reconstruction(dim):
    rng = np.random.default_rng(dim)
    h, _, _ = random_diagonalizable(rng, dim, cond_v=8.0)
    s = eigendecompose(h)
    err = np.linalg.norm(h - s.reconstruction())
    assert err <= 1e-9 * np.linalg.norm(h)
    assert np.abs(s.pairing() - np.eye(dim)).max() <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_left_system_matches_adjoint_right_system(seed):
    rng = np.random.default_rng(400 + seed)
    h, _, _ = random_diagonalizable(rng, 5, cond_v=5.0)
    s = eigendecompose(h)
    sa = eigendecompose(h.conj().T)
    for n in range(5):
        target = np.conj(s.eigenvalues[n])
        m = int(np.argmin(np.abs(sa.eigenvalues - target)))
        assert abs(sa.eigenvalues[m] - target) <= 1e-9
        u = s.left_vectors[:, n] / np.linalg.norm(s.left_vectors[:, n])
        v = sa.right_vectors[:, m] / np.linalg.norm(sa.right_vectors[:, m])
        assert 1.0 - abs(u.conj() @ v) <= 1e-9


def test_sorting_is_by_real_then_imag():
    h = np.diag([2.0 + 1j, 2.0 - 1j, -1.0])
    s = eigendecompose(h)
    assert np.array_equal(s.eigenvalues, np.array([-1.0, 2.0 - 1j, 2.0 + 1j]))


def test_degenerate_spectrum_raises():
    with pytest.raises(DegenerateSpectrum):
        eigendecompose(np.eye(2))


def test_gap_floor_zero_disables_check():
    s = eigendecompose(np.eye(2), gap_floor=0.0)
    assert s.min_gap == 0.0
    assert np.abs(s.pairing() - np.eye(2)).max() <= 1e-14


def test_self_orthogonal_raises():
    with pytest.raises(SelfOrthogonal):
        biorthonormalize(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_ill_conditioned_right_system_uses_adjoint_route(monkeypatch):
    # strong non-normality: eigenvalues +-1 stay separated while the
    # right eigenvectors become nearly parallel (cond ~ 1e9); h^T != J h J,
    # so the left vectors take a second eigensolve, of h^T
    h = np.array([[1.0, 1e9], [0.0, -1.0]])
    assert not np.array_equal(h.T, h[::-1, ::-1])
    dtypes = record_eig(monkeypatch)
    s = eigendecompose(h)
    assert dtypes == [np.dtype(float), np.dtype(float)]
    assert np.abs(np.sort(s.eigenvalues.real) - np.array([-1.0, 1.0])).max() <= 1e-6
    diag = np.einsum("ij,ij->j", s.left_vectors.conj(), s.right_vectors)
    assert np.abs(diag - 1.0).max() <= 1e-12


# --- real arithmetic for real and PT-symmetric matrices -------------------

def record_eig(monkeypatch):
    """Dtypes of the arrays np.linalg.eig is called on."""
    dtypes = []
    original = np.linalg.eig

    def recorded(m):
        dtypes.append(np.asarray(m).dtype)
        return original(m)
    monkeypatch.setattr(np.linalg, "eig", recorded)
    return dtypes


def pt_hamiltonian(rng, dim, g):
    """H = A + i g B, A real symmetric centrosymmetric and B real symmetric
    anti-centrosymmetric, so that J conj(H) J = H for the flip J."""
    a = rng.normal(size=(dim, dim))
    a = a + a.T
    a = a + a[::-1, ::-1]
    b = rng.normal(size=(dim, dim))
    b = b + b.T
    b = b - b[::-1, ::-1]
    return a + 1j * g * b


def from_real_form(b):
    """S B S^dagger, S = (1 + iJ)/sqrt(2): PT-symmetric for any real B."""
    n = b.shape[0]
    s = (np.eye(n) + 1j * np.eye(n)[::-1]) / np.sqrt(2.0)
    return s @ b @ s.conj().T


def lattice(n, gamma):
    """Open chain with alternating gain and loss; PT-symmetric for even n."""
    return (np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
            + np.diag(1j * gamma * (-1.0) ** np.arange(n)))


@pytest.mark.parametrize("case", ["real", "pt-2x2", "pt-lattice",
                                  "pt-random"])
def test_real_and_pt_symmetric_matrices_take_one_real_eig(monkeypatch, case,
                                                          model_h):
    h = {"real": np.array([[2.0, 1.0, 0.0], [0.5, -1.0, 3.0],
                           [0.0, 1.0, 0.5]]),
         "pt-2x2": model_h,
         "pt-lattice": lattice(8, 0.3),
         "pt-random": pt_hamiltonian(np.random.default_rng(1), 9, 0.05)}[case]
    dtypes = record_eig(monkeypatch)
    s = eigendecompose(h)
    assert dtypes == [np.dtype(float)]
    assert s.eigenvalues.dtype == complex
    # a real matrix keeps its real eigenvectors; a PT-symmetric one returns
    # S W, which is complex
    vector_dtype = float if case == "real" else complex
    assert s.right_vectors.dtype == vector_dtype
    assert s.left_vectors.dtype == vector_dtype
    assert np.abs(s.pairing() - np.eye(s.dim)).max() <= 1e-12
    err = np.linalg.norm(h - s.reconstruction())
    assert err <= 1e-13 * s.dim * np.linalg.norm(h)


def test_real_matrix_keeps_real_eigenvectors():
    # real and centrosymmetric, hence PT-symmetric too: the real route comes
    # first, so the pairings stay real (the PT route would give S w)
    h = np.diag([4.0, 1.0, 0.0, 1.0, 4.0]) - np.eye(5, k=1) - np.eye(5, k=-1)
    assert np.array_equal(h[::-1, ::-1], h.conj())
    s = eigendecompose(h)
    assert not s.eigenvalues.imag.any()
    assert not s.right_vectors.imag.any()
    assert not s.left_vectors.imag.any()


def test_unbroken_pt_matrix_inverts_in_real_arithmetic(monkeypatch):
    inverted = []
    original = np.linalg.inv

    def recorded(m):
        inverted.append(np.asarray(m).dtype)
        return original(m)
    monkeypatch.setattr(np.linalg, "inv", recorded)
    eigendecompose(lattice(8, 0.3))
    assert inverted == [np.dtype(float)]


def test_real_inverse_keeps_three_digits_under_the_pairing_tolerance():
    # the README harmonic potential with a weak PT-symmetric gain and loss,
    # V = x^2 + 0.1 i x (the Hermitian model itself takes eigh): its real
    # form is not symmetric, and the real inverse with its Newton step
    # pairs to 4.8e-14 in Frobenius norm, 3 digits under the spectrum
    # row's 1e-10
    grid = make_grid(8.0, 201)
    h = discretize_hamiltonian(grid, grid.points ** 2 + 0.1j * grid.points)
    b, rotated = spectral.real_form(h)
    assert rotated and not np.array_equal(b, b.T)
    s = eigendecompose(h, gap_floor=0.0)
    assert np.linalg.norm(s.pairing() - np.eye(s.dim)) <= 1e-13


def test_one_ulp_off_pt_symmetry_takes_the_complex_route(monkeypatch, model_h):
    h = model_h.copy()
    h[0, 1] = np.nextafter(h[0, 1].real, 2.0)
    dtypes = record_eig(monkeypatch)
    s = eigendecompose(h)
    assert dtypes == [np.dtype(complex)]
    ref = np.sort(np.linalg.eigvals(h).real)
    assert np.abs(s.eigenvalues.real - ref).max() <= 1e-14


def test_explicit_pseudometric_model_takes_the_complex_route(monkeypatch):
    # H = P^-1 M with P = diag(1, 2, -1.5, 3) and M Hermitian positive
    # definite: P-pseudo-Hermitian, not PT-symmetric
    p = np.diag([1.0, 2.0, -1.5, 3.0])
    m = np.array([[4.0, 1.0, 0.5j, 0.0],
                  [1.0, 3.0, 0.25, -0.5j],
                  [-0.5j, 0.25, 5.0, 1.0],
                  [0.0, 0.5j, 1.0, 2.0]])
    h = np.linalg.solve(p, m)
    dtypes = record_eig(monkeypatch)
    eigendecompose(h)
    assert dtypes == [np.dtype(complex)]


def eigenvalue_conditions(h):
    """numpy's eigenvalues of the complex matrix with their condition
    numbers ||phi_n|| ||psi_n|| / |<phi_n|psi_n>|, left vectors from V^-1."""
    vals, v = np.linalg.eig(h.astype(complex))
    left = np.linalg.inv(v).conj().T
    kappa = (np.linalg.norm(left, axis=0) * np.linalg.norm(v, axis=0)
             / np.abs(np.einsum("ij,ij->j", left.conj(), v)))
    return vals, kappa


def assert_matches_complex_eig(h, s, rtol):
    ref, kappa = eigenvalue_conditions(h)
    radius = np.abs(ref).max()
    for lam in s.eigenvalues:
        k = int(np.argmin(np.abs(ref - lam)))
        assert abs(ref[k] - lam) <= rtol * radius * kappa[k]


@pytest.mark.parametrize("case", ["2x2", "lattice", "random"])
def test_broken_phase_pt_matrix_gives_exact_conjugate_pairs(monkeypatch, case,
                                                            broken_h):
    h = {"2x2": broken_h, "lattice": lattice(10, 1.5),
         "random": pt_hamiltonian(np.random.default_rng(2), 8, 2.0)}[case]
    dtypes = record_eig(monkeypatch)
    s = eigendecompose(h)
    assert dtypes == [np.dtype(float)]
    vals = s.eigenvalues
    assert np.abs(vals.imag).max() > 1e-3  # the phase is broken
    # the real similar matrix has exactly conjugate eigenvalue pairs
    assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))
    assert_matches_complex_eig(h, s, 64 * np.finfo(float).eps)


def test_adjoint_route_runs_in_real_arithmetic(monkeypatch):
    # B has eigenvalues +-1 and right eigenvectors of condition ~ 1e9; its
    # PT-symmetric similar matrix takes the adjoint route for the left system
    h = from_real_form(np.array([[1.0, 1e9], [0.0, -1.0]]))
    assert np.array_equal(h[::-1, ::-1], h.conj())
    dtypes = record_eig(monkeypatch)
    routes = []
    original = spectral._left_from_adjoint

    def recorded(m, vals):
        routes.append("adjoint")
        return original(m, vals)
    monkeypatch.setattr(spectral, "_left_from_adjoint", recorded)
    s = eigendecompose(h)
    assert routes == ["adjoint"]
    assert dtypes == [np.dtype(float), np.dtype(float)]
    assert np.abs(s.eigenvalues - np.array([-1.0, 1.0])).max() <= 1e-6
    diag = np.einsum("ij,ij->j", s.left_vectors.conj(), s.right_vectors)
    assert np.abs(diag - 1.0).max() <= 1e-12


def test_pt_route_matches_complex_eig_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      dim=st.integers(2, 12),
                      g=st.floats(0.0, 2.0))
    def check(seed, dim, g):
        h = pt_hamiltonian(np.random.default_rng(seed), dim, g)
        s = eigendecompose(h, gap_floor=0.0)
        assert_matches_complex_eig(h, s, 1e-8)
        assert np.abs(s.pairing() - np.eye(dim)).max() <= 1e-12

    check()


# --- exact structure of the real form: eigh by parity sector, J conj(W) ----

EPS = np.finfo(float).eps


def record(monkeypatch, name):
    """Count the calls of np.linalg.<name>."""
    calls = []
    original = getattr(np.linalg, name)

    def recorded(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def symmetric_centro(rng, dim):
    """A real symmetric matrix that commutes with the flip J."""
    a = rng.normal(size=(dim, dim))
    a = a + a.T
    return a + a[::-1, ::-1]


def hermitian_pt(rng, dim, g):
    """A + i g K with A real symmetric, J A J = A, and K real antisymmetric,
    J K J = -K: Hermitian and PT-symmetric, not real."""
    k = rng.normal(size=(dim, dim))
    k = k - k.T
    k = k - k[::-1, ::-1]
    return symmetric_centro(rng, dim) + 1j * g * k


@pytest.mark.parametrize("case", ["odd", "even", "one", "harmonic",
                                  "not-flip-symmetric", "hermitian-pt"])
def test_hermitian_real_form_is_solved_by_eigh(monkeypatch, case):
    rng = np.random.default_rng(7)
    grid = make_grid(8.0, 301)
    h = {"odd": symmetric_centro(rng, 9),
         "even": symmetric_centro(rng, 10),
         "one": np.array([[3.0]]),
         "harmonic": discretize_hamiltonian(grid, grid.points ** 2),
         "not-flip-symmetric": rng.normal(size=(7, 7)),
         "hermitian-pt": hermitian_pt(rng, 8, 0.7)}[case]
    if case == "not-flip-symmetric":
        h = h + h.T
        assert not np.array_equal(h[::-1, ::-1], h)
    b, rotated = spectral.real_form(h)
    assert np.array_equal(b, b.conj().T)
    assert rotated == (case == "hermitian-pt")
    flip_symmetric = np.array_equal(b[::-1, ::-1], b)
    eigs, eighs = record(monkeypatch, "eig"), record(monkeypatch, "eigh")
    invs = record(monkeypatch, "inv")
    s = eigendecompose(h, gap_floor=0.0)
    assert eigs == [] and invs == []
    assert len(eighs) == (2 if flip_symmetric else 1)
    # the oracle: eigvalsh of the unsplit matrix
    n = s.dim
    ref = np.linalg.eigvalsh(h)
    assert not s.eigenvalues.imag.any()
    assert (np.abs(s.eigenvalues.real - ref).max()
            <= 4 * n * EPS * np.linalg.norm(h, 1))
    v = s.right_vectors
    assert s.left_vectors is v
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= n * EPS
    assert v.dtype == (complex if rotated else float)
    if flip_symmetric:
        for k in range(n):
            assert (np.array_equal(v[::-1, k], v[:, k])
                    or np.array_equal(v[::-1, k], -v[:, k]))
    err = np.linalg.norm(h - s.reconstruction())
    assert err <= 4 * n * EPS * np.linalg.norm(h)


def broken_schroedinger(npoints):
    """The complex H of the model L = 8, V = 0.1 i x^3 on npoints points."""
    spec = parse_model({"kind": "schroedinger",
                        "grid": {"L": 8, "N": npoints},
                        "V_real": "0", "V_imag": "0.1*x^3"})
    return discretize_hamiltonian(spec.payload["grid"],
                                  spec.payload["potential"])


def checks(h, s):
    recon = np.linalg.norm(h - s.reconstruction()) / np.linalg.norm(h)
    return recon, np.linalg.norm(s.pairing() - np.eye(s.dim))


@pytest.mark.parametrize("npoints", [101, 201, 301])
def test_flip_left_vectors_match_the_adjoint_route(monkeypatch, npoints):
    # cond(V) > 1e8, so the inverse route declines; the real form B of this
    # parity-pseudo-Hermitian H has B^T = J B J, so its left vectors are
    # J conj(W) and the adjoint eigensolve is not run
    h = broken_schroedinger(npoints)
    eigs = record(monkeypatch, "eig")
    routes = []
    original = spectral._left_from_flip

    def recorded(b, w, rotated):
        left = original(b, w, rotated)
        routes.append(left is not None)
        return left
    monkeypatch.setattr(spectral, "_left_from_flip", recorded)
    s = eigendecompose(h, gap_floor=0.0)
    assert routes == [True] and len(eigs) == 1
    monkeypatch.undo()
    # the oracle: the adjoint route's left vectors for the same right ones
    left = spectral._left_from_adjoint(h, s.eigenvalues)
    adjoint = spectral.SpectralData(
        s.eigenvalues, *biorthonormalize(s.right_vectors, left), s.min_gap)
    for flip_err, adjoint_err in zip(checks(h, s), checks(h, adjoint)):
        assert flip_err <= 4 * adjoint_err


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_flip_left_vectors_match_the_inverse(monkeypatch, kind):
    # B = J M with M symmetric has B^T = J B J; forcing the fallback, the
    # left vectors J conj(W) agree with the rows of V^-1
    rng = np.random.default_rng(11)
    m = rng.normal(size=(7, 7))
    if kind == "complex":
        m = m + 1j * rng.normal(size=(7, 7))
    b = (m + m.T)[::-1]
    assert np.array_equal(b.T, b[::-1, ::-1])
    ref = eigendecompose(b)
    monkeypatch.setattr(spectral, "LEFT_FROM_ADJOINT_COND", 0.0)
    eigs = record(monkeypatch, "eig")
    s = eigendecompose(b)
    assert len(eigs) == 1
    assert np.array_equal(s.eigenvalues, ref.eigenvalues)
    assert np.abs(s.left_vectors - ref.left_vectors).max() <= 1e-12
    assert np.abs(s.pairing() - np.eye(7)).max() <= 1e-13
