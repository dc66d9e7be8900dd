import numpy as np
import pytest

from quasiherm import (DegenerateSpectrum, SelfOrthogonal, biorthonormalize,
                       discretize_hamiltonian, eigendecompose, is_real_spectrum,
                       make_grid, parity_matrix, parse_model, run_battery,
                       run_scenario, standard_charge)
from quasiherm import errors, spectral

from conftest import document_h, random_diagonalizable


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
    # two of the three even-sector vectors share an eigenvalue, and no
    # symmetry keeps them apart
    with pytest.raises(DegenerateSpectrum):
        eigendecompose(np.eye(3))


def test_gap_floor_zero_disables_check():
    # eye(3) raises under the default rule (above)
    s = eigendecompose(np.eye(3), gap_floor=0.0)
    assert s.min_gap == 0.0
    assert np.abs(s.pairing() - np.eye(3)).max() <= 1e-14


@pytest.mark.parametrize("h,floor,raises", [
    (np.diag([1.0, 2.0]), 2.0, True),
    (np.eye(3), 1e-300, True),
    (np.eye(2), 1.0, False),  # opposite parity sectors
    ("broken", 10.0, False),  # an exact conjugate pair of the real form
])
def test_fixed_gap_floor_keeps_the_exemptions(broken_h, h, floor, raises):
    h = broken_h if isinstance(h, str) else h
    if raises:
        with pytest.raises(DegenerateSpectrum):
            eigendecompose(h, gap_floor=floor)
    else:
        assert eigendecompose(h, gap_floor=floor).min_gap < floor


def test_self_orthogonal_raises():
    with pytest.raises(SelfOrthogonal):
        biorthonormalize(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_ill_conditioned_right_system_keeps_the_inverse(monkeypatch):
    # strong non-normality: eigenvalues +-1 stay separated while the
    # right eigenvectors become nearly parallel (cond ~ 1e9); h^T != J h J,
    # so the left vectors stay the rows of V^-1, from one eigensolve.  The
    # default guard rejects this pair (test_unresolved_pair_is_degenerate),
    # so it is switched off here
    h = np.array([[1.0, 1e9], [0.0, -1.0]])
    assert not np.array_equal(h.T, h[::-1, ::-1])
    dtypes = record_eig(monkeypatch)
    s = eigendecompose(h, gap_floor=0.0)
    assert dtypes == [np.dtype(float)]
    assert np.abs(np.sort(s.eigenvalues.real) - np.array([-1.0, 1.0])).max() <= 1e-6
    assert np.abs(s.pairing() - np.eye(2)).max() <= 1e-12


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
    # the real form of the PT lattice has B^T = J B J, so its left vectors
    # start from the flip pairing and no LU inverse runs; a PT matrix whose
    # real form lacks that symmetry inverts its real W
    inverted = []
    original = np.linalg.inv

    def recorded(m):
        inverted.append(np.asarray(m).dtype)
        return original(m)
    monkeypatch.setattr(np.linalg, "inv", recorded)
    eigendecompose(lattice(8, 0.3))
    assert inverted == []
    b = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert not np.array_equal(b.T, b[::-1, ::-1])
    eigendecompose(from_real_form(b))
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


def test_ill_conditioned_pt_matrix_keeps_the_inverse_in_real_arithmetic(
        monkeypatch):
    # B has eigenvalues +-1 and right eigenvectors of condition ~ 1e9, and
    # B^T != J B J: its PT-symmetric similar matrix keeps the rows of the
    # real W^-1 as its left system, from one real eigensolve
    h = from_real_form(np.array([[1.0, 1e9], [0.0, -1.0]]))
    assert np.array_equal(h[::-1, ::-1], h.conj())
    dtypes = record_eig(monkeypatch)
    inverted = record(monkeypatch, "inv")
    s = eigendecompose(h, gap_floor=0.0)
    assert dtypes == [np.dtype(float)] and len(inverted) == 1
    assert np.abs(s.eigenvalues - np.array([-1.0, 1.0])).max() <= 1e-6
    diag = np.einsum("ij,ij->j", s.left_vectors.conj(), s.right_vectors)
    assert np.abs(diag - 1.0).max() <= 1e-12
    # S mixes the entries of size 1e9 into every column: the products of
    # the Gram matrix carry cond(V) eps of roundoff
    assert np.abs(s.pairing() - np.eye(2)).max() <= 1e9 * EPS


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
    return document_h({"kind": "schroedinger",
                       "grid": {"L": 8, "N": npoints},
                       "V_real": "0", "V_imag": "0.1*x^3"})


def checks(h, s):
    recon = np.linalg.norm(h - s.reconstruction()) / np.linalg.norm(h)
    return recon, np.linalg.norm(s.pairing() - np.eye(s.dim))


@pytest.mark.parametrize("npoints", [101, 201, 301])
def test_flip_left_vectors_match_the_adjoint_route(monkeypatch, npoints):
    # cond_1(W) > 1e8, and the real form B of this parity-pseudo-Hermitian
    # H has B^T = J B J, so its left vectors are J conj(W) in place of the
    # rows of W^-1: those of a threshold of 0, not those of one of inf; and
    # no second eigensolve runs
    h = broken_schroedinger(npoints)
    routes = {}
    for threshold in (0.0, np.inf):
        with monkeypatch.context() as m:
            m.setattr(spectral, "LEFT_FROM_FLIP_COND", threshold)
            routes[threshold] = eigendecompose(h, gap_floor=0.0).left_vectors
    eigs = record(monkeypatch, "eig")
    s = eigendecompose(h, gap_floor=0.0)
    assert len(eigs) == 1
    assert np.array_equal(s.left_vectors, routes[0.0])
    assert not np.array_equal(s.left_vectors, routes[np.inf])
    monkeypatch.undo()
    # the oracle: left vectors from a second eigensolve, of H^dagger, each
    # matched to the nearest free conj(lambda)
    vals_adj, left_adj = np.linalg.eig(h.conj().T)
    free = np.ones(s.dim, dtype=bool)
    cols = []
    for lam in s.eigenvalues:
        dist = np.where(free, np.abs(vals_adj - lam.conj()), np.inf)
        cols.append(int(np.argmin(dist)))
        free[cols[-1]] = False
    left = left_adj[:, cols]
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
    monkeypatch.setattr(spectral, "LEFT_FROM_FLIP_COND", 0.0)
    eigs = record(monkeypatch, "eig")
    s = eigendecompose(b)
    assert len(eigs) == 1
    assert np.array_equal(s.eigenvalues, ref.eigenvalues)
    assert np.abs(s.left_vectors - ref.left_vectors).max() <= 1e-12
    assert np.abs(s.pairing() - np.eye(7)).max() <= 1e-13


def record_left_vectors(monkeypatch):
    """Record, for each call of the left-vector helper, cond_1(W) and
    whether it returned J conj(W)."""
    calls = []
    original = spectral._left_vectors

    def recorded(w, flip):
        left, cond = original(w, flip)
        calls.append((cond, np.array_equal(left, w[::-1].conj())))
        return left, cond
    monkeypatch.setattr(spectral, "_left_vectors", recorded)
    return calls


@pytest.mark.parametrize("case", ["scaled-p", "broken-schroedinger"])
def test_rotated_h_and_its_real_form_take_one_route(monkeypatch, case):
    # H and its real form B = S^dagger H S are solved alike, in B's frame:
    # the same cond_1(W), read from W and not from S W, and the same route;
    # H's systems are B's, mapped by S, up to the roundoff of the pairing
    # <phi_n|psi_n>, whose relative size is 1/kappa_n = 1/||phi_n||
    h = {"scaled-p": np.array([[0.6j, 1.0], [1.0, -0.6j]]),
         "broken-schroedinger": broken_schroedinger(101)}[case]
    b, rotated = spectral.real_form(h)
    assert rotated
    calls = record_left_vectors(monkeypatch)
    s_h = eigendecompose(h, gap_floor=0.0)
    s_b = eigendecompose(b, gap_floor=0.0)
    assert len(calls) == 2 and calls[0] == calls[1]
    cond, flipped = calls[0]
    if case == "scaled-p":
        # cond_1(S W) is 2.5 here
        assert cond == pytest.approx(3.0, rel=1e-12) and not flipped
    else:
        assert cond > spectral.LEFT_FROM_FLIP_COND and flipped
    assert np.array_equal(s_h.eigenvalues, s_b.eigenvalues)
    kappa = np.linalg.norm(s_b.left_vectors, axis=0)
    for mapped, vectors in ((s_h.right_vectors, s_b.right_vectors),
                            (s_h.left_vectors, s_b.left_vectors)):
        err = np.abs(spectral.state_to_real_form(mapped) - vectors)
        assert (err.max(axis=0) <= 8 * s_h.dim * EPS * kappa
                * np.abs(vectors).max(axis=0)).all()


@pytest.mark.parametrize("case", ["jordan-3", "overflow"])
def test_dependent_eigenvectors_are_degenerate(case):
    # the nilpotent 3x3 Jordan block gives an exactly singular W, and
    # [[1, 1e300], [0, 1]] a W^-1 whose 1-norm is not finite
    h, message = {"jordan-3": (np.eye(3, k=1),
                               "the eigenvectors are linearly dependent"),
                  "overflow": (np.array([[1.0, 1e300], [0.0, 1.0]]),
                               "the eigenvectors are linearly dependent "
                               "(cond_1 nan)")}[case]
    with pytest.raises(DegenerateSpectrum) as err:
        eigendecompose(h)
    assert str(err.value) == message


def left_from_lu(monkeypatch, h):
    """The eigensystem of h with every left system started from the LU
    inverse: no start passes a residual test against 0."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_SQRT_EPS", 0.0)
        return eigendecompose(h)


@pytest.mark.parametrize("case", ["lattice", "schroedinger", "matrix"])
def test_pt_left_vectors_start_from_the_flip_pairing(monkeypatch, case):
    # the real form of each has B^T = J B J: its left vectors start from
    # D^-1 (J W)^T, no LU inverse runs, and after the Newton step they are
    # those of the LU start to rounding
    h = {"lattice": lattice(40, 0.3),
         "schroedinger": document_h({"kind": "schroedinger",
                                     "grid": {"L": 4, "N": 101},
                                     "V_real": "x^2", "V_imag": "0.1*x^3"}),
         "matrix": pt_hamiltonian(np.random.default_rng(1), 12, 0.05)}[case]
    b, rotated = spectral.real_form(h)
    assert rotated and np.array_equal(b.T, b[::-1, ::-1])
    ref = left_from_lu(monkeypatch, h)
    inverted = record(monkeypatch, "inv")
    s = eigendecompose(h)
    assert inverted == []
    assert np.array_equal(s.right_vectors, ref.right_vectors)
    assert (np.abs(s.left_vectors - ref.left_vectors).max()
            <= 8 * s.dim * EPS * np.abs(ref.left_vectors).max())


def test_repeated_eigenvalue_of_a_flip_symmetric_form_falls_back_to_lu(
        monkeypatch):
    # b = W diag(d) W^-1 with W^T J W = diag(+-1), so that b^T = J b J, and
    # d repeats 2: eig picks some basis of that eigenspace, whose bilinear
    # J-pairing is not diagonal, so the flip start misses sqrt(eps) and the
    # left vectors come from the LU inverse
    n = 6
    signs, u = np.linalg.eigh(np.eye(n)[::-1])
    signs = np.sign(signs)
    # the Cayley transform of a diag(signs)-skew A keeps diag(signs)
    k = np.random.default_rng(0).normal(size=(n, n))
    a = signs[:, None] * 0.3 * (k - k.T)
    w = u @ np.linalg.solve(np.eye(n) - a, np.eye(n) + a)
    d = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0])
    # b = M J with M = W D diag(signs) W^T, made exactly symmetric
    m = (w * (d * signs)) @ w.T
    b = (0.5 * (m + m.T))[:, ::-1]
    assert np.array_equal(b.T, b[::-1, ::-1])
    assert not np.array_equal(b, b.T)
    inverted = record(monkeypatch, "inv")
    s = eigendecompose(b, gap_floor=0.0)
    assert len(inverted) == 1
    assert np.abs(s.eigenvalues - d).max() <= 1e-13
    assert np.abs(s.pairing() - np.eye(n)).max() <= 1e-13


@pytest.mark.parametrize("case", ["broken-schroedinger", "jordan-edge",
                                  "endpoints-edge"])
def test_flip_route_is_taken_from_the_start(monkeypatch, case):
    # a finite J-pairing start whose cond_1(W) is above the cap gives
    # J conj(W) with no LU inverse, and its cond_1 is the refined one to
    # 1e-7; a pairing that is not finite (a zero w_n^T J w_n), or one that
    # misses its residual test below the cap, still starts from the LU
    # inverse, and takes the route of the refined cond_1
    h, route = {
        "broken-schroedinger": (broken_schroedinger(201), True),
        "jordan-edge": (np.array([[1.0, 1.3e154], [0.0, 1.0]]), True),
        "endpoints-edge": (document_h({"kind": "lattice", "n": 11,
                                       "gamma": 1.0954341605591822,
                                       "pattern": "endpoints"}), False)}[case]
    refined = {}
    for threshold in (np.inf, spectral.LEFT_FROM_FLIP_COND):
        with monkeypatch.context() as m:
            m.setattr(spectral, "LEFT_FROM_FLIP_COND", threshold)
            calls = record_left_vectors(m)
            inverted = record(m, "inv")
            try:
                eigendecompose(h)
            except DegenerateSpectrum:
                assert case == "jordan-edge"
        (refined[threshold], flipped), = calls
    cond = refined[spectral.LEFT_FROM_FLIP_COND]
    assert flipped == route and (cond > spectral.LEFT_FROM_FLIP_COND) == route
    if case == "broken-schroedinger":
        assert inverted == []
        assert cond == pytest.approx(refined[np.inf], rel=1e-7)
    else:
        assert len(inverted) == 1 and cond == refined[np.inf]


def test_broken_lattice_pairs_to_rounding():
    # the broken alternating lattice of the benchmark: its real form has
    # conjugate eigenvalue pairs and a complex W, whose LU inverse, without
    # a Newton step, pairs to 5.8e-14; the step from the flip start pairs
    # at least 3 times better
    n = 250
    k = np.pi * np.arange(1, n + 1) / (n + 1)
    gamma = 4.0 * np.abs(2.0 * np.cos(k)).min()
    h = document_h({"kind": "lattice", "n": n, "gamma": gamma,
                    "pattern": "alternating"})
    s = eigendecompose(h)
    assert np.abs(s.eigenvalues.imag).max() > 1e-2
    v = s.right_vectors
    lu = spectral.SpectralData(
        s.eigenvalues, *biorthonormalize(v, np.linalg.inv(v).conj().T),
        s.min_gap)
    dev = np.linalg.norm(s.pairing() - np.eye(n))
    assert 3 * dev <= np.linalg.norm(lu.pairing() - np.eye(n))
    assert dev <= 1.5e-14


# --- the degeneracy rule: conditioning, parity sectors, conjugate pairs ---

def matrix_model(h, **extra):
    return parse_model(dict(extra, kind="matrix", data=[
        [[float(z.real), float(z.imag)] for z in row] for row in h]))


def error_codes(rows):
    """The codes of the error rows among report rows."""
    names = {r.name.rsplit(".", 1)[-1] for r in rows}
    return {name for name in names
            if isinstance(getattr(errors, name, None), type)}


def pseudo_unitary_similar(seed, d):
    """H = S diag(d) S^-1 with S^dagger J S = diag(+-1), J the flip: H is
    J-pseudo-Hermitian with the real spectrum d (Mostafazadeh's
    pseudo-unitary basis), and complex, not PT-symmetric."""
    rng = np.random.default_rng(seed)
    n = d.size
    signs, u = np.linalg.eigh(np.eye(n)[::-1])
    signs = np.sign(signs)
    x = np.eye(n, dtype=complex)
    for sign in (-1.0, 1.0):
        idx = np.nonzero(signs == sign)[0]
        q, _ = np.linalg.qr(rng.normal(size=(idx.size, idx.size))
                            + 1j * rng.normal(size=(idx.size, idx.size)))
        x[np.ix_(idx, idx)] = q
    # a boost between one odd and one even direction keeps diag(signs)
    i, j = np.nonzero(signs < 0)[0][0], np.nonzero(signs > 0)[0][0]
    t = rng.uniform(0.5, 1.5)
    boost = np.eye(n)
    boost[np.ix_([i, j], [i, j])] = [[np.cosh(t), np.sinh(t)],
                                     [np.sinh(t), np.cosh(t)]]
    s = u @ x @ boost
    assert np.abs(s.conj().T @ s[::-1] - np.diag(signs)).max() <= 1e-12
    return (s * d) @ (np.diag(signs) @ s.conj().T[:, ::-1])


def near_degenerate_non_normal(gap, skew, seed=5):
    """Q T Q^dagger for T = [[1, gap/skew], [0, 1 + gap]] and a random
    unitary Q: eigenvalues 1 and 1 + gap, both of condition ~1/skew."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    t = np.array([[1.0, gap / skew], [0.0, 1.0 + gap]])
    return q @ t @ q.conj().T, t


def corner_shift(t):
    """How far a backward error eps ||t||_F in the lower corner of the
    upper-triangular 2 x 2 t moves its eigenvalues: they solve
    (a - l)(d - l) = b e."""
    e = EPS * np.linalg.norm(t)
    (a, b), (_, d) = t
    disc = np.sqrt(complex((a - d) ** 2 + 4 * b * e))
    moved = np.array([(a + d - disc) / 2, (a + d + disc) / 2])
    return np.abs(moved - np.sort([a, d])).max()


@pytest.mark.parametrize("case", ["non-normal", "upper-1e9"])
def test_unresolved_pair_is_degenerate(case):
    # the pair is closer than (kappa_i + kappa_j) N eps ||H||_F, and the
    # oracle agrees: a backward error of eps ||H||_F moves the eigenvalues
    # by more than their gap
    if case == "non-normal":
        h, t = near_degenerate_non_normal(gap=1e-12, skew=1e-4)
    else:
        h = t = np.array([[1.0, 1e9], [0.0, -1.0]])
    vals, v = np.linalg.eig(h)
    left = np.linalg.inv(v).conj().T
    kappa = (np.linalg.norm(left, axis=0) * np.linalg.norm(v, axis=0)
             / np.abs(np.einsum("ij,ij->j", left.conj(), v)))
    gap = abs(vals[0] - vals[1])
    unit = 2 * EPS * np.linalg.norm(h)
    # kappa matters: a normal pair at this gap would be resolved
    assert 2 * unit < gap < kappa.sum() * unit
    assert corner_shift(t) > abs(t[0, 0] - t[1, 1])
    with pytest.raises(DegenerateSpectrum):
        eigendecompose(h)


def test_resolved_non_normal_pair_passes():
    # the same family 1e4 times wider apart is resolved
    h, _ = near_degenerate_non_normal(gap=1e-8, skew=1e-4)
    s = eigendecompose(h)
    assert s.min_gap == pytest.approx(1e-8, rel=1e-3)


@pytest.mark.parametrize("case", ["jordan"] + [f"sds-{k}" for k in range(8)])
def test_defective_and_repeated_spectra_never_pass(case):
    # a Jordan block and H = S D S^-1 with a repeated D: the eigensystem
    # cannot be resolved, so every task reports DegenerateSpectrum
    if case == "jordan":
        h = np.array([[1.0, 1.0], [0.0, 1.0]])
    else:
        seed = int(case.split("-")[1])
        rng = np.random.default_rng(100 + seed)
        d = np.round(rng.uniform(-2.0, 2.0, size=4 + seed), 1)
        d[1 + seed % 3] = d[0]
        h = pseudo_unitary_similar(seed, d)
    with pytest.raises(DegenerateSpectrum):
        eigendecompose(h)
    for p in ("parity", "identity"):
        report = run_battery(matrix_model(h, pseudometric=p))
        assert not any(r.passed for r in report.rows)
        assert "DegenerateSpectrum" in error_codes(report.rows)


def test_identity_pair_of_opposite_parity_passes():
    # eye(2) is solved by parity sector; its two vectors have opposite
    # parity, so the exact gap 0 is kept and C = P
    s = eigendecompose(np.eye(2))
    assert s.min_gap == 0.0
    charge, _ = standard_charge(np.eye(2), parity_matrix(2))
    assert np.abs(charge - parity_matrix(2)).max() <= EPS
    report = run_battery(matrix_model(np.eye(2)))
    assert error_codes(report.rows) == set()
    assert all(r.passed is not False for r in report.rows)


def test_conjugate_pair_at_the_exceptional_point_stays_broken():
    # gamma one ulp above the EP of the dimer: the conjugate pair
    # +-i sqrt(gamma^2 - 1) ~ +-2.1e-8 i is closer than its conditioning
    # bound, but B is real, so the pair is exactly conjugate and kept
    gamma = np.nextafter(1.0, 2.0)
    h = np.array([[1j * gamma, 1.0], [1.0, -1j * gamma]])
    s = eigendecompose(h)
    vals = s.eigenvalues
    assert np.array_equal(vals, vals[::-1].conj())
    assert 1e-8 < abs(vals[0].imag) < 1e-7
    assert error_codes(run_battery(matrix_model(h)).rows) == {"BrokenPhase"}


@pytest.mark.parametrize("v_imag,npoints", [("1e-8*x^3", 401),
                                            ("1e-6*x", 301)])
def test_weakly_broken_models_stay_broken(v_imag, npoints):
    # each also has a real, unsplit wall doublet closer than 1e-8 times
    # the spectral radius; its vectors are well conditioned, so it is kept
    spec = parse_model({"kind": "schroedinger", "grid": {"L": 8, "N": npoints},
                        "V_real": "x^2", "V_imag": v_imag})
    assert error_codes(run_battery(spec).rows) == {"BrokenPhase"}


def test_hermitian_asymmetric_double_well_passes_its_spectrum_task():
    # not flip-symmetric, so one eigh and no sector exemption; the tunnel
    # doublet (gap 7.9e-7) lies far above 2 N eps ||H||_F
    spec = parse_model({"kind": "schroedinger", "grid": {"L": 6, "N": 301},
                        "V_real": "x^4-8*x^2+1e-7*x"})
    rows = run_scenario(spec, "spectrum").rows
    assert error_codes(rows) == set()
    gap = {r.name: r.value for r in rows}["min_gap"]
    assert 7e-7 < gap < 9e-7
    assert all(r.passed is not False for r in rows)
