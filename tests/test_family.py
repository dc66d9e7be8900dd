from dataclasses import replace

import numpy as np
import pytest

from conftest import exact
from quasiherm import (BadGrid, ChargeAnsatz, DimensionMismatch,
                       NonFiniteResult, ParityViolation, PotentialSplit,
                       SigmaVanishes, adjoint, charge_norm,
                       charge_pg_hermiticity, coefficient_match,
                       compatible_split, compose_pct_residual,
                       discretize_charge, discretize_hamiltonian, even_part,
                       first_difference, forward_family, inverse_family,
                       make_ansatz, make_grid, make_split, odd_part,
                       ode_pair_residual, parity_matrix, parse_model,
                       run_battery, run_scenario, second_difference)
from quasiherm.family import BOUNDARY_MARGIN, SIGMA_FLOOR, parity_deviation


def smooth_ansatz(grid, omega=0.7):
    sigma = 1.0 + 0.5 * np.exp(-grid.points ** 2)
    alpha = grid.points * np.exp(-grid.points ** 2)
    return make_ansatz(grid, sigma, alpha, omega)


def analytic_split(grid, omega=0.7):
    """Compatible split with hand-differentiated companions."""
    x = grid.points
    sigma = 1.0 + 0.5 * np.exp(-x ** 2)
    alpha = x * np.exp(-x ** 2)
    dsigma = -x * np.exp(-x ** 2)
    dalpha = (1.0 - 2.0 * x ** 2) * np.exp(-x ** 2)
    s_even = sigma ** 2 - alpha ** 2 + omega
    lam_odd = 2.0 * sigma * alpha
    return make_split(grid, s_even, -dsigma, -dalpha, lam_odd)


def pair_split(grid, s_even, lam_odd):
    """The split of S and Lambda alone, without derivative companions."""
    zeros = np.zeros(grid.npoints)
    return make_split(grid, s_even, zeros, zeros, lam_odd)


# ---------------------------------------------------------------------------
# grids and discrete operators

def test_make_grid_examples():
    g = make_grid(1.0, 5)
    assert np.array_equal(g.points, np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    assert g.spacing == 0.5
    assert make_grid(10.0, 201).spacing == pytest.approx(0.1)


def test_grid_reflection_is_exact():
    g = make_grid(3.7, 31)
    assert np.array_equal(g.points, -g.points[::-1])
    assert g.points[15] == 0.0


@pytest.mark.parametrize("args", [(0.0, 5), (-1.0, 9), (1.0, 4), (1.0, 3)])
def test_make_grid_rejects(args):
    with pytest.raises(BadGrid):
        make_grid(*args)


def test_grids_compare_and_hash_as_their_half_width_and_point_count():
    g = make_grid(1, 5)
    assert g == make_grid(1.0, 5) and g is not make_grid(1, 5)
    assert hash(g) == hash(make_grid(1, 5))
    assert g != make_grid(1, 7) and g != make_grid(2, 5)
    assert g != (1.0, 5)
    assert len({g, make_grid(1, 5), make_grid(1, 7), make_grid(2, 5)}) == 3


def test_difference_matrices_symmetries():
    g = make_grid(2.0, 9)
    d1 = first_difference(g)
    d2 = second_difference(g)
    p = parity_matrix(9).real
    assert np.array_equal(d1.T, -d1)
    assert np.array_equal(d2.T, d2)
    assert np.array_equal(p @ d1 @ p, -d1)
    assert np.array_equal(p @ d2 @ p, d2)


def test_dense_builders_match_literal_construction():
    # signed zeros count: the Schroedinger eigensolves consume these bytes
    g = make_grid(3.0, 9)
    n, h = 9, g.spacing
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    for i in range(n - 1):
        d1[i, i + 1] = 1.0 / (2.0 * h)
        d1[i + 1, i] = -1.0 / (2.0 * h)
        d2[i, i + 1] = d2[i + 1, i] = 1.0 / h ** 2
    for i in range(n):
        d2[i, i] = -2.0 / h ** 2
    x = g.points
    at_zero = x == 0.0
    v = np.empty(n, dtype=complex)
    v.real = np.where(at_zero, -0.0, x ** 2)
    v.imag = np.where(at_zero, -0.0, 0.3 * x ** 3)
    sigma = np.where(at_zero, -0.0, 1.0 + np.cos(x))
    alpha = np.where(at_zero, -0.0, np.sin(x))
    h_ref = -d2.astype(complex) + np.diag(v)
    c_ref = d1.astype(complex) + np.diag(sigma + 1j * alpha)
    assert first_difference(g).tobytes() == d1.tobytes()
    assert second_difference(g).tobytes() == d2.tobytes()
    assert discretize_hamiltonian(g, v).tobytes() == h_ref.tobytes()
    assert discretize_charge(g, sigma, alpha).tobytes() == c_ref.tobytes()
    assert first_difference(g).dtype == second_difference(g).dtype == float


def test_box_eigenvalue_convergence():
    # hard walls sit one spacing outside the sampled extent, so fixing the
    # box and deriving the grid extent per N isolates the stencil error
    box = 1.0
    exact = (np.pi / (2.0 * box)) ** 2
    errors = []
    for n in (101, 201):
        extent = box * (n - 1) / (n + 1)
        g = make_grid(extent, n)
        h = discretize_hamiltonian(g, np.zeros(n))
        lowest = np.sort(np.linalg.eigvalsh(h.real))[0]
        errors.append(abs(lowest - exact))
    assert errors[1] < errors[0]
    assert 3.5 <= errors[0] / errors[1] <= 4.5
    assert errors[1] <= 1e-3 * exact


def test_constant_potential_shifts_spectrum():
    g = make_grid(1.0, 41)
    h0 = discretize_hamiltonian(g, np.zeros(41))
    hc = discretize_hamiltonian(g, np.full(41, 2.5))
    w0 = np.sort(np.linalg.eigvalsh(h0.real))
    wc = np.sort(np.linalg.eigvalsh(hc.real))
    assert np.abs(wc - w0 - 2.5).max() <= 1e-10


def test_complex_potential_breaks_hermiticity():
    g = make_grid(1.0, 21)
    v = np.zeros(21, dtype=complex)
    v += 1j * np.sin(np.pi * g.points)  # odd imaginary part
    h = discretize_hamiltonian(g, v)
    assert np.linalg.norm(h - h.conj().T) > 1e-3


def test_discretize_charge_structure():
    g = make_grid(1.0, 11)
    zero = np.zeros(11)
    c = discretize_charge(g, zero, zero)
    d1 = first_difference(g)
    assert np.array_equal(c, d1.astype(complex))
    assert np.array_equal(adjoint(c), -c)  # skew-Hermitian
    c1 = discretize_charge(g, np.ones(11), zero)
    assert np.array_equal(c1, (d1 + np.eye(11)).astype(complex))


def test_discretizers_flatten_their_input():
    g = make_grid(1.0, 11)
    a = smooth_ansatz(g)
    column = a.sigma.reshape(-1, 1)
    assert np.array_equal(discretize_hamiltonian(g, column),
                          discretize_hamiltonian(g, a.sigma))
    assert np.array_equal(discretize_charge(g, column, a.alpha[None, :]),
                          discretize_charge(g, a.sigma, a.alpha))


# ---------------------------------------------------------------------------
# the sample contract: every array is checked against the grid by name

G21, G11 = make_grid(2.0, 21), make_grid(2.0, 11)
A21, A11 = smooth_ansatz(G21), smooth_ansatz(G11)
S21, S11 = compatible_split(A21), compatible_split(A11)
SHORT = np.ones(11)
ONES = np.ones(21)

WRONG_LENGTH = {
    "make_ansatz-sigma": (lambda: make_ansatz(G21, SHORT, 0 * ONES), "sigma"),
    "make_ansatz-alpha": (lambda: make_ansatz(G21, ONES, SHORT), "alpha"),
    "make_split-imag_even": (
        lambda: make_split(G21, ONES, 0 * ONES, SHORT, 0 * ONES),
        "imag_even"),
    "discretize_hamiltonian": (
        lambda: discretize_hamiltonian(G21, SHORT), "potential"),
    "discretize_charge": (
        lambda: discretize_charge(G21, ONES, SHORT), "alpha"),
    "inverse_family": (
        lambda: inverse_family(S11.real_even, S21.imag_odd, 0.7, G21),
        "s_even"),
    # a record built by hand, or by replace, checks its lengths
    "ChargeAnsatz-sigma": (
        lambda: ChargeAnsatz(SHORT, np.zeros(11), 0.0, G21), "sigma"),
    "ChargeAnsatz-alpha": (
        lambda: ChargeAnsatz(ONES, SHORT, 0.0, G21), "alpha"),
    "replace-ChargeAnsatz-alpha": (lambda: replace(A21, alpha=SHORT), "alpha"),
    "replace-ChargeAnsatz-grid": (lambda: replace(A11, grid=G21), "sigma"),
    **{f"PotentialSplit-{name}": (
        lambda k=k: PotentialSplit(*(SHORT if j == k else ONES
                                     for j in range(4)), G21), name)
       for k, name in enumerate(("real_even", "real_odd", "imag_even",
                                 "imag_odd"))},
    "replace-PotentialSplit-imag_odd": (
        lambda: replace(S21, imag_odd=SHORT), "imag_odd"),
    "replace-PotentialSplit-grid": (
        lambda: replace(S11, grid=G21), "real_even"),
}


@pytest.mark.parametrize("case", WRONG_LENGTH)
def test_wrong_length_sample_is_named(case):
    call, name = WRONG_LENGTH[case]
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert str(err.value) == f"{name} must have length 21, got shape (11,)"


def test_records_carry_the_grid_their_arrays_were_checked_on():
    assert A11.grid is G11 and S11.grid is G11
    assert make_split(G21, ONES, 0 * ONES, 0 * ONES, 0 * ONES).grid is G21
    s_even, lam_odd = forward_family(A21)
    assert inverse_family(s_even, lam_odd, 0.7, G21).grid is G21
    for record, fields in ((ChargeAnsatz, (ONES, ONES, 0.0)),
                           (PotentialSplit, (ONES,) * 4)):
        with pytest.raises(TypeError, match="grid"):
            record(*fields)


# each family check that takes an ansatz, with a split where it takes one
FAMILY_USES = {
    "charge_norm": lambda a, ps: charge_norm(a),
    "charge_pg_hermiticity": lambda a, ps: charge_pg_hermiticity(a),
    "compatible_split": lambda a, ps: compatible_split(a).real_odd.tolist(),
    "ode_pair_residual": ode_pair_residual,
    "compose_pct_residual": compose_pct_residual,
    "coefficient_match": lambda a, ps: coefficient_match(a, ps).sup(0),
}


@pytest.mark.parametrize("use", FAMILY_USES)
def test_ansatz_and_split_are_taken_as_they_are_only_on_their_own_grid(
        monkeypatch, use):
    # a check reads the grid from the records and scans no array again; a
    # grid of the same half-width and point count is the same grid
    from quasiherm import family
    call = FAMILY_USES[use]
    twin = make_grid(2.0, 11)
    reference = call(A11, S11)
    samples = []
    original = family._samples

    def counted(*args, **kwargs):
        samples.append(kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(family, "_samples", counted)
    assert call(A11, S11) == reference
    assert samples == []
    assert call(replace(A11, grid=twin), S11) == reference
    assert call(A11, replace(S11, grid=twin)) == reference


# an ansatz and a split on grids of other point counts, or of another
# half-width at the same point count
A11_WIDE = smooth_ansatz(make_grid(4.0, 11))
PAIR_CHECKS = {"ode_pair_residual": ode_pair_residual,
               "compose_pct_residual": compose_pct_residual,
               "coefficient_match": coefficient_match}
DIFFERENT_GRIDS = {
    f"{name}-{which}": (check, a, ps)
    for name, check in PAIR_CHECKS.items()
    for which, a, ps in (("ansatz", A11, S21), ("split", A21, S11),
                         ("half_width", A11_WIDE, S11))}


@pytest.mark.parametrize("case", DIFFERENT_GRIDS)
def test_records_on_different_grids_raise_bad_grid(case):
    check, a, ps = DIFFERENT_GRIDS[case]
    with pytest.raises(BadGrid) as err:
        check(a, ps)
    assert str(err.value) == (
        f"the ansatz is on the grid (L, N) = ({a.grid.half_width}, "
        f"{a.grid.npoints}), the split on (2.0, {ps.grid.npoints})")


def test_readme_ansatz_with_a_split_on_a_wider_grid_is_a_bad_grid():
    # the README ansatz and its split on L = 4, N = 101: checked with an
    # L = 8, N = 101 grid handed apart from them, the order-1 residual read
    # 0.99 in place of its 5e-16; each record now carries its grid, and a
    # split on the wider one is a BadGrid
    a = smooth_ansatz(make_grid(4.0, 101))
    ps = compatible_split(a)
    assert coefficient_match(a, ps).sup(1) < 1e-15
    wide = make_grid(8.0, 101)
    for other in (replace(ps, grid=wide),
                  compatible_split(smooth_ansatz(wide))):
        with pytest.raises(BadGrid):
            coefficient_match(a, other)


NAN = np.where(G21.points == 0.0, np.nan, 1.0)

NON_FINITE = {
    "make_ansatz": (lambda: make_ansatz(G21, NAN, 0 * ONES), "sigma"),
    "make_split": (
        lambda: make_split(G21, ONES, 0 * ONES, NAN, 0 * ONES), "imag_even"),
    "discretize_hamiltonian": (
        lambda: discretize_hamiltonian(G21, NAN), "potential"),
    "discretize_charge": (
        lambda: discretize_charge(G21, ONES, NAN), "alpha"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_sample_is_named(case):
    call, name = NON_FINITE[case]
    with pytest.raises(ValueError, match=rf"^{name} samples must be finite"):
        call()


# ---------------------------------------------------------------------------
# forward family

def test_forward_pointwise_values():
    # at x = 0.5 with sigma = 1 and alpha = x: S = 0.75, Lambda = 1
    g = make_grid(1.0, 5)
    a = make_ansatz(g, np.ones(5), g.points, 0.0)
    s_even, lam_odd = forward_family(a)
    j = 3  # x = 0.5
    assert s_even[j] == 0.75
    assert lam_odd[j] == 1.0


def test_forward_degenerate_directions():
    g = make_grid(2.0, 9)
    sigma = np.cosh(g.points)  # even
    a = make_ansatz(g, sigma, np.zeros(9), 0.3)
    s_even, lam_odd = forward_family(a)
    assert np.array_equal(s_even, sigma ** 2 + 0.3)
    assert np.array_equal(lam_odd, np.zeros(9))

    alpha = np.sinh(g.points)  # odd
    b = make_ansatz(g, np.zeros(9), alpha, 0.3)
    s_even, lam_odd = forward_family(b)
    assert np.array_equal(s_even, -alpha ** 2 + 0.3)
    assert np.array_equal(lam_odd, np.zeros(9))


def test_forward_output_parity_exact():
    g = make_grid(4.0, 81)
    a = smooth_ansatz(g)
    s_even, lam_odd = forward_family(a)
    assert np.array_equal(s_even, s_even[::-1])
    assert np.array_equal(lam_odd, -lam_odd[::-1])


def test_ansatz_parity_is_enforced():
    g = make_grid(1.0, 5)
    with pytest.raises(ParityViolation):
        make_ansatz(g, g.points, np.zeros(5), 0.0)  # odd sigma
    with pytest.raises(ParityViolation):
        make_ansatz(g, np.ones(5), np.ones(5), 0.0)  # even alpha


@pytest.mark.parametrize("half_width", [0.1, 1 / 3, 4, 5, 1e-3, 1e6])
@pytest.mark.parametrize("npoints", [5, 9, 101, 801, 1201])
def test_refined_grid_holds_the_coarse_grid_bit_for_bit(half_width, npoints):
    # what family check --refine rests on to sample only the new points
    coarse = make_grid(half_width, npoints).points
    for k in (1, 2, 3):
        fine = make_grid(half_width, 2 ** k * (npoints - 1) + 1).points
        assert fine[::2 ** k].tobytes() == coarse.tobytes()
        new = fine[1::2]
        assert new.tobytes() == (-new[::-1]).tobytes()


# ---------------------------------------------------------------------------
# differentiated pair

def test_ode_pair_refinement_ratio():
    res = []
    n = 101
    for _ in range(3):
        g = make_grid(4.0, n)
        a = smooth_ansatz(g)
        res.append(ode_pair_residual(a, compatible_split(a)))
        n = 2 * n - 1
    for level in (0, 1):
        assert 3.5 <= res[level][0] / res[level + 1][0] <= 4.5
        assert 3.5 <= res[level][1] / res[level + 1][1] <= 4.5


def test_ode_pair_constants_are_exact():
    g = make_grid(2.0, 21)
    a = make_ansatz(g, np.full(21, 1.3), np.zeros(21), 0.1)
    assert ode_pair_residual(a, compatible_split(a)) == (0.0, 0.0)


def test_ode_pair_detects_perturbation():
    # S + x^2 adds 2x to S', which no refinement can remove
    residuals = []
    n = 101
    for _ in range(2):
        g = make_grid(4.0, n)
        a = smooth_ansatz(g)
        s_even, lam_odd = forward_family(a)
        r1, _ = ode_pair_residual(
            a, pair_split(g, s_even + g.points ** 2, lam_odd))
        residuals.append(r1)
        n = 2 * n - 1
    interior_edge = 2.0 * (4.0 - make_grid(4.0, 101).spacing)
    assert residuals[0] >= 0.9 * interior_edge
    assert residuals[1] >= 0.9 * interior_edge


# ---------------------------------------------------------------------------
# inverse family

def test_inverse_exact_arithmetic_point():
    # S = 0.75, Lambda = 1, omega = 0: 2 sigma^2 = 0.75 + 1.25 = 2, all dyadic
    g = make_grid(1.0, 5)
    a = make_ansatz(g, np.ones(5), g.points, 0.0)
    s_even, lam_odd = forward_family(a)
    rec = inverse_family(s_even, lam_odd, 0.0, g)
    j = 3  # x = 0.5
    assert rec.sigma[j] == 1.0
    assert rec.alpha[j] == 0.5


def test_inverse_degenerate_quadratic():
    g = make_grid(1.0, 9)
    sigma0 = np.full(9, 2.0)
    a = make_ansatz(g, sigma0, np.zeros(9), 0.0)
    s_even, lam_odd = forward_family(a)
    rec = inverse_family(s_even, lam_odd, 0.0, g)
    assert np.array_equal(rec.sigma, sigma0)
    assert np.array_equal(rec.alpha, np.zeros(9))


@pytest.mark.parametrize("omega", [0.0, 0.7, -0.3])
def test_inverse_roundtrip(omega):
    g = make_grid(4.0, 201)
    a = smooth_ansatz(g, omega)
    s_even, lam_odd = forward_family(a)
    rec = inverse_family(s_even, lam_odd, omega, g, branch=+1)
    mask = np.abs(a.sigma) > 1e-6
    assert np.abs(rec.sigma - a.sigma)[mask].max() <= 1e-12
    assert np.abs(rec.alpha - a.alpha)[mask].max() <= 1e-12


def test_inverse_branch_sign_symmetry():
    g = make_grid(4.0, 101)
    a = smooth_ansatz(g, 0.4)
    s_even, lam_odd = forward_family(a)
    rec = inverse_family(s_even, lam_odd, 0.4, g, branch=-1)
    assert np.abs(rec.sigma + a.sigma).max() <= 1e-12
    assert np.abs(rec.alpha + a.alpha).max() <= 1e-12
    back = forward_family(rec)
    assert np.abs(back[0] - s_even).max() <= 1e-12
    assert np.abs(back[1] - lam_odd).max() <= 1e-12


def test_inverse_sigma_vanishes():
    g = make_grid(1.0, 5)
    s_even = np.full(5, -1.0)
    lam_odd = 1e-9 * g.points
    with pytest.raises(SigmaVanishes) as err:
        inverse_family(s_even, lam_odd, 0.0, g)
    assert len(err.value.indices) > 0


def test_inverse_inverts_forward_within_its_conditioning():
    # property: on random grids, inverse_family(forward_family(a)) returns
    # a positive even sigma and an odd alpha, and their negatives on the
    # other branch.  Rounding S and Lambda costs eps * (sigma^2 + alpha^2 +
    # |omega|) absolutely; sigma^2 = ((S - omega) + sqrt(...)) / 2 passes
    # that on, cancelling where alpha > sigma, and d(sigma) = d(sigma^2) /
    # (2 sigma).  So the pointwise condition number relative to sigma is
    # kappa = (sigma^2 + alpha^2 + |omega|) / sigma^2, and a few roundings
    # of kappa * eps bound both relative errors; a subnormal alpha also
    # loses a few of the smallest subnormal steps absolutely
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    eps, step = np.finfo(float).eps, np.finfo(float).smallest_subnormal

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                      half=st.integers(2, 200),
                      half_width=st.floats(0.1, 50.0),
                      sigma_min=st.floats(1e-3, 2.0),
                      alpha_max=st.floats(0.0, 10.0),
                      omega=st.floats(-20.0, 20.0))
    def check(seed, half, half_width, sigma_min, alpha_max, omega):
        rng = np.random.default_rng(seed)
        g = make_grid(half_width, 2 * half + 1)
        sigma = sigma_min + even_part(rng.exponential(size=g.npoints))
        alpha = alpha_max * odd_part(rng.uniform(-1.0, 1.0, g.npoints))
        a = make_ansatz(g, sigma, alpha, omega)
        kappa = (sigma ** 2 + alpha ** 2 + abs(omega)) / sigma ** 2
        s_even, lam_odd = forward_family(a)
        rec = inverse_family(s_even, lam_odd, omega, g, branch=+1)
        assert np.all(np.abs(rec.sigma - sigma) <= 8 * eps * kappa * sigma)
        assert np.all(np.abs(rec.alpha - alpha)
                      <= 8 * eps * kappa * np.abs(alpha) + 8 * step)
        neg = inverse_family(s_even, lam_odd, omega, g, branch=-1)
        assert np.array_equal(neg.sigma, -rec.sigma)
        assert np.array_equal(neg.alpha, -rec.alpha)

    check()


# ---------------------------------------------------------------------------
# operator composition

def _compose_scale(grid, ansatz, split):
    h = discretize_hamiltonian(grid, split.potential())
    pc = parity_matrix(grid.npoints) @ discretize_charge(
        grid, ansatz.sigma, ansatz.alpha)
    return np.linalg.norm(h) * np.linalg.norm(pc)


def _dense_compose(grid, ansatz, split):
    """Dense reference for compose_pct_residual and its rounding bound
    16 eps max_core(|P H^dagger P||C| + |C||H|)."""
    n, m = grid.npoints, BOUNDARY_MARGIN
    h = discretize_hamiltonian(grid, split.potential())
    c = discretize_charge(grid, ansatz.sigma, ansatz.alpha)
    pc = parity_matrix(n) @ c
    core = slice(m, n - m)
    resid = (h.conj().T @ pc - pc @ h)[core, core]
    abs_h, abs_c = np.abs(h), np.abs(c)
    scale = abs_h.T[::-1, ::-1] @ abs_c + abs_c @ abs_h
    bound = 16 * np.finfo(float).eps * scale[core, core].max()
    return float(np.abs(resid).max()), bound


def bump_ansatz(grid):
    x = grid.points
    return make_ansatz(grid, 0.4 + 1.5 * np.exp(-(x / 0.6) ** 2),
                       -0.9 * x * np.exp(-(x / 0.8) ** 2), -0.3)


@pytest.mark.parametrize("n", [201, 801])
@pytest.mark.parametrize("ansatz", [smooth_ansatz, bump_ansatz])
@pytest.mark.parametrize("full", [True, False])
def test_compose_matches_dense_reference(n, ansatz, full):
    g = make_grid(4.0, n)
    a = ansatz(g)
    if full:
        ps = compatible_split(a)
    else:
        ps = pair_split(g, *forward_family(a))
    dense, bound = _dense_compose(g, a, ps)
    assert abs(compose_pct_residual(a, ps) - dense) <= bound


def test_compose_matches_dense_reference_on_tiny_grids():
    rng = np.random.default_rng(5)
    for n in (5, 7, 9):
        g = make_grid(1.0, n)
        raw = rng.normal(size=(6, n))
        a = make_ansatz(g, even_part(raw[0]), odd_part(raw[1]), 0.2)
        ps = make_split(g, even_part(raw[2]), odd_part(raw[3]),
                        even_part(raw[4]), odd_part(raw[5]))
        dense, bound = _dense_compose(g, a, ps)
        assert abs(compose_pct_residual(a, ps) - dense) <= bound


def test_compose_constant_case_vanishes():
    g = make_grid(2.0, 101)
    c0, omega = 0.8, 0.3
    a = make_ansatz(g, np.full(101, c0), np.zeros(101), omega)
    zeros = np.zeros(101)
    ps = make_split(g, np.full(101, c0 ** 2 + omega), zeros, zeros, zeros)
    resid = compose_pct_residual(a, ps)
    assert resid <= 1e-12 * _compose_scale(g, a, ps)


def test_compose_full_split_bounded_vs_partial_growing():
    full_res, partial_res = [], []
    n = 101
    for _ in range(2):
        g = make_grid(4.0, n)
        a = smooth_ansatz(g)
        s_even, lam_odd = forward_family(a)
        full_res.append(compose_pct_residual(a, compatible_split(a)))
        partial_res.append(compose_pct_residual(
            a, pair_split(g, s_even, lam_odd)))
        n = 2 * n - 1
    # with the derivative companions the residual stays bounded under
    # refinement; without them it diverges like 1/h
    assert full_res[1] <= 1.5 * full_res[0]
    assert partial_res[1] >= 1.6 * partial_res[0]
    assert partial_res[0] > 2.0 * full_res[0]


def test_compose_random_potential_is_incompatible():
    g = make_grid(4.0, 101)
    a = smooth_ansatz(g)
    rng = np.random.default_rng(12)
    raw = rng.normal(size=101)
    ps = make_split(g, even_part(raw), odd_part(raw), np.zeros(101),
                    np.zeros(101))
    assert compose_pct_residual(a, ps) > 1.0


# ---------------------------------------------------------------------------
# coefficient-level oracle

def compose_by_sympy(sympy, x, u, v, w):
    """Coefficients of f''', f'', f' and f in (-D^2 + u)(D + w) f minus
    (D + w)(-D^2 + v) f, composed by sympy on a symbolic function f."""
    f = sympy.Function("f")(x)

    def d(g):
        return sympy.diff(g, x)

    def charge(g):
        return d(g) + w * g
    lhs = -d(d(charge(f))) + u * charge(f)
    rhs = charge(-d(d(f)) + v * f)
    orders = sympy.symbols("f3 f2 f1 f0")
    residual = lhs - rhs
    for k, symbol in zip((3, 2, 1), orders):
        residual = residual.subs(sympy.diff(f, x, k), symbol)
    residual = sympy.expand(residual.subs(f, orders[3]))
    return [residual.coeff(symbol) for symbol in orders]


def test_composition_orders_by_symbolic_algebra():
    # oracle: sympy composes both operators on symbolic functions u, V, w;
    # orders 3 and 2 cancel identically, which is why coefficient_match
    # returns only orders 1 and 0, and those are its docstring's formulas
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    u, v, w = (sympy.Function(name)(x) for name in ("U", "V", "w"))
    d3, d2, d1, d0 = compose_by_sympy(sympy, x, u, v, w)
    assert d3 == 0 and d2 == 0
    assert sympy.expand(d1 - (u - 2 * w.diff(x) - v)) == 0
    assert sympy.expand(
        d0 - (u * w - w.diff(x, 2) - v.diff(x) - w * v)) == 0


def test_coefficient_residuals_converge_to_the_symbolic_composition():
    # oracle: sympy composes both operators for the README ansatz and a
    # split that is not compatible, with u(x) = conj(V)(-x); the order-1
    # and order-0 residuals of coefficient_match, which are O(1) here,
    # approach its coefficients at second order in h
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x", real=True)
    sigma = 1 + sympy.exp(-x ** 2) / 2
    alpha = x * sympy.exp(-x ** 2)
    parts = (sigma ** 2 - alpha ** 2 + sympy.cos(x) / 3,
             sympy.sin(x) / 2, sympy.exp(-x ** 2 / 2) / 4, 2 * sigma * alpha)
    v = parts[0] + parts[1] + sympy.I * (parts[2] + parts[3])
    u = sympy.conjugate(v.subs(x, -x))
    d1, d0 = (sympy.lambdify(x, c, "numpy") for c in compose_by_sympy(
        sympy, x, u, v, sigma + sympy.I * alpha)[2:])
    numeric = [sympy.lambdify(x, f, "numpy") for f in (sigma, alpha) + parts]
    errors = []
    for n in (101, 201, 401):
        g = make_grid(4.0, n)
        samples = [f(g.points) for f in numeric]
        cm = coefficient_match(make_ansatz(g, *samples[:2]),
                               make_split(g, *samples[2:]))
        x_i = g.points[1:-1]
        assert min(np.abs(d1(x_i)).max(), np.abs(d0(x_i)).max()) > 0.1
        errors.append((np.abs(cm.d1 - d1(x_i)).max(),
                       np.abs(cm.d0 - d0(x_i)).max()))
    for coarse, fine in zip(errors, errors[1:]):
        assert all(3.5 <= c / f <= 4.5 for c, f in zip(coarse, fine)), errors


def test_coefficient_constants_vanish_entirely():
    g = make_grid(2.0, 41)
    a = make_ansatz(g, np.full(41, 1.1), np.zeros(41), 0.2)
    zeros = np.zeros(41)
    ps = make_split(g, np.full(41, 1.1 ** 2 + 0.2), zeros, zeros, zeros)
    cm = coefficient_match(a, ps)
    for order in (1, 0):
        assert cm.sup(order) == 0.0
    with pytest.raises(KeyError):
        cm.sup(2)


def test_coefficient_residuals_second_order_with_analytic_split():
    sups = []
    n = 101
    for _ in range(3):
        g = make_grid(4.0, n)
        cm = coefficient_match(smooth_ansatz(g), analytic_split(g))
        sups.append((cm.sup(1), cm.sup(0)))
        n = 2 * n - 1
    for level in (0, 1):
        assert 3.5 <= sups[level][0] / sups[level + 1][0] <= 4.5
        assert 3.5 <= sups[level][1] / sups[level + 1][1] <= 4.5


def test_coefficient_first_order_forces_derivative_companions():
    # with real_odd = imag_even = 0 the first-order residual is -2 w' and
    # cannot vanish for a non-constant ansatz
    g = make_grid(4.0, 201)
    a = smooth_ansatz(g)
    s_even, lam_odd = forward_family(a)
    cm = coefficient_match(a, pair_split(g, s_even, lam_odd))
    h = g.spacing
    dsig = (a.sigma[2:] - a.sigma[:-2]) / (2 * h)
    dalp = (a.alpha[2:] - a.alpha[:-2]) / (2 * h)
    assert np.abs(cm.d1 - (-2.0) * (dsig + 1j * dalp)).max() <= 1e-13
    assert cm.sup(1) > 0.1
    # the full split removes the obstruction down to discretization error
    cm_full = coefficient_match(a, analytic_split(g))
    assert cm_full.sup(1) <= 0.05 * cm.sup(1)


def test_coefficient_projections_reproduce_ode_pair():
    g = make_grid(4.0, 201)
    a = smooth_ansatz(g)
    s_even, lam_odd = forward_family(a)
    cm = coefficient_match(a, pair_split(g, s_even, lam_odd))
    h = g.spacing
    ds = (s_even[2:] - s_even[:-2]) / (2 * h)
    dlam = (lam_odd[2:] - lam_odd[:-2]) / (2 * h)
    # differentiation flips parity: -S' sits in the odd real projection,
    # -Lambda' in the even imaginary one; the opposite projections hold the
    # leftovers -sigma'' and -alpha'' that force the derivative companions
    assert np.abs(odd_part(cm.d0.real) + ds).max() <= 1e-12
    assert np.abs(even_part(cm.d0.imag) + dlam).max() <= 1e-12
    sig2 = (a.sigma[2:] - 2 * a.sigma[1:-1] + a.sigma[:-2]) / h ** 2
    alp2 = (a.alpha[2:] - 2 * a.alpha[1:-1] + a.alpha[:-2]) / h ** 2
    assert np.abs(even_part(cm.d0.real) + sig2).max() <= 1e-12
    assert np.abs(odd_part(cm.d0.imag) + alp2).max() <= 1e-12
    r1, r2 = ode_pair_residual(a, pair_split(g, s_even, lam_odd))
    dsig = (a.sigma[2:] - a.sigma[:-2]) / (2 * h)
    dalp = (a.alpha[2:] - a.alpha[:-2]) / (2 * h)
    sig_i, alp_i = a.sigma[1:-1], a.alpha[1:-1]
    proj1 = np.abs(-odd_part(cm.d0.real)
                   - (2 * dsig * sig_i - 2 * dalp * alp_i)).max()
    proj2 = np.abs(-even_part(cm.d0.imag)
                   - (2 * dsig * alp_i + 2 * dalp * sig_i)).max()
    assert proj1 == pytest.approx(r1, abs=1e-12)
    assert proj2 == pytest.approx(r2, abs=1e-12)


# ---------------------------------------------------------------------------
# Hermiticity of the parity-charge product

def test_charge_pg_hermiticity_valid_ansatz():
    g = make_grid(4.0, 201)
    a = smooth_ansatz(g)
    pc_norm = np.linalg.norm(parity_matrix(201)
                             @ discretize_charge(g, a.sigma, a.alpha))
    assert charge_pg_hermiticity(a) <= 1e-13 * pc_norm


@pytest.mark.parametrize("n", [201, 801])
@pytest.mark.parametrize("ansatz", [smooth_ansatz, bump_ansatz])
def test_charge_pg_hermiticity_exact_and_norm(n, ansatz):
    g = make_grid(4.0, n)
    a = ansatz(g)
    assert charge_pg_hermiticity(a) == 0.0
    pc = parity_matrix(n) @ discretize_charge(g, a.sigma, a.alpha)
    assert charge_norm(a) == pytest.approx(np.linalg.norm(pc), rel=1e-14)


def test_charge_pg_hermiticity_zero_ansatz():
    g = make_grid(1.0, 11)
    a = make_ansatz(g, np.zeros(11), np.zeros(11), 0.0)
    assert charge_pg_hermiticity(a) == 0.0


def test_charge_pg_hermiticity_detects_broken_parity():
    g = make_grid(1.0, 11)
    # deliberately odd sigma, constructed raw to bypass validation
    bad = ChargeAnsatz(g.points.copy(), np.zeros(11), 0.0, g)
    assert charge_pg_hermiticity(bad) > 1e-3


def test_discretized_model_supports_metric_machinery():
    # small non-Hermitian lattice from the family: a well-localized odd
    # imaginary potential keeps the spectrum real (the wall-hugging
    # top-band doublets stay unperturbed), so the metric machinery applies
    g = make_grid(3.0, 41)
    v = g.points ** 2 + 0.2j * g.points * np.exp(-4.0 * g.points ** 2)
    h = discretize_hamiltonian(g, v)
    from quasiherm import pt_symmetry_residual, standard_charge
    _, rel = pt_symmetry_residual(h, parity_matrix(41))
    assert rel <= 1e-12
    charge, cand = standard_charge(h, parity_matrix(41), gap_floor=0.0)
    assert cand.positive
    assert np.abs(charge @ charge - np.eye(41)).max() <= 1e-8


def test_generalized_charge_observability_equivalence():
    # with the product P C as the metric produced by the generalized
    # charge, observability of C is the same statement as Hermiticity of
    # P C and as the quasi-Hermiticity of C with respect to P
    from quasiherm import observability_check
    g = make_grid(3.0, 41)
    a = make_ansatz(g, 1.0 + np.cos(g.points) ** 2,
                    0.4 * np.sin(g.points), 0.0)
    c = discretize_charge(g, a.sigma, a.alpha)
    p = parity_matrix(41)
    theta_g = p @ c
    obs_abs, _ = observability_check(c, theta_g)
    ruseu = np.linalg.norm(c.conj().T @ p - p @ c)
    pg = charge_pg_hermiticity(a)
    scale = np.linalg.norm(theta_g)
    assert pg <= 1e-13 * scale
    assert ruseu <= 1e-13 * scale
    assert obs_abs <= 1e-12 * scale * np.linalg.norm(c)

    # broken parity: all three witnesses light up together
    bad = ChargeAnsatz(g.points.copy(), np.zeros(41), 0.0, g)
    c_bad = discretize_charge(g, bad.sigma, bad.alpha)
    pg_bad = charge_pg_hermiticity(bad)
    ruseu_bad = np.linalg.norm(c_bad.conj().T @ p - p @ c_bad)
    assert pg_bad > 1e-3
    assert ruseu_bad == pytest.approx(pg_bad, rel=1e-12)


def test_real_even_potential_gives_real_symmetric_matrix():
    g = make_grid(2.0, 21)
    h = discretize_hamiltonian(g, g.points ** 2)
    assert np.abs(h.imag).max() == 0.0
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("n", [5, 11, 201])
def test_compatible_split_derivatives_have_exact_parity(n):
    # sigma' of an even sample is odd and alpha' of an odd one is even, bit
    # for bit; only the one-sided end values differ from np.gradient
    rng = np.random.default_rng(n)
    g = make_grid(1.3, n)
    a = make_ansatz(g, even_part(1.0 + rng.random(n)),
                    odd_part(rng.normal(size=n)), 0.2)
    ps = compatible_split(a)
    assert np.array_equal(ps.real_odd, -ps.real_odd[::-1])
    assert np.array_equal(ps.imag_even, ps.imag_even[::-1])
    assert np.array_equal(ps.real_odd[1:-1],
                          -np.gradient(a.sigma, g.spacing, edge_order=2)[1:-1])
    assert np.array_equal(ps.imag_even[1:-1],
                          -np.gradient(a.alpha, g.spacing, edge_order=2)[1:-1])


def seeded_bump_texts(seed):
    """sigma and alpha texts of a Gaussian-bump ansatz with seeded shape."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.2, 0.7), rng.uniform(0.4, 1.2)
    s, t = rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0)
    return f"1+{a!r}*exp(-x^2/{s!r})", f"{b!r}*x*exp(-x^2/{t!r})"


@pytest.mark.parametrize("texts", [("1+0.5*exp(-x^2)", "x*exp(-x^2)"),
                                   seeded_bump_texts(3)],
                         ids=["readme", "bump"])
def test_derivative_companions_converge_to_symbolic_derivatives(texts):
    # oracle: sympy differentiates the model texts; the companions
    # real_odd = -sigma' and imag_even = -alpha' of compatible_split and
    # the order-0 coefficient residual are second order in h, up to the
    # one-sided ends, and the order-1 residual is roundoff
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    dsigma, dalpha = (sympy.lambdify(x, sympy.diff(sympy.sympify(t), x),
                                     "numpy") for t in texts)
    errors = []
    for n in (201, 401, 801, 1601):
        spec = parse_model({"kind": "family", "grid": {"L": 4, "N": n},
                            "sigma": texts[0], "alpha": texts[1],
                            "omega": 0.7})
        a = spec.payload["ansatz"]
        g = a.grid
        ps = compatible_split(a)
        cm = coefficient_match(a, ps)
        assert cm.sup(1) <= 1e-13
        errors.append((np.abs(ps.real_odd + dsigma(g.points)).max(),
                       np.abs(ps.imag_even + dalpha(g.points)).max(),
                       cm.sup(0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert all(c >= 3.9 * f for c, f in zip(coarse, fine)), errors


# ---------------------------------------------------------------------------
# the model path against the public functions

README_TEXTS = ("1+0.5*exp(-x^2)", "x*exp(-x^2)")


def family_doc(texts, npoints, half_width=4.0):
    return {"kind": "family", "grid": {"L": half_width, "N": npoints},
            "sigma": texts[0], "alpha": texts[1], "omega": 0.7}


def public_check_rows(texts, npoints, levels):
    """(name, value) of each family check --refine row, from the public
    functions on the ansatz that parse_model gives on each level's grid."""
    rows, prev = [], None
    floor = 100 * np.finfo(float).eps
    for k in range(levels + 1):
        n = 2 ** k * (npoints - 1) + 1
        spec = parse_model(family_doc(texts, n))
        a = spec.payload["ansatz"]
        ps = compatible_split(a)
        ode = ode_pair_residual(a, ps)
        if k == 0:
            zeros = np.zeros(n)
            partial = replace(ps, real_odd=zeros, imag_even=zeros)
            cm = coefficient_match(a, ps)
            rows += [(f"d{order}_sup", cm.sup(order)) for order in (1, 0)]
            rows += [("pg_hermiticity", charge_pg_hermiticity(a)),
                     ("ode_residual_S", ode[0]),
                     ("ode_residual_Lambda", ode[1]),
                     ("compose_residual_full_split",
                      compose_pct_residual(a, ps)),
                     ("compose_residual_s_lambda_only",
                      compose_pct_residual(a, partial))]
        else:
            rows += [(f"ode_residual_S_level{k}", ode[0]),
                     (f"ode_residual_Lambda_level{k}", ode[1])]
            rows += [(f"ode_ratio_{name}_level{k}", p / f)
                     for name, p, f in zip(("S", "Lambda"), prev, ode)
                     if p > floor and f > floor]
        prev = ode
    return rows


def public_forward_inverse_rows(texts, npoints):
    """(name, value) of the family-forward and family-inverse rows of a
    report, from the public functions on the parsed ansatz."""
    spec = parse_model(family_doc(texts, npoints))
    a = spec.payload["ansatz"]
    g = a.grid
    ps = compatible_split(a)
    back = inverse_family(ps.real_even, ps.imag_odd, a.omega, g)
    mask = np.abs(a.sigma) > SIGMA_FLOOR
    forward = [("S_parity_dev", parity_deviation(ps.real_even, +1)),
               ("Lambda_parity_dev", parity_deviation(ps.imag_odd, -1)),
               ("S_sup", np.abs(ps.real_even).max()),
               ("Lambda_sup", np.abs(ps.imag_odd).max()),
               ("real_odd_sup", np.abs(ps.real_odd).max()),
               ("imag_even_sup", np.abs(ps.imag_even).max())]
    inverse = [("omega_sign_convention", "S_minus_omega"),
               ("sigma_roundtrip_max",
                np.abs(back.sigma - a.sigma)[mask].max()),
               ("alpha_roundtrip_max",
                np.abs(back.alpha - a.alpha)[mask].max()),
               ("omega", a.omega), ("branch", 1)]
    return ([("family-forward." + name, v) for name, v in forward]
            + [("family-inverse." + name, v) for name, v in inverse])


BUMP_SEEDS = (3, 17, 2024)


@pytest.mark.parametrize("texts", [README_TEXTS] + [
    seeded_bump_texts(seed) for seed in BUMP_SEEDS],
    ids=["readme"] + [f"bump-{seed}" for seed in BUMP_SEEDS])
def test_check_and_report_rows_equal_the_public_functions(texts):
    # the model path runs the private cores on arrays checked once; every
    # row must be what the checking public functions give, bit for bit
    spec = parse_model(family_doc(texts, 101))
    for levels in range(4):
        report = run_scenario(spec, "family-check", {"refine": levels})
        assert exact((r.name, r.value) for r in report.rows) == exact(
            public_check_rows(texts, 101, levels))
    battery = run_battery(spec)
    assert exact((r.name, r.value) for r in battery.rows) == exact(
        public_forward_inverse_rows(texts, 101)
        + [("family-check." + name, v)
           for name, v in public_check_rows(texts, 101, 0)])


def test_refine_rows_match_a_symbolic_leading_term():
    # oracle: at interior points the central differences leave
    #   S residual       h^2 |sigma' sigma'' - alpha' alpha''| + O(h^4)
    #   Lambda residual  h^2 |sigma'' alpha' + sigma' alpha''| + O(h^4)
    # with the derivatives taken by sympy from the model texts
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sigma, alpha = (sympy.sympify(t.replace("^", "**")) for t in README_TEXTS)
    ds, dds, da, dda = (sympy.lambdify(x, sympy.diff(f, x, k), "numpy")
                        for f in (sigma, alpha) for k in (1, 2))
    report = run_scenario(parse_model(family_doc(README_TEXTS, 201)),
                          "family-check", {"refine": 3})
    rows = {r.name: r.value for r in report.rows}
    gaps = []
    for k in range(4):
        n = 2 ** k * 200 + 1
        h = 8.0 / (n - 1)
        xs = make_grid(4.0, n).points[1:-1]
        leading = (np.abs(ds(xs) * dds(xs) - da(xs) * dda(xs)).max(),
                   np.abs(dds(xs) * da(xs) + ds(xs) * dda(xs)).max())
        suffix = f"_level{k}" if k else ""
        gaps.append([abs(rows[f"ode_residual_{name}{suffix}"] / (h * h * lead)
                         - 1.0)
                     for name, lead in zip(("S", "Lambda"), leading)])
    assert max(gaps[0]) <= 1e-2, gaps
    for coarse, fine in zip(gaps, gaps[1:]):
        assert all(c >= 3.0 * f for c, f in zip(coarse, fine)), gaps


OVERFLOWING = {
    # |alpha| near 1e105 keeps S and Lambda finite; u w and the band
    # products of the order-0 residual and the composition overflow
    "coefficient_match": (lambda x: 1e105 * x * np.exp(-x ** 2), 4.0, 201,
                          coefficient_match),
    "compose_pct_residual": (lambda x: 1e105 * x * np.exp(-x ** 2), 4.0, 201,
                             compose_pct_residual),
    # alpha^2 stays below the largest double, 2 alpha' alpha does not
    "ode_pair_residual": (lambda x: 1.3e154 * x, 1.0, 101, ode_pair_residual),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", OVERFLOWING)
def test_overflowing_residuals_raise_non_finite_result(case):
    alpha, half_width, n, call = OVERFLOWING[case]
    g = make_grid(half_width, n)
    a = make_ansatz(g, 1.0 + 0.5 * np.exp(-g.points ** 2), alpha(g.points),
                    0.7)
    ps = compatible_split(a)
    with pytest.raises(NonFiniteResult, match="is not finite$"):
        call(a, ps)
