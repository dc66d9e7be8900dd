import numpy as np
import pytest

from quasiherm import (DimensionMismatch, NonHermitianMetric, SingularMetric,
                       adjoint, adjoint_product, adjoint_wrt, inner, make_grid,
                       first_difference, parity_matrix, right_product,
                       time_reversal)
from quasiherm import operators
from quasiherm.operators import CheckedOperator, as_operator, checked_operator
from quasiherm.metrics import certify_metric


def test_adjoint_real_symmetric_fixed_point():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(adjoint(a), a)


def test_adjoint_by_hand():
    a = np.array([[0.6j, 1.0], [1.0, -0.6j]])
    expected = np.array([[-0.6j, 1.0], [1.0, 0.6j]])
    assert np.array_equal(adjoint(a), expected)


def test_adjoint_of_central_difference_is_negation():
    # the real central-difference stencil is antisymmetric by construction
    d1 = first_difference(make_grid(1.0, 9))
    assert np.array_equal(adjoint(d1), -d1)


def test_time_reversal_entrywise():
    a = np.array([[0.6j, 1.0], [1.0, -0.6j]])
    assert np.array_equal(time_reversal(a), a.conj())
    r = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(time_reversal(r), r)


@pytest.mark.parametrize("seed", range(5))
def test_involutions_on_random_inputs(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert np.abs(adjoint(adjoint(a)) - a).max() <= 1e-13
    assert np.abs(time_reversal(time_reversal(a)) - a).max() <= 1e-13


def test_adjoint_wrt_identity_is_adjoint():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(adjoint_wrt(a, np.eye(4)), adjoint(a))


def test_self_adjoint_under_own_metric():
    h = np.array([[0.6j, 1.0], [1.0, -0.6j]])
    m = np.array([[1.0, -0.6j], [0.6j, 1.0]])
    # oracle: H^dagger M and M H agree by direct 2x2 multiplication
    assert np.abs(h.conj().T @ m - m @ h).max() < 1e-15
    assert np.abs(adjoint_wrt(h, m) - h).max() < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_adjoint_wrt_involution(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = b @ b.conj().T + 0.5 * np.eye(3)
    twice = adjoint_wrt(adjoint_wrt(a, m), m)
    assert np.linalg.norm(twice - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("seed", range(5))
def test_adjoint_wrt_antihomomorphism(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = c @ c.conj().T + 0.5 * np.eye(4)
    lhs = adjoint_wrt(a @ b, m)
    rhs = adjoint_wrt(b, m) @ adjoint_wrt(a, m)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


def test_adjoint_wrt_rejects_non_hermitian_metric():
    a = np.eye(2)
    with pytest.raises(NonHermitianMetric):
        adjoint_wrt(a, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_adjoint_wrt_rejects_singular_metric():
    a = np.eye(2)
    with pytest.raises(SingularMetric):
        adjoint_wrt(a, np.diag([1.0, 1e-14]))


def test_inner_examples():
    assert inner(np.eye(2), [1, 0], [1, 0]) == 1.0
    m = np.array([[1.25, -0.75j], [0.75j, 1.25]])
    assert inner(m, [1, 0], [1, 0]) == pytest.approx(1.25)
    # neutral vector of an indefinite metric
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert inner(swap, [1, 0], [1, 0]) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_inner_conjugate_symmetry_and_linearity(seed):
    rng = np.random.default_rng(300 + seed)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = b + b.conj().T
    v1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    v2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    v3 = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert inner(m, v1, v2) == pytest.approx(np.conj(inner(m, v2, v1)))
    lhs = inner(m, v1, 2.0 * v2 + 3j * v3)
    rhs = 2.0 * inner(m, v1, v2) + 3j * inner(m, v1, v3)
    assert lhs == pytest.approx(rhs)


def test_inner_positivity_floor():
    rng = np.random.default_rng(11)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = b @ b.conj().T + 0.1 * np.eye(4)
    cand = certify_metric(m)
    assert cand.positive
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        val = inner(cand.theta, v, v).real
        assert val >= cand.min_eig * np.linalg.norm(v) ** 2 - 1e-12


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(np.eye(2), [1, 0, 0], [1, 0])


def test_parity_matrix():
    assert np.array_equal(parity_matrix(2),
                          np.array([[0, 1], [1, 0]], dtype=complex))
    p3 = parity_matrix(3)
    assert np.array_equal(p3, np.fliplr(np.eye(3, dtype=complex)))
    p7 = parity_matrix(7)
    assert np.array_equal(p7 @ p7, np.eye(7, dtype=complex))
    assert np.array_equal(p7, p7.conj().T)


def random_tridiagonal(rng, n, zero_bands=()):
    """Complex tridiagonal matrix; the bands named in ``zero_bands``
    ("lower", "diag", "upper") are left at zero."""
    def band(name, size):
        if name in zero_bands:
            return np.zeros(size, dtype=complex)
        return rng.normal(size=size) + 1j * rng.normal(size=size)
    h = np.diag(band("diag", n))
    if n > 1:
        h += np.diag(band("lower", n - 1), -1)
        h += np.diag(band("upper", n - 1), 1)
    return h


BAND_CASES = [(n, zero) for n in (1, 2, 3, 7, 40)
              for zero in ((), ("lower",), ("diag",), ("upper",),
                           ("lower", "upper"), ("lower", "diag", "upper"))]


@pytest.mark.parametrize("n,zero_bands", BAND_CASES)
def test_banded_products_match_dense(n, zero_bands):
    rng = np.random.default_rng(BAND_CASES.index((n, zero_bands)))
    h = random_tridiagonal(rng, n, zero_bands)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # each entry sums at most three products: a few ulps of |H| |X|
    eps = np.finfo(float).eps
    hd = h.conj().T
    bound_left = 8 * eps * (np.abs(hd) @ np.abs(x))
    bound_right = 8 * eps * (np.abs(x) @ np.abs(h))
    assert np.all(np.abs(adjoint_product(h, x) - hd @ x) <= bound_left)
    assert np.all(np.abs(right_product(x, h) - x @ h) <= bound_right)
    # a CheckedOperator gives the products of its array, bit for bit
    op = checked_operator(h)
    assert adjoint_product(op, x).tobytes() == adjoint_product(h, x).tobytes()
    assert right_product(x, op).tobytes() == right_product(x, h).tobytes()


@pytest.mark.parametrize("n,corner", [(3, 0.5), (4, 1e-300), (9, 2.0j)])
def test_non_tridiagonal_operator_takes_the_dense_product(monkeypatch, n,
                                                          corner):
    def banded(*args):
        raise AssertionError("a non-tridiagonal operator went through bands")
    monkeypatch.setattr(operators, "_tridiagonal_times", banded)
    rng = np.random.default_rng(70 + n)
    h = random_tridiagonal(rng, n)
    h[0, n - 1] = corner  # one entry off the bands, however small
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert adjoint_product(h, x).tobytes() == (h.conj().T @ x).tobytes()
    assert right_product(x, h).tobytes() == (x @ h).tobytes()


@pytest.mark.parametrize("bad", [
    np.ones(3), np.ones((2, 3)), np.ones((0, 0)), np.ones((2, 2, 2)),
    [[np.inf]], [[1.0, np.nan], [0.0, 1.0]], [[1j * np.inf, 0], [0, 1]],
    [["a"]], [[1, 2], [3]], None,
])
def test_intake_rejects_what_as_operator_rejects(bad):
    with pytest.raises(Exception) as expected:
        as_operator(bad)
    with pytest.raises(type(expected.value)) as got:
        checked_operator(bad)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("a", [
    [[1, 2], [3, 4]], [[1j, 2], [3, 4]], np.arange(9.0).reshape(3, 3),
    np.eye(4, dtype=complex), np.arange(16.0).reshape(4, 4).T,
])
def test_intake_keeps_the_matrix_as_operator_gives(a):
    op = checked_operator(a)
    m = as_operator(a)
    assert isinstance(op, CheckedOperator)
    assert op.matrix.dtype == m.dtype and op.matrix.tobytes() == m.tobytes()
    if isinstance(a, np.ndarray):
        assert op.matrix is a
    assert np.shape(op) == op.shape == m.shape
    assert checked_operator(op) is op


def test_record_takes_its_norm_and_bands_once(monkeypatch):
    scans, norms = [], []
    scan, norm = operators._tridiagonal_bands, np.linalg.norm
    monkeypatch.setattr(operators, "_tridiagonal_bands",
                        lambda a: scans.append(a) or scan(a))
    monkeypatch.setattr(np.linalg, "norm",
                        lambda x, *args, **kw: norms.append(x) or norm(x, *args, **kw))
    h = first_difference(make_grid(1.0, 9))
    op = checked_operator(h)
    assert scans == [] and norms == []
    for _ in range(2):
        assert op.norm == norm(h)
        assert [b.tobytes() for b in op.bands] == [
            b.tobytes() for b in scan(h)]
    assert len(scans) == 1 and len(norms) == 1
