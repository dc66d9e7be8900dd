import numpy as np
import pytest

from quasiherm import (BrokenPhase, DimensionMismatch, ExceptionalPoint,
                       NonHermitianMetric, NotPTSymmetric, PseudoMetric,
                       SingularPseudoMetric, as_pseudometric,
                       charge_from_metric, charge_from_spectrum,
                       conjugation_in, eigendecompose, factorization,
                       make_triple, parity_matrix, pt_symmetry_residual,
                       qh_residual, signature, spectral_metric,
                       standard_charge, triple_inner, verify_table)
from quasiherm.models import parse_model, run_scenario
from quasiherm.spectral import real_form

RELATION_ROWS = ("H_sharp_eq_H", "Hdd_C_eq_C_H", "Cd_P_eq_P_C",
                 "Hd_Theta_eq_Theta_H", "C_eq_Cdd", "P_eq_Pd")


def test_signature_examples():
    assert signature(np.eye(4)) == (4, 0)
    assert signature(np.array([[0.0, 1.0], [1.0, 0.0]])) == (1, 1)
    # index reversal on 5 points: 3 symmetric and 2 antisymmetric modes
    assert signature(parity_matrix(5)) == (3, 2)


def test_signature_rejects_near_singular():
    with pytest.raises(SingularPseudoMetric):
        signature(np.diag([1.0, 5e-11]))


def test_pt_symmetry_residual_family(parity2):
    for a in (0.0, 0.37, 0.6, 2.5):
        h = np.array([[1j * a, 1.0], [1.0, -1j * a]])
        # oracle: both sides equal [[1, -ia], [ia, 1]]
        target = np.array([[1.0, -1j * a], [1j * a, 1.0]])
        assert np.abs(h.conj().T @ parity2 - target).max() <= 1e-15
        assert np.abs(parity2 @ h - target).max() <= 1e-15
        abs_res, _ = pt_symmetry_residual(h, parity2)
        assert abs_res <= 1e-14


def test_pt_symmetry_residual_diagonal(parity2):
    abs_res, _ = pt_symmetry_residual(np.diag([1.0, 2.0]), parity2)
    assert abs_res == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_identity_commutes_with_any_pseudometric():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = b + b.conj().T + 4.0 * np.eye(3)
    abs_res, _ = pt_symmetry_residual(np.eye(3), p)
    assert abs_res <= 1e-13


def test_charge_from_metric_examples(parity2, golden_theta, golden_charge):
    pm = as_pseudometric(parity2)
    assert np.abs(charge_from_metric(pm.matrix, pm) - np.eye(2)).max() <= 1e-14
    # oracle: P^-1 Theta = P Theta by direct multiplication
    assert np.abs(parity2 @ golden_theta - golden_charge).max() <= 1e-15
    assert np.abs(charge_from_metric(golden_theta, pm) - golden_charge).max() \
        <= 1e-14
    assert np.abs(charge_from_metric(golden_theta, np.eye(2)) - golden_theta
                  ).max() <= 1e-14


def test_standard_charge_golden(model_h, parity2, golden_charge, golden_theta):
    c, cand = standard_charge(model_h, parity2)
    assert np.abs(c - golden_charge).max() <= 1e-12
    assert np.abs(c @ c - np.eye(2)).max() <= 1e-12
    assert np.abs(cand.theta - golden_theta).max() <= 1e-12
    # Theta eigenvalues 1.25 -+ 0.75
    assert np.abs(np.linalg.eigvalsh(cand.theta)
                  - np.array([0.5, 2.0])).max() <= 1e-12
    # the golden charge is H scaled by the eigenvalue 0.8
    assert np.abs(c - model_h / 0.8).max() <= 1e-12
    # PCT symmetry in its pseudo-Hermiticity form, and [H, C] = 0
    _, rel = qh_residual(model_h, cand.theta)
    assert rel <= 1e-12
    assert np.abs(model_h @ c - c @ model_h).max() <= 1e-12


def test_standard_charge_hermitian_case(parity2):
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    c, cand = standard_charge(h, parity2)
    assert np.abs(c - parity2).max() <= 1e-12
    assert np.abs(cand.theta - np.eye(2)).max() <= 1e-12


def test_standard_charge_broken_phase(broken_h, parity2):
    with pytest.raises(BrokenPhase) as err:
        standard_charge(broken_h, parity2)
    assert err.value.max_imag == pytest.approx(np.sqrt(0.44), abs=1e-9)


def test_standard_charge_requires_pt_symmetry(parity2):
    with pytest.raises(NotPTSymmetric):
        standard_charge(np.diag([1.0, 2.0]), parity2)


def test_standard_charge_reports_a_shape_fault_once(model_h, monkeypatch):
    def eig(a):
        raise AssertionError("the eigensolve ran before the shape check")
    monkeypatch.setattr(np.linalg, "eig", eig)
    with pytest.raises(DimensionMismatch) as err:
        standard_charge(model_h, np.eye(3))
    assert str(err.value) == (
        "operator (2, 2) incompatible with pseudometric (3, 3)")


def test_standard_charge_pairing_guard(model_h, parity2, monkeypatch):
    monkeypatch.setattr(factorization, "PAIRING_FLOOR", 10.0)
    with pytest.raises(ExceptionalPoint):
        standard_charge(model_h, parity2)


P_SCALES = [1e-20, 1e-11, 1e-5, 1.0, 1e5, 1e11, 1e20]


@pytest.mark.parametrize("scale", P_SCALES)
def test_pairing_floor_follows_the_scale_of_p(model_h, parity2, scale,
                                              monkeypatch):
    # c_n = <phi_n|P^-1|phi_n> scales as 1/s, and C = P^-1 Theta not at all,
    # so the guard compares |c_n| with the floor times ||P^-1||_2
    reference, _ = standard_charge(model_h, parity2)
    c, cand = standard_charge(model_h, scale * parity2)
    assert cand.positive
    assert np.linalg.norm(c - reference) <= 1e-15 * np.linalg.norm(reference)
    monkeypatch.setattr(factorization, "PAIRING_FLOOR", 10.0)
    with pytest.raises(ExceptionalPoint):
        standard_charge(model_h, scale * parity2)
    assert as_pseudometric(scale * parity2).inverse_norm == pytest.approx(
        1 / scale, rel=1e-15)


@pytest.mark.parametrize("kind", ["parity", "identity"])
def test_structured_pseudometric_keeps_the_absolute_pairing_floor(kind):
    assert PseudoMetric.structured(kind, 5).inverse_norm == 1.0


def test_triple_inner(model_h, parity2):
    c, _ = standard_charge(model_h, parity2)
    t = make_triple(parity2, c)
    e0 = np.array([1.0, 0.0])
    assert triple_inner(t, "F", e0, e0) == 1.0
    assert triple_inner(t, "R", e0, e0) == 0.0  # neutral vector under parity
    assert triple_inner(t, "H", e0, e0) == pytest.approx(1.25)


@pytest.mark.parametrize("seed", range(4))
def test_triple_inner_composition_law(seed, model_h, parity2):
    c, _ = standard_charge(model_h, parity2)
    t = make_triple(parity2, c)
    rng = np.random.default_rng(600 + seed)
    v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
    v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert triple_inner(t, "H", v1, v2) == pytest.approx(
        triple_inner(t, "R", v1, c @ v2), abs=1e-12)


def test_conjugation_in_spaces(model_h, parity2):
    c, _ = standard_charge(model_h, parity2)
    t = make_triple(parity2, c)
    a = np.array([[1.0 + 2j, 3.0], [0.5j, -1.0]])
    assert np.array_equal(conjugation_in(t, "F", a), a.conj().T)
    # hidden Hermiticity: H is its own conjugate in the physical space
    assert np.abs(conjugation_in(t, "H", model_h) - model_h).max() <= 1e-12


def test_conjugation_in_positive_pseudometric(model_h):
    p_plus = np.diag([2.0, 1.0])
    c_plus = np.array([[0.5, -0.3j], [0.6j, 1.0]])
    t = make_triple(p_plus, c_plus)
    # oracle: diag(1/2, 1) H^dagger diag(2, 1)
    expected = np.array([[-0.6j, 0.5], [2.0, 0.6j]])
    got = conjugation_in(t, "R", model_h)
    assert np.abs(got - expected).max() <= 1e-14
    assert np.abs(got - model_h).max() > 0.5  # genuinely different from H


@pytest.mark.parametrize("space", ["F", "R", "H"])
def test_conjugation_is_involution(space, model_h, parity2):
    c, _ = standard_charge(model_h, parity2)
    t = make_triple(parity2, c)
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    twice = conjugation_in(t, space, conjugation_in(t, space, a))
    assert np.linalg.norm(twice - a) <= 1e-11 * np.linalg.norm(a)


def _rows_by_name(rows):
    return {r.name: r for r in rows}


def test_verify_table_hilbert_mode(model_h):
    # positive pseudometric and positive charge factoring the alternate
    # metric [[1, -0.6i], [0.6i, 1]] of the same model
    p_plus = np.diag([2.0, 1.0])
    c_plus = np.array([[0.5, -0.3j], [0.6j, 1.0]])
    theta = np.array([[1.0, -0.6j], [0.6j, 1.0]])
    assert np.abs(p_plus @ c_plus - theta).max() <= 1e-15  # oracle
    t = make_triple(p_plus, c_plus)
    assert t.mode == "hilbert"
    rows = _rows_by_name(verify_table(t, model_h))
    for name in RELATION_ROWS:
        assert rows[name].rel_residual <= 1e-12, name
        assert rows[name].passed
    assert rows["Theta_positive"].passed
    assert (rows["P_signature_plus"].abs_residual,
            rows["P_signature_minus"].abs_residual) == (2.0, 0.0)
    # generic Hilbert-mode reading: H differs from its R-space conjugate
    assert rows["H_vs_Hdd_deviation"].abs_residual > 0.5


def test_verify_table_krein_mode(model_h, parity2):
    c, _ = standard_charge(model_h, parity2)
    t = make_triple(parity2, c)
    assert t.mode == "krein"
    rows = _rows_by_name(verify_table(t, model_h))
    for name in RELATION_ROWS:
        assert rows[name].passed, name
    assert (rows["P_signature_plus"].abs_residual,
            rows["P_signature_minus"].abs_residual) == (1.0, 1.0)
    # with a true parity and a P-pseudo-Hermitian H the R-conjugate of H
    # collapses onto H itself
    assert rows["H_vs_Hdd_deviation"].abs_residual <= 1e-12


def test_verify_table_trivial_hermitian():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = b + b.conj().T
    t = make_triple(np.eye(3), np.eye(3))
    rows = verify_table(t, h)
    assert all(r.passed for r in rows if r.passed is not None)


def test_verify_table_order_is_deterministic(model_h, parity2):
    c, _ = standard_charge(model_h, parity2)
    t = make_triple(parity2, c)
    names = [r.name for r in verify_table(t, model_h)]
    assert names == list(RELATION_ROWS) + [
        "Theta_positive", "P_signature_plus", "P_signature_minus",
        "H_vs_Hdd_deviation"]


@pytest.mark.parametrize("seed", range(5))
def test_factorization_freedom(seed, model_h, golden_theta):
    # any positive invertible pseudometric factors the certified metric
    rng = np.random.default_rng(700 + seed)
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p_plus = b @ b.conj().T + 0.5 * np.eye(2)
    c = charge_from_metric(golden_theta, p_plus)
    resid = np.linalg.norm(c.conj().T @ p_plus - p_plus @ c)
    assert resid <= 1e-12 * np.linalg.norm(golden_theta)


def test_krein_to_hilbert_composition(model_h, parity2):
    # indefinite P with a positive-definite product P C
    pm = as_pseudometric(parity2)
    assert pm.signature == (1, 1)
    _, cand = standard_charge(model_h, parity2)
    assert cand.min_eig > 0
    assert cand.positive


def test_make_triple_rejects_inconsistent_pair(parity2):
    rng = np.random.default_rng(5)
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    with pytest.raises(NonHermitianMetric):
        make_triple(parity2, c)


@pytest.mark.parametrize("seed", range(12))
def test_verify_table_on_random_pseudo_hermitian_models(seed):
    # H = P M with Hermitian positive-definite M is parity-pseudo-Hermitian
    # by construction and similar to M^(1/2) P M^(1/2), so its spectrum is
    # real for free; the whole factorization pipeline must then certify it
    rng = np.random.default_rng(800 + seed)
    dim = 2 + seed % 6
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = b @ b.conj().T + 0.3 * np.eye(dim)
    p = parity_matrix(dim)
    h = p @ m
    c, cand = standard_charge(h, p)
    assert cand.positive
    assert np.abs(c @ c - np.eye(dim)).max() <= 1e-10
    rows = verify_table(make_triple(p, c), h)
    for row in rows[:6]:
        assert row.rel_residual <= 1e-10, row
    if dim % 2 == 0:
        assert signature(p) == (dim // 2, dim // 2)


def test_gate_and_table_property(monkeypatch):
    # H = J A with A Hermitian positive definite is J-pseudo-Hermitian and
    # similar to A^(1/2) J A^(1/2), so its spectrum is real; it is simple
    # for A with spread eigenvalues and random eigenvectors (A = I would
    # give H = J).  A generic perturbation of H is not J-pseudo-Hermitian,
    # and the PT gate must reject it before the eigensolve
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    eig_calls = []
    original_eig = np.linalg.eig

    def eig(a):
        eig_calls.append(a.shape)
        return original_eig(a)
    monkeypatch.setattr(np.linalg, "eig", eig)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 24),
                      log_cond=st.floats(1.0, 3.0))
    def check(seed, n, log_cond):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        a = (q * np.geomspace(1.0, 10.0 ** log_cond, n)) @ q.conj().T
        h = parity_matrix(n) @ (0.5 * (a + a.conj().T))
        p = PseudoMetric.structured("parity", n)
        c, cand = standard_charge(h, p)
        assert cand.positive and cand.min_eig > 0
        assert (np.linalg.norm(c @ c - np.eye(n))
                <= 1e-10 * np.linalg.norm(c) ** 2)
        rows = verify_table(make_triple(p, c), h)
        assert [r.name for r in rows[:6]] == list(RELATION_ROWS)
        assert all(r.passed for r in rows[:6]), rows
        assert rows[6].name == "Theta_positive" and rows[6].passed

        e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        calls_before = len(eig_calls)
        with pytest.raises(NotPTSymmetric):
            standard_charge(h + 1e-6 * np.linalg.norm(h) / np.linalg.norm(e)
                            * e, p)
        assert len(eig_calls) == calls_before

    check()


def test_charge_from_spectrum_matches_dyad_sum():
    # reference: Theta = X X^dagger with X = Phi |c|^(-1/2), the dyad sum
    # sum_n |phi_n><phi_n| / |c_n|, symmetrized, and C = P^-1 Theta,
    # written out without the library's helpers; for the complex H and for
    # the real form of a PT chain, whose real Phi takes a symmetric rank-k
    # update
    chain = (np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
             + np.diag(0.3j * (-1.0) ** np.arange(6)))
    for h in (np.array([[0.6j, 1.0], [1.0, -0.6j]]), real_form(chain)[0]):
        p = parity_matrix(len(h))
        s = eigendecompose(h)
        charge, cand = charge_from_spectrum(s, p)
        phi = s.left_vectors
        assert np.iscomplexobj(phi) == np.iscomplexobj(h)
        c = np.einsum("ij,ij->j", phi.conj(), np.linalg.solve(p, phi)).real
        x = phi * np.sqrt(1.0 / np.abs(c))
        theta = x @ x.conj().T
        theta = 0.5 * (theta + theta.conj().T)
        assert np.array_equal(cand.theta, theta)
        assert np.array_equal(charge, np.linalg.solve(p, theta))
        via_h, via_h_cand = standard_charge(h, p)
        assert charge.tobytes() == via_h.tobytes()
        assert cand.theta.tobytes() == via_h_cand.theta.tobytes()
    with pytest.raises(DimensionMismatch):
        charge_from_spectrum(s, parity_matrix(3))


def test_one_broken_phase_verdict(broken_h, parity2):
    # the metric, the charge from an eigensystem and the charge from H
    # all reject a complex spectrum with the same code and max |Im lambda|
    s = eigendecompose(broken_h)
    max_imags = []
    for build in (lambda: spectral_metric(s),
                  lambda: charge_from_spectrum(s, parity2),
                  lambda: standard_charge(broken_h, parity2)):
        with pytest.raises(BrokenPhase) as err:
            build()
        max_imags.append(err.value.max_imag)
    assert max_imags == [float(np.abs(s.eigenvalues.imag).max())] * 3


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("kind", ["parity", "identity"])
def test_structured_pseudometric_products_equal_dense_ones(kind, n):
    # reversal and copy are the dense products bit for bit; no structured
    # product builds or inverts a matrix
    rng = np.random.default_rng(n)
    dense = parity_matrix(n) if kind == "parity" else np.eye(n)
    pm = PseudoMetric.structured(kind, n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = x[:, -1].copy()
    assert pm.apply(x).tobytes() == (dense @ x).tobytes()
    assert pm.apply_right(x).tobytes() == (x @ dense).tobytes()
    inverse = np.linalg.inv(dense)
    assert pm.inverse_apply(x).tobytes() == (inverse @ x).tobytes()
    assert pm.apply(v).tobytes() == (dense @ v).tobytes()
    assert pm.apply_right(v).tobytes() == (v @ dense).tobytes()
    assert pm.matrix.tobytes() == dense.tobytes()
    assert pm.inverse.tobytes() == inverse.tobytes()
    assert pm.norm == np.linalg.norm(dense)
    assert pm.signature == signature(dense)
    # the sign of an exact zero is left to the dense kernel; values agree
    x[0, 0] = complex(-0.0, -0.0)
    assert np.array_equal(pm.apply(x), dense @ x)
    assert np.array_equal(pm.apply_right(x), x @ dense)
    # products are fresh arrays, never views of the argument
    assert not np.shares_memory(pm.apply(x), x)
    assert not np.shares_memory(pm.apply_right(x), x)


def test_structured_and_dense_pseudometrics_give_the_same_triple(model_h):
    # the report path's reversal and the explicit matrix agree bit for bit
    s = eigendecompose(model_h)
    structured = charge_from_spectrum(s, PseudoMetric.structured("parity", 2))
    explicit = charge_from_spectrum(s, parity_matrix(2))
    assert structured[0].tobytes() == explicit[0].tobytes()
    assert structured[1].theta.tobytes() == explicit[1].theta.tobytes()
    assert pt_symmetry_residual(model_h, PseudoMetric.structured(
        "parity", 2)) == pt_symmetry_residual(model_h, parity_matrix(2))


def test_dense_pseudometric_takes_its_eigenvalues_once(monkeypatch):
    # the signature and ||P^-1||_2 read one eigvalsh of P; factorize takes
    # one more, of Theta
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = 1.0 / float(np.abs(np.linalg.eigvalsh(p)).min())
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    pm = as_pseudometric(p)
    assert pm.signature == (1, 1)
    assert repr(pm.inverse_norm) == repr(expected)
    assert len(calls) == 1
    calls.clear()
    doc = {"kind": "matrix",
           "data": [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]],
           "pseudometric": p.tolist()}
    report = run_scenario(parse_model(doc), "factorize")
    assert report.all_passed
    assert len(calls) == 2
    assert sum(np.array_equal(a, p) for a in calls) == 1


@pytest.mark.parametrize("kind", ["parity", "identity"])
def test_structured_triple_is_the_dense_one_on_sector_eigenvectors(kind):
    # a flip-symmetric Hermitian H is solved by parity sector, whose
    # eigenvectors are not C-ordered; P^-1 phi of a structured P is a view
    # of them, and the pairings, C and Theta still equal the dense ones bit
    # for bit.  C of a structured P is a view of Theta.
    n = 7
    h = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    s = eigendecompose(h)
    pm = PseudoMetric.structured(kind, n)
    structured = charge_from_spectrum(s, pm)
    explicit = charge_from_spectrum(s, pm.matrix)
    assert structured[0].tobytes() == explicit[0].tobytes()
    assert structured[1].theta.tobytes() == explicit[1].theta.tobytes()
    assert np.shares_memory(structured[0], structured[1].theta)
