"""The real frame of the analysis: a real or PT-symmetric H under the
"parity" or "identity" pseudometric is analyzed as its real form
B = S^dagger H S, S = (1 + iJ)/sqrt(2), and the report does not depend on
the frame."""

import numpy as np
import pytest

from conftest import document_h
from quasiherm import (eigendecompose, models, parse_model, run_battery,
                       run_scenario)
from quasiherm.evolution import norm_trace_columns, propagate_spectrum
from quasiherm.factorization import (PseudoMetric, SpaceTriple,
                                     charge_from_spectrum,
                                     pt_symmetry_residual, verify_table)
from quasiherm.metrics import frobenius_residual, qh_residual, spectral_metric
from quasiherm.operators import as_operator, parity_matrix
from quasiherm.spectral import _as_columns, real_form

EPS = np.finfo(float).eps


def matrix_data(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def pt_matrix(seed: int, dim: int, cond_m: float) -> np.ndarray:
    """H = J S M S^dagger for a random real symmetric positive definite M of
    condition ``cond_m``: PT-symmetric, parity-pseudo-Hermitian (S commutes
    with J) and with the real spectrum of J M, similar to M^1/2 J M^1/2."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    m = (q * np.geomspace(1.0, cond_m, dim)) @ q.T
    s = (np.eye(dim) + 1j * np.eye(dim)[::-1]) / np.sqrt(2.0)
    h = s @ m[::-1] @ s.conj().T
    # PT symmetry holds to roundoff; make it exact, as real_form needs
    return 0.5 * (h + h[::-1, ::-1].conj())


MODELS = {
    "lattice-endpoints": {"kind": "lattice", "n": 7, "gamma": 0.4},
    "lattice-alternating": {"kind": "lattice", "n": 8, "gamma": 0.3,
                            "pattern": "alternating"},
    "schroedinger-pt": {"kind": "schroedinger", "grid": {"L": 2, "N": 41},
                        "V_real": "x^2", "V_imag": "0.1*x^3"},
}
for _seed in range(4):
    _h = pt_matrix(_seed, 6 + _seed, 10.0 ** (1 + 2 * _seed))
    MODELS[f"random-pt-{_seed}"] = {"kind": "matrix", "data": matrix_data(_h)}


def model_h(spec) -> np.ndarray:
    """H in the frame of the model, as the document defines it."""
    return document_h(spec.document)


def library_rows(spec, choice: str) -> tuple[dict, dict, float]:
    """The battery's rows computed by library calls on the complex H, the
    matrices of the H frame, and the condition number of its eigenvectors."""
    h = model_h(spec)
    s = eigendecompose(h)
    n = s.dim
    pm = PseudoMetric.structured(choice, n)
    theta = spectral_metric(s)
    rows = {
        "spectrum.eigenvalues": s.eigenvalues,
        "spectrum.min_gap": s.min_gap,
        "spectrum.reconstruction_rel": frobenius_residual(
            h - s.reconstruction(), np.linalg.norm(h))[1],
        "spectrum.biorthonormality_dev": np.linalg.norm(
            s.pairing() - np.eye(n)),
        "metric.theta_min_eig": theta.min_eig,
        "metric.theta_max_eig": theta.max_eig,
        "metric.theta_condition": theta.condition,
        "factorize.pt_residual_rel": pt_symmetry_residual(h, pm)[1],
    }
    rows["metric.qh_residual_abs"], rows["metric.qh_residual_rel"] = (
        qh_residual(h, theta.theta))
    matrices = {"metric.theta": theta.theta}
    if choice == "parity":
        c, cand = charge_from_spectrum(s, pm)
        rows["factorize.charge_involution_rel"] = frobenius_residual(
            c @ c - np.eye(n), np.linalg.norm(c) ** 2)[1]
        (rows["factorize.qh_residual_abs"],
         rows["factorize.qh_residual_rel"]) = qh_residual(h, cand.theta)
        rows["factorize.theta_eigenvalues"] = cand.eigenvalues
        for trow in verify_table(SpaceTriple(pm, c, cand), h):
            rows[f"table.{trow.name}"] = (trow.abs_residual
                                          if trow.rel_residual is None
                                          else trow.rel_residual)
        matrices["factorize.charge"] = c
        matrices["factorize.theta"] = cand.theta
    psi0 = np.zeros(n)
    psi0[0] = 1.0
    traj = propagate_spectrum(s, psi0, np.linspace(0.0, 20.0, 200))
    traces = norm_trace_columns(traj, {"identity": np.eye(n),
                                       "theta": theta.theta})
    ident, weighted = traces["identity"], traces["theta"]
    rows["evolve.fnorm_ratio"] = ident.max() / ident.min()
    rows["evolve.theta_drift_rel"] = (np.abs(weighted - weighted[0]).max()
                                      / abs(weighted[0]))
    return rows, matrices, float(np.linalg.cond(s.right_vectors))


def as_array(value) -> np.ndarray:
    """A report value (a number, a list, or a nest of [re, im] pairs) as an
    array; complex values come back complex."""
    a = np.asarray(value, dtype=float)
    if a.ndim >= 2 and a.shape[-1] == 2:
        return a[..., 0] + 1j * a[..., 1]
    return a


@pytest.mark.parametrize("choice", ["parity", "identity"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_battery_rows_match_the_frame_of_h(name, choice):
    spec = parse_model(dict(MODELS[name], pseudometric=choice))
    analysis = models._Analysis(spec, {}, models.DEFAULT_TOL)
    assert analysis.rotated
    battery = {r.name: r for r in run_battery(spec).rows}
    ref, matrices, cond_v = library_rows(spec, choice)
    n = battery["spectrum.dim"].value
    h = model_h(spec)
    # an n-term sum carries n eps of roundoff, and the eigenvector
    # transformations amplify it by cond(V)
    tol = 8 * n * cond_v * EPS

    # both frames solve the same B: the eigenvalues agree bit for bit
    assert np.array_equal(as_array(battery["spectrum.eigenvalues"].value),
                          ref.pop("spectrum.eigenvalues"))
    assert battery["spectrum.min_gap"].value == ref.pop("spectrum.min_gap")
    theta_norm = np.linalg.norm(matrices["metric.theta"])
    for row, expected in ref.items():
        if choice == "identity" and row.startswith(("factorize", "table")):
            continue
        got = np.asarray(battery[row].value, dtype=float)
        scale = (np.linalg.norm(h) * theta_norm if row.endswith("_abs")
                 else max(1.0, float(np.abs(expected).max())))
        assert np.abs(got - expected).max() <= tol * scale, row
    if choice == "identity":
        # a PT-symmetric H that is not Hermitian has no identity charge
        assert battery["factorize.NotPTSymmetric"].passed is False
    assert all(r.passed is not False for r in battery.values()
               if not r.name.endswith("NotPTSymmetric"))

    # the matrix rows cross back to the frame of H, where they certify H
    if n > models.MATRIX_ROW_DIM_CAP:
        assert not any(row in battery for row in matrices)
        return
    for row, expected in matrices.items():
        got = as_array(battery[row].value)
        assert got.dtype == complex
        assert np.linalg.norm(got - expected) <= tol * np.linalg.norm(
            expected), row
    for row in ("metric.theta", "factorize.theta"):
        if row in matrices:
            theta = as_array(battery[row].value)
            resid = h.conj().T @ theta - theta @ h
            assert np.linalg.norm(resid) <= tol * np.linalg.norm(
                h) * np.linalg.norm(theta)
    if "factorize.charge" in matrices:
        c = as_array(battery["factorize.charge"].value)
        c2_dev = np.linalg.norm(c @ c - np.eye(n))
        assert c2_dev <= tol * np.linalg.norm(c) ** 2


def test_dense_pseudometric_is_not_rotated():
    # the parity matrix given as a dense P keeps the frame of H, and the
    # rows agree with the structured parity's, which are rotated
    n = 6
    doc = {"kind": "lattice", "n": n, "gamma": 0.3}
    dense = parse_model(dict(doc, pseudometric=matrix_data(parity_matrix(n))))
    structured = parse_model(dict(doc, pseudometric="parity"))
    a = models._Analysis(dense, {}, models.DEFAULT_TOL)
    assert not a.rotated
    assert a.op.matrix is dense.payload["h"]
    assert a.op.matrix.tobytes() == document_h(doc).tobytes()
    assert models._Analysis(structured, {}, models.DEFAULT_TOL).rotated
    rows_dense = run_battery(dense).rows
    rows_structured = run_battery(structured).rows
    assert [r.name for r in rows_dense] == [r.name for r in rows_structured]
    assert all(r.passed is not False for r in rows_dense)
    cond_v = np.linalg.cond(a.spectrum.right_vectors)
    for rd, rs in zip(rows_dense, rows_structured):
        if isinstance(rd.value, str):
            assert rd.value == rs.value
            continue
        assert rd.passed == rs.passed
        vd, vs = as_array(rd.value), as_array(rs.value)
        assert np.abs(vd - vs).max() <= 8 * n * cond_v * EPS * max(
            1.0, float(np.abs(vd).max())), rd.name


@pytest.mark.parametrize("psi0", [
    3, [[0.5, 0.0], [0.0, -1.0], [0.25, 0.25], 1.0, [0.0, 0.5], -0.75]],
    ids=["basis-index", "file-vector"])
def test_psi0_gives_the_evolve_rows_of_the_frame_of_h(psi0):
    # psi0 crosses to the real frame as S^dagger psi0; the norm traces and
    # every evolve row are those of the frame of H (a dense P keeps it)
    n = 6
    doc = {"kind": "lattice", "n": n, "gamma": 0.4}
    spec = parse_model(dict(doc, pseudometric="parity"))
    reference = parse_model(dict(doc,
                                 pseudometric=matrix_data(parity_matrix(n))))
    assert models._Analysis(spec, {}, models.DEFAULT_TOL).rotated
    opts = {"psi0": psi0, "steps": 50, "t_max": 10.0}
    rotated = run_scenario(spec, "evolve", opts)
    direct = run_scenario(reference, "evolve", opts)
    cond_v = np.linalg.cond(eigendecompose(model_h(spec)).right_vectors)
    tol = 8 * n * cond_v * EPS
    assert [r.name for r in rotated.rows] == [r.name for r in direct.rows]
    for rr, rd in zip(rotated.rows, direct.rows):
        assert rr.passed == rd.passed
        scale = max(1.0, abs(rd.value))
        assert abs(rr.value - rd.value) <= tol * scale, rr.name
    (_, series_r), (_, series_d) = rotated.series, direct.series
    for (name_r, vr), (name_d, vd) in zip(series_r, series_d):
        assert name_r == name_d
        assert np.abs(vr - vd).max() <= tol * np.abs(vd).max()


def test_real_input_stays_real():
    # the real form of a PT lattice is a real, parity-pseudo-Hermitian H
    b, rotated = real_form(np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
                           + np.diag(0.3j * (-1.0) ** np.arange(6)))
    assert rotated and b.dtype == float
    assert as_operator(b).dtype == float
    assert as_operator([[1, 2], [3, 4]]).dtype == float
    assert as_operator([[1j, 2], [3, 4]]).dtype == complex
    s = eigendecompose(b)
    assert s.right_vectors.dtype == float
    assert s.left_vectors.dtype == float
    theta = spectral_metric(s)
    assert theta.theta.dtype == float and theta.eigenvalues.dtype == float
    for p in (PseudoMetric.structured("parity", 6), parity_matrix(6)):
        c, cand = charge_from_spectrum(s, p)
        assert c.dtype == float and cand.theta.dtype == float
        assert np.abs(c @ c - np.eye(6)).max() <= 1e-12


def test_columns_keep_their_dtype_without_a_copy():
    real = np.eye(3)
    cplx = np.eye(3, dtype=complex)
    assert _as_columns(real) is real
    assert _as_columns(cplx) is cplx
    assert _as_columns([[1, 2], [3, 4]]).dtype == float
    mixed = [np.array([1.0, 2.0]), np.array([1j, 0])]
    assert _as_columns(mixed).dtype == complex


# odd imaginary and even real potentials: the real form needs the sampled
# V_imag exactly odd and V_real exactly even on the symmetric grid
ODD_POTENTIALS = ["0.1*x^3", "x^5", "sin(x)", "tanh(x)", "sinh(x)/10",
                  "tan(x/8)", "x*exp(-x^2)", "x*log(1+x^2)", "x^3*cos(x)"]
EVEN_POTENTIALS = ["x^2", "cos(x)", "cosh(x/4)", "exp(-x^2)", "log(1+x^2)",
                   "abs(x)^1.5"]


@pytest.mark.parametrize("n", [301, 401])
@pytest.mark.parametrize("v_real", EVEN_POTENTIALS)
@pytest.mark.parametrize("v_imag", ODD_POTENTIALS)
def test_pt_potentials_parse_to_the_real_form(v_imag, v_real, n):
    spec = parse_model({"kind": "schroedinger", "grid": {"L": 4, "N": n},
                        "V_real": v_real, "V_imag": v_imag})
    assert spec.payload["rotated"]
    assert spec.payload["h"].dtype == np.float64
