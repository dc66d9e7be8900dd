import re

import numpy as np
import pytest

from conftest import document_h
from quasiherm import (DimensionMismatch, NonFiniteResult, NonHermitianMetric,
                       Trajectory, eigendecompose, hermitize,
                       norm_trace_columns, norm_traces, propagate,
                       propagate_spectrum, qh_residual, spectral_metric,
                       standard_charge)


def closed_form_fnorm(times):
    """Eigenexpansion oracle for the unbroken model with psi0 = (1, 0):

    ||psi(t)||^2 = 1.5625 - 0.5625 cos(1.6 t) + 0.75 sin(1.6 t),

    assembled from the spectral projections of the characteristic
    polynomial (eigenvalues +-0.8, eigenvector overlap 0.36 - 0.48i).
    """
    return 1.5625 - 0.5625 * np.cos(1.6 * times) + 0.75 * np.sin(1.6 * times)


def test_propagate_phase_evolution():
    traj = propagate(np.diag([1.0, 2.0]), [1.0, 0.0], [0.0, np.pi])
    assert np.abs(traj.states[0] - np.array([1.0, 0.0])).max() <= 1e-12
    assert np.abs(traj.states[1] - np.array([-1.0, 0.0])).max() <= 1e-12


def test_propagate_zero_hamiltonian_constant():
    traj = propagate(np.zeros((3, 3)), [1.0, 2.0, 3.0], [0.0, 1.0, 5.0],
                     gap_floor=0.0)
    for state in traj.states:
        assert np.abs(state - np.array([1.0, 2.0, 3.0])).max() <= 1e-12


def test_propagate_initial_state_reproduced(model_h):
    rng = np.random.default_rng(0)
    psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    traj = propagate(model_h, psi0, [0.0, 0.5])
    assert np.abs(traj.states[0] - psi0).max() <= 1e-12


def test_propagate_model_period(model_h):
    # eigenvalue gap 1.6 sets the beat period 2 pi / 1.6
    period = 2.0 * np.pi / 1.6
    traj = propagate(model_h, [1.0, 0.0], [0.0, period])
    psi0, psi_t = traj.states
    overlap = abs(psi0.conj() @ psi_t)
    assert overlap == pytest.approx(np.linalg.norm(psi0) ** 2, abs=1e-12)
    assert np.linalg.norm(psi_t) == pytest.approx(np.linalg.norm(psi0),
                                                  abs=1e-12)


def test_propagate_validates_times(model_h):
    with pytest.raises(ValueError):
        propagate(model_h, [1.0, 0.0], [0.0, 1.0, 1.0])


def test_hermitian_identity_trace_constant():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = b + b.conj().T
    traj = propagate(h, rng.normal(size=4), np.linspace(0.0, 10.0, 50))
    vals = np.array([v for *_, v in norm_traces(traj, {"I": np.eye(4)})])
    assert np.abs(vals - vals[0]).max() <= 1e-10 * abs(vals[0])


def test_theta_trace_conserved_fnorm_not(model_h, parity2, golden_theta):
    _, cand = standard_charge(model_h, parity2)
    times = np.linspace(0.0, 20.0, 200)
    traj = propagate(model_h, [1.0, 0.0], times)
    rows = norm_traces(traj, {"identity": np.eye(2), "theta": cand.theta})
    theta_vals = np.array([v for _, n, v in rows if n == "theta"])
    ident_vals = np.array([v for _, n, v in rows if n == "identity"])
    # <psi0|Theta|psi0> = 1.25, conserved along the flow
    assert theta_vals[0] == pytest.approx(1.25, abs=1e-12)
    assert np.abs(theta_vals - theta_vals[0]).max() <= 1e-9 * theta_vals[0]
    # the unweighted norm oscillates; closed-form oracle point by point
    oracle = closed_form_fnorm(times)
    assert np.abs(ident_vals - oracle).max() <= 1e-12
    ratio = ident_vals.max() / ident_vals.min()
    assert ratio > 1.01
    # golden value frozen from the eigenexpansion oracle on this grid
    assert ratio == pytest.approx(3.9927047158525766, abs=1e-9)


def test_broken_phase_growth_rate(broken_h):
    times = np.linspace(0.0, 20.0, 200)
    traj = propagate(broken_h, [1.0, 0.0], times)
    vals = np.array([v for *_, v in norm_traces(traj, {"I": np.eye(2)})])
    # asymptotic rate 2 Im lambda = 2 sqrt(0.44)
    i1, i2 = 100, 199
    rate = np.log(vals[i2] / vals[i1]) / (times[i2] - times[i1])
    assert rate == pytest.approx(2.0 * np.sqrt(0.44), rel=0.01)


def test_hermitized_picture_agrees(model_h):
    s = eigendecompose(model_h)
    cand = spectral_metric(s)
    hm = hermitize(model_h, cand)
    assert qh_residual(hm, np.eye(2))[0] <= 1e-12
    times = np.linspace(0.0, 20.0, 120)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    # map the initial state with the positive square root of Theta
    w, u = np.linalg.eigh(cand.theta)
    psi0_h = (u * np.sqrt(w)) @ u.conj().T @ psi0
    vals_theta = np.array([v for *_, v in norm_traces(
        propagate(model_h, psi0, times), {"theta": cand.theta})])
    vals_plain = np.array([v for *_, v in norm_traces(
        propagate(hm, psi0_h, times), {"I": np.eye(2)})])
    assert np.abs(vals_theta - vals_plain).max() <= 1e-9 * abs(vals_theta[0])


def test_norm_traces_rejects_non_hermitian(model_h):
    traj = propagate(model_h, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(NonHermitianMetric):
        norm_traces(traj, {"bad": np.array([[0.0, 1.0], [0.0, 0.0]])})


@pytest.mark.parametrize("seed", range(6))
def test_theta_drift_on_random_certified_pairs(seed):
    from conftest import random_diagonalizable
    rng = np.random.default_rng(900 + seed)
    dim = 2 + seed
    h, _, _ = random_diagonalizable(rng, dim, cond_v=20.0)
    cand = spectral_metric(eigendecompose(h))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    traj = propagate(h, psi0, np.linspace(0.0, 20.0, 120))
    vals = np.array([v for *_, v in norm_traces(traj, {"t": cand.theta})])
    assert np.abs(vals - vals[0]).max() <= 1e-9 * abs(vals[0])


def test_propagate_spectrum_matches_propagate(model_h):
    times = np.linspace(0.0, 5.0, 11)
    direct = propagate(model_h, [1.0, 0.0], times)
    shared = propagate_spectrum(eigendecompose(model_h), [1.0, 0.0], times)
    assert direct.times.tobytes() == shared.times.tobytes()
    assert direct.states.tobytes() == shared.states.tobytes()
    with pytest.raises(ValueError):
        propagate_spectrum(eigendecompose(model_h), [1.0, 0.0], [1.0, 0.5])


def test_propagate_overflow_is_a_typed_error(recwarn):
    # exp(40 t) overflows a double beyond t ~ 17.7
    h = np.diag([40j, -40j])
    with pytest.raises(NonFiniteResult, match="t = 20"):
        propagate(h, [1.0, 1.0], np.linspace(0.0, 20.0, 5))
    assert len(recwarn) == 0


def test_norm_traces_overflow_is_a_typed_error(recwarn):
    traj = Trajectory(np.array([0.0, 1.0]),
                      np.array([[1.0, 0.0], [1e200, 1e200]], dtype=complex))
    with pytest.raises(NonFiniteResult, match="'I'"):
        norm_traces(traj, {"I": np.eye(2)})
    assert len(recwarn) == 0


def per_step_traces(traj, metrics):
    """The per-step definition of norm_traces: one mat-vec per time and
    metric, time-major, checked as it goes."""
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, psi in zip(traj.times, traj.states):
            for name, m in metrics.items():
                val = complex(psi.conj() @ (m @ psi))
                if not np.isfinite(val):
                    raise NonFiniteResult(
                        f"trace under {name!r} is not finite at t = {t:.9g}")
                if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
                    raise NonHermitianMetric(
                        f"trace under {name!r} acquired imaginary part "
                        f"{val.imag:.3e}; metric is not Hermitian enough")
                rows.append((float(t), name, val.real))
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_batched_traces_match_the_per_step_loop(seed):
    from conftest import random_diagonalizable
    rng = np.random.default_rng(40 + seed)
    dim = 3 + 2 * seed
    h, _, _ = random_diagonalizable(rng, dim, cond_v=10.0)
    cand = spectral_metric(eigendecompose(h))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    traj = propagate(h, psi0, np.linspace(0.0, 5.0, 37))
    metrics = {"identity": np.eye(dim, dtype=complex), "theta": cand.theta}
    rows = norm_traces(traj, metrics)
    expected = per_step_traces(traj, metrics)
    assert [r[:2] for r in rows] == [r[:2] for r in expected]
    # each trace is one inner product of length dim: a few ulps of
    # sum |psi_i| |(M psi)_i|
    eps = np.finfo(float).eps
    for (t, name, val), (_, _, ref) in zip(rows, expected):
        psi = traj.states[list(traj.times).index(t)]
        scale = np.abs(psi) @ (np.abs(metrics[name]) @ np.abs(psi))
        assert abs(val - ref) <= 4 * dim * eps * scale
    columns = norm_trace_columns(traj, metrics)
    assert list(columns) == ["identity", "theta"]
    assert columns["theta"].tolist() == [v for _, n, v in rows if n == "theta"]


M_SMALL = np.diag([1e-200, 1.0, 1.0, 0.0]).astype(complex)
M_COUPLED = np.array([[1, 2j, 0, 0], [-2j, 3, 1, 0], [0, 1, -1, 0],
                      [0, 0, 0, 0]], dtype=complex)


def overflow_trajectory() -> Trajectory:
    """At t = 1 the identity and M_COUPLED overflow while M_SMALL does
    not; at t = 2 every metric overflows."""
    return Trajectory(np.arange(3.0), np.array(
        [[1.0, 0.5, 0.0, 0.0], [1e155, 1e-10, 0.0, 0.0],
         [1e300, 1e300, 0.0, 0.0]], dtype=complex))


def raises_imaginary(traces, traj, metrics) -> bool:
    try:
        traces(traj, metrics)
    except NonHermitianMetric:
        return True
    except NonFiniteResult:
        return False
    return False


def imaginary_trajectory(rng) -> tuple[Trajectory, np.ndarray]:
    """A Hermitian M, zero in the last row and column, and three states:
    at t = 1 the trace under M is pure roundoff, its imaginary part as
    large as its real part, and the identity overflows through the last
    component; at t = 2 every metric overflows.  Roundoff can also cancel
    exactly, in either computation, so draws repeat until both the
    per-step and the batched trace keep the imaginary part."""
    for _ in range(200):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = a + a.conj().T
        psi = 1e8 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        shift = (psi.conj() @ a @ psi).real / (psi.conj() @ psi).real
        m = np.zeros((4, 4), dtype=complex)
        m[:3, :3] = a - shift * np.eye(3)
        traj = Trajectory(np.arange(3.0), np.array(
            [[1.0, 0.5, 0.0, 0.0], [*psi, 1e155], [1e300, 1e300, 0.0, 0.0]],
            dtype=complex))
        if all(raises_imaginary(traces, traj, {"cancel": m})
               for traces in (per_step_traces, norm_traces)):
            return traj, m
    raise AssertionError("no draw kept an imaginary trace in both")


@pytest.mark.parametrize("case,error,name", [
    ("overflow-second", NonFiniteResult, "plain"),
    ("both-overflow", NonFiniteResult, "plain"),
    ("imaginary-second", NonHermitianMetric, "cancel"),
    ("imaginary-before-overflow", NonHermitianMetric, "cancel"),
])
def test_batched_traces_raise_the_first_offender(case, error, name):
    if case.startswith("imaginary"):
        traj, m_cancel = imaginary_trajectory(np.random.default_rng(5))
    else:
        traj, m_cancel = overflow_trajectory(), M_COUPLED
    metrics = {
        "overflow-second": {"small": M_SMALL, "plain": np.eye(4)},
        "both-overflow": {"plain": np.eye(4), "cancel": m_cancel},
        "imaginary-second": {"small": M_SMALL, "cancel": m_cancel},
        "imaginary-before-overflow": {"cancel": m_cancel, "plain": np.eye(4)},
    }[case]
    with pytest.raises(error, match=f"^trace under {name!r}") as expected:
        per_step_traces(traj, metrics)
    with pytest.raises(error, match="^" + re.escape(str(expected.value))
                       + "$"):
        norm_traces(traj, metrics)


def test_wrong_size_metric_is_a_dimension_mismatch():
    traj = Trajectory(np.arange(3.0), np.ones((3, 2), dtype=complex))
    message = "^metric 'm' has wrong dimension for the trajectory$"
    for traces in (norm_trace_columns, norm_traces):
        with pytest.raises(DimensionMismatch, match=message):
            traces(traj, {"I": np.eye(2), "m": np.eye(3)})


def test_identity_trace_equals_the_product_bit_for_bit():
    rng = np.random.default_rng(7)
    states = rng.normal(size=(50, 6)) + 1j * rng.normal(size=(50, 6))
    traj = Trajectory(np.arange(50.0), states)
    product = np.einsum("ti,ti->t", states.conj(), states @ np.eye(6).T).real
    traces = norm_trace_columns(traj, {"I": np.eye(6, dtype=complex)})
    assert traces["I"].tobytes() == product.tobytes()


@pytest.mark.parametrize("metric", [
    np.diag([1.0, 1.0, 1.5]),
    np.eye(3) + np.diag([0.25, 0.25], 1) + np.diag([0.25, 0.25], -1),
], ids=["diagonal", "tridiagonal"])
def test_near_identity_metric_takes_the_product(metric):
    rng = np.random.default_rng(8)
    states = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    traj = Trajectory(np.arange(20.0), states)
    product = np.einsum("ti,ti->t", states.conj(), states @ metric.T).real
    traces = norm_trace_columns(traj, {"M": metric})
    assert traces["M"].tobytes() == product.tobytes()
    assert not np.array_equal(traces["M"], np.sum(np.abs(states) ** 2, 1))


def _pt_lattice(n, gamma):
    return document_h({"kind": "lattice", "n": n, "gamma": gamma,
                       "pattern": "endpoints"})


def _pt_dimer(gamma):
    return np.array([[1j * gamma, 1.0], [1.0, -1j * gamma]])


@pytest.mark.parametrize("h", [
    _pt_lattice(8, 0.3), _pt_lattice(50, 0.2), _pt_dimer(0.5),
    _pt_dimer(0.99), _pt_dimer(0.9999),
], ids=["lattice-8", "lattice-50", "dimer-0.5", "dimer-0.99", "dimer-0.9999"])
def test_eigenexpansion_matches_the_propagator(h):
    # exp(-iHt) psi0 by Pade scaling and squaring, which shares no code
    # path with the eigenexpansion and does not depend on cond(V); the
    # expansion may lose cond(V) eps per unit of t ||H||
    expm = pytest.importorskip("scipy.linalg").expm
    n = len(h)
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    times = np.linspace(0.0, 20.0, 41)
    s = eigendecompose(h)
    traj = propagate_spectrum(s, psi0, times)
    theta = spectral_metric(s).theta
    traces = norm_trace_columns(traj, {"identity": None, "theta": theta})
    cond_v = np.linalg.cond(s.right_vectors)
    norm_h = np.linalg.norm(h, 2)
    for k, t in enumerate(times):
        exact = expm(-1j * t * h) @ psi0
        bound = 10 * np.sqrt(n) * cond_v * np.finfo(float).eps * (
            1 + t * norm_h)
        assert np.linalg.norm(traj.states[k] - exact) <= bound
        for name, value in (("identity", np.vdot(exact, exact).real),
                            ("theta", np.vdot(exact, theta @ exact).real)):
            assert abs(traces[name][k] - value) <= bound * value, (name, t)
