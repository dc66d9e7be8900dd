"""What the operator layers return, and how much memory a task holds.

The no-aliasing test pins the promise of the ``operators`` docstring:
``as_operator`` does not copy an ndarray of its dtype, so every public
function that returns or keeps an argument must copy it, and no function
mutates an argument.  The memory test bounds the traced peak of each task
after the eigensolve, in units of one float64 N x N array.
"""

import tracemalloc

import numpy as np
import pytest

from quasiherm import (PseudoMetric, Trajectory, adjoint, as_pseudometric,
                       certify_metric, charge_from_metric, eigendecompose,
                       make_triple, norm_trace_columns, parse_model,
                       propagate, propagate_spectrum, spectral_metric,
                       standard_charge, time_reversal)
from quasiherm import models
from quasiherm.operators import hermitian_part

RNG = np.random.default_rng(7)
REAL = RNG.normal(size=(4, 4))
COMPLEX = REAL + 1j * RNG.normal(size=(4, 4))
# exactly Hermitian, with no -0.0 entry: hermitian_part keeps their values
SYMMETRIC = REAL + REAL.T + 8 * np.eye(4)
HERMITIAN = COMPLEX + COMPLEX.conj().T + 8 * np.eye(4)
DENSE_P = np.diag([1.0, 2.0, -1.5, 3.0])


def _call_keeps_arguments(fn, *args):
    """fn(*args), and the array arguments bit for bit as they were."""
    before = [(a.dtype, a.shape, a.tobytes()) for a in args
              if isinstance(a, np.ndarray)]
    out = fn(*args)
    after = [(a.dtype, a.shape, a.tobytes()) for a in args
             if isinstance(a, np.ndarray)]
    assert after == before, f"{fn.__name__} changed an argument"
    return out


def _assert_unaliased(outs, args):
    for out in outs:
        for arg in args:
            if isinstance(arg, np.ndarray):
                assert not np.shares_memory(out, arg)


@pytest.mark.parametrize("a", [REAL, COMPLEX, SYMMETRIC, HERMITIAN],
                         ids=["real", "complex", "symmetric", "hermitian"])
def test_conjugations_return_fresh_arrays(a):
    for fn in (adjoint, time_reversal):
        out = _call_keeps_arguments(fn, a)
        _assert_unaliased([out], [a])


@pytest.mark.parametrize("m", [
    SYMMETRIC, HERMITIAN, SYMMETRIC + 1e-14 * REAL,
], ids=["symmetric", "hermitian", "near-symmetric"])
def test_metric_validation_returns_fresh_arrays(m):
    # an exactly Hermitian metric too is returned as a new array, which
    # keeps its values bit for bit
    out = _call_keeps_arguments(hermitian_part, m)
    _assert_unaliased([out], [m])
    if np.array_equal(m, m.conj().T):
        assert out.tobytes() == m.tobytes()
    cand = _call_keeps_arguments(certify_metric, m)
    _assert_unaliased([cand.theta], [m])
    pm = _call_keeps_arguments(as_pseudometric, m)
    _assert_unaliased([pm.entries, pm.matrix], [m])


@pytest.mark.parametrize("p", [
    DENSE_P, PseudoMetric.structured("parity", 4),
], ids=["dense", "parity"])
def test_factorization_returns_fresh_arrays(p):
    pm = as_pseudometric(p)
    charge = pm.inverse_apply(SYMMETRIC).copy()
    triple = _call_keeps_arguments(make_triple, p, charge)
    _assert_unaliased([triple.C, triple.Theta], [p, charge])
    if pm.kind == "dense":
        _assert_unaliased([triple.P.entries], [p])
    out = _call_keeps_arguments(charge_from_metric, SYMMETRIC, p)
    _assert_unaliased([out], [SYMMETRIC, p])
    h = np.array([[0.5j, 1.0], [1.0, -0.5j]])
    p2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    c, cand = _call_keeps_arguments(standard_charge, h, p2)
    _assert_unaliased([c, cand.theta], [h, p2])


def test_evolution_returns_fresh_arrays():
    h = np.array([[0.5j, 1.0], [1.0, -0.5j]])
    psi0 = np.array([1.0, 0.5j])
    times = np.linspace(0.0, 2.0, 5)
    traj = _call_keeps_arguments(propagate, h, psi0, times)
    _assert_unaliased([traj.times, traj.states], [h, psi0, times])
    theta = spectral_metric(eigendecompose(h)).theta
    identity = np.eye(2)

    def traces_of(ts, states, th, i):
        return norm_trace_columns(Trajectory(ts, states),
                                  {"theta": th, "I": i, "none": None})

    traces = _call_keeps_arguments(traces_of, traj.times, traj.states,
                                   theta, identity)
    _assert_unaliased(traces.values(),
                      [theta, identity, traj.times, traj.states])
    assert traces["I"].tobytes() == traces["none"].tobytes()
    assert traj.states.tobytes() == propagate_spectrum(
        eigendecompose(h), psi0, times).states.tobytes()


# the traced peak of each task after the eigensolve, counting what the
# run holds (the frame of H, its eigenvectors, the parsed model), in float64
# N x N arrays; evolve also holds its 200 x N complex trajectory.  The
# copies numpy makes for LAPACK are not traced.  The complex spectrum of
# the broken alternating lattice makes its eigenvectors, and so its
# budgets, larger; its metric, factorize and table tasks end in one
# BrokenPhase row.
TASK_BUDGET = {"metric": 6, "factorize": 6, "table": 6, "evolve": 9}
BROKEN_BUDGET = {"metric": 5, "factorize": 7, "table": 7, "evolve": 11}
BUDGET_SLACK = 0.25
BUDGET_MODELS = {
    "pt-lattice": {"kind": "lattice", "n": 301, "gamma": 0.3,
                   "pattern": "endpoints"},
    "alternating-lattice": {"kind": "lattice", "n": 300, "gamma": 0.1,
                            "pattern": "alternating"},
    "harmonic": {"kind": "schroedinger", "grid": {"L": 8, "N": 301},
                 "V_real": "x^2"},
    "pt-schroedinger": {"kind": "schroedinger", "grid": {"L": 2, "N": 301},
                        "V_imag": "0.1*x^3"},
}
BROKEN_MODELS = {"alternating-lattice"}


@pytest.mark.parametrize("task", sorted(TASK_BUDGET))
@pytest.mark.parametrize("model", sorted(BUDGET_MODELS))
def test_task_memory_after_the_eigensolve(model, task):
    tracemalloc.start()
    try:
        spec = parse_model(BUDGET_MODELS[model])
        analysis = models._Analysis(spec, {}, models.DEFAULT_TOL)
        dim = analysis.spectrum.dim
        tracemalloc.reset_peak()
        rows, _ = models._run_task(analysis, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failed = [r.name for r in rows if r.passed is False]
    broken = model in BROKEN_MODELS
    assert failed == (["BrokenPhase"] if broken and task != "evolve" else [])
    arrays = peak / (8 * dim * dim)
    budget = (BROKEN_BUDGET if broken else TASK_BUDGET)[task]
    assert arrays <= budget + BUDGET_SLACK, \
        f"{model} {task} peaks at {arrays:.2f} N^2 float64"


@pytest.mark.parametrize("model", ["pt-lattice", "alternating-lattice",
                                   "pt-schroedinger"])
def test_rotated_model_keeps_no_complex_h(model):
    # the parsed model holds the real form B, and not the complex H beside it
    spec = parse_model(BUDGET_MODELS[model])
    dim = spec.payload["h"].shape[0]
    assert spec.payload["rotated"]
    assert not any(isinstance(v, np.ndarray) and v.shape == (dim, dim)
                   and np.iscomplexobj(v) for v in spec.payload.values())
    assert spec.payload["h"].dtype == np.float64
    assert spec.payload["pseudometric"].entries is None
