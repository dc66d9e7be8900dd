"""Time evolution generated by a diagonalizable Hamiltonian.

Propagation goes through the biorthogonal eigenexpansion rather than time
stepping, so unitarity violations in any monitored inner product come
from the operator itself, not from integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NonFiniteResult, NonHermitianMetric
from .operators import as_operator, as_state, require_metric
from .spectral import SpectralData, eigendecompose

TRACE_IMAG_RTOL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """States psi(t) row by row over an increasing time sequence."""

    times: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])


def _check_times(times) -> np.ndarray:
    ts = np.asarray(times, dtype=float).ravel()
    if ts.size < 1:
        raise ValueError("need at least one time sample")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("times must be strictly increasing")
    return ts


def propagate(h, psi0, times, *, gap_floor: float | None = None) -> Trajectory:
    """psi(t) = sum_n exp(-i lambda_n t) |psi_n> <phi_n|psi0>."""
    hh = as_operator(h)
    v0 = as_state(psi0, hh.shape[0])
    ts = _check_times(times)
    return _expand(eigendecompose(hh, gap_floor), v0, ts)


def propagate_spectrum(s: SpectralData, psi0, times) -> Trajectory:
    """Same as ``propagate``, from an existing eigendecomposition of H."""
    return _expand(s, as_state(psi0, s.dim), _check_times(times))


def _expand(s: SpectralData, v0: np.ndarray, ts: np.ndarray) -> Trajectory:
    amps = s.left_vectors.conj().T @ v0
    # a broken phase may overflow exp(-i lambda t); checked right below
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * np.outer(ts, s.eigenvalues))
        states = (phases * amps) @ s.right_vectors.T
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        t_bad = float(ts[np.argmin(finite)])
        raise NonFiniteResult(
            f"propagated state is not finite at t = {t_bad:.9g}")
    return Trajectory(ts.copy(), states)


def norm_traces(traj: Trajectory, metrics: Mapping[str, np.ndarray]
                ) -> list[tuple[float, str, float]]:
    """Table of (time, metric name, <psi(t)|M|psi(t)>) rows.

    Each metric must be Hermitian; the traces are then real up to
    roundoff, which is verified before the imaginary parts are dropped.
    A trace that overflows raises NonFiniteResult.
    """
    rows: list[tuple[float, str, float]] = []
    checked = {}
    for name, m in metrics.items():
        checked[name] = require_metric(m)
        if checked[name].shape[0] != traj.dim:
            raise NonHermitianMetric(
                f"metric {name!r} has wrong dimension for the trajectory")
    with np.errstate(over="ignore", invalid="ignore"):
        for t, psi in zip(traj.times, traj.states):
            for name, m in checked.items():
                val = complex(psi.conj() @ (m @ psi))
                if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                    raise NonFiniteResult(
                        f"trace under {name!r} is not finite at t = {t:.9g}")
                if abs(val.imag) > TRACE_IMAG_RTOL * max(1.0, abs(val.real)):
                    raise NonHermitianMetric(
                        f"trace under {name!r} acquired imaginary part "
                        f"{val.imag:.3e}; metric is not Hermitian enough")
                rows.append((float(t), name, val.real))
    return rows
