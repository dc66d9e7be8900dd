"""Time evolution generated by a diagonalizable Hamiltonian.

Propagation goes through the biorthogonal eigenexpansion rather than time
stepping, so unitarity violations in any monitored inner product come
from the operator itself, not from integrator error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult, NonHermitianMetric
from .operators import as_state, checked_operator, hermitian_part
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
    op = checked_operator(h)
    v0 = as_state(psi0, op.shape[0])
    ts = _check_times(times)
    return _expand(eigendecompose(op, gap_floor), v0, ts)


def propagate_spectrum(s: SpectralData, psi0, times) -> Trajectory:
    """Same as ``propagate``, from an existing eigendecomposition of H."""
    return _expand(s, as_state(psi0, s.dim), _check_times(times))


def _expand(s: SpectralData, v0: np.ndarray, ts: np.ndarray) -> Trajectory:
    amps = s.left_vectors.conj().T @ v0
    # a broken phase may overflow exp(-i lambda t); checked right below
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * np.outer(ts, s.eigenvalues))
        phases *= amps
        states = phases @ s.right_vectors.T
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        t_bad = float(ts[np.argmin(finite)])
        raise NonFiniteResult(
            f"propagated state is not finite at t = {t_bad:.9g}")
    return Trajectory(ts.copy(), states)


def _is_identity(m: np.ndarray | None) -> bool:
    """Whether ``m`` is None or the identity matrix, entry for entry."""
    return m is None or (np.count_nonzero(m) == len(m)
                         and bool((m.diagonal() == 1).all()))


def norm_trace_columns(traj: Trajectory,
                       metrics: Mapping[str, np.ndarray | None]
                       ) -> dict[str, np.ndarray]:
    """<psi(t)|M|psi(t)> at every time of the trajectory, per metric name.

    Each metric must be Hermitian; the traces are then real up to
    roundoff, which is verified before the imaginary parts are dropped.
    A metric given as None is the identity.  Each metric costs one
    (T x N)(N x N) product; the identity none.  The first offending
    (time, metric) pair, in time-major order, raises: NonFiniteResult for
    a trace that overflows, NonHermitianMetric for one with an imaginary
    part.
    """
    checked = {}
    for name, m in metrics.items():
        if m is not None:
            m = hermitian_part(m)
            if m.shape[0] != traj.dim:
                raise DimensionMismatch(
                    f"metric {name!r} has wrong dimension for the trajectory")
        checked[name] = m
    return _norm_trace_columns(traj, checked)


def _norm_trace_columns(traj: Trajectory,
                        checked: Mapping[str, np.ndarray | None]
                        ) -> dict[str, np.ndarray]:
    """``norm_trace_columns`` of metrics that are already symmetrized, of
    the trajectory's dimension, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        traces = {}
        for name, m in checked.items():
            # the product before the conjugate states, so that they are not
            # held together with the product's cast of a real M
            m_psi = traj.states if _is_identity(m) else traj.states @ m.T
            traces[name] = np.einsum("ti,ti->t", traj.states.conj(), m_psi)
        finite = {name: np.isfinite(v) for name, v in traces.items()}
        real = {name: np.abs(v.imag)
                <= TRACE_IMAG_RTOL * np.maximum(1.0, np.abs(v.real))
                for name, v in traces.items()}
    bad = np.array([~(finite[name] & real[name]) for name in traces])
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        name = list(traces)[int(np.argmax(bad[:, k]))]
        t = traj.times[k]
        if not finite[name][k]:
            raise NonFiniteResult(
                f"trace under {name!r} is not finite at t = {t:.9g}")
        # the roundoff reported is that of the one offending trace alone
        psi = traj.states[k]
        m = checked[name]
        imag = complex(psi.conj() @ (psi if m is None else m @ psi)).imag
        raise NonHermitianMetric(
            f"trace under {name!r} acquired imaginary part {imag:.3e}; "
            f"metric is not Hermitian enough")
    return {name: v.real for name, v in traces.items()}


def norm_traces(traj: Trajectory, metrics: Mapping[str, np.ndarray | None]
                ) -> list[tuple[float, str, float]]:
    """Table of (time, metric name, <psi(t)|M|psi(t)>) rows, time-major;
    the values and errors of ``norm_trace_columns``."""
    columns = [(name, v.tolist())
               for name, v in norm_trace_columns(traj, metrics).items()]
    return [(t, name, values[j]) for j, t in enumerate(traj.times.tolist())
            for name, values in columns]
