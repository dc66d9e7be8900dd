"""Time evolution generated by a diagonalizable Hamiltonian.

Propagation goes through the biorthogonal eigenexpansion rather than time
stepping, so unitarity violations in any monitored inner product come
from the operator itself, not from integrator error.  Trajectories and
norm traces are fresh arrays, never views of an argument; a norm trace
under the identity is asked for as None, the one metric that costs no
product with the states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult, NonHermitianMetric
from .metrics import MetricCandidate
from .operators import as_state, hermitian_part
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


def propagate(h, psi0, times, *, gap_floor: float | None = None) -> Trajectory:
    """psi(t) = sum_n exp(-i lambda_n t) |psi_n> <phi_n|psi0>."""
    return propagate_spectrum(eigendecompose(h, gap_floor), psi0, times)


def propagate_spectrum(s: SpectralData, psi0, times) -> Trajectory:
    """Same as ``propagate``, from an existing eigendecomposition of H."""
    v0 = as_state(psi0, s.dim)
    ts = np.asarray(times, dtype=float).ravel()
    if ts.size < 1:
        raise ValueError("need at least one time sample")
    # compared as views: np.diff would hold a float copy of the times
    if (ts[1:] <= ts[:-1]).any():
        raise ValueError("times must be strictly increasing")
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


def norm_trace_columns(traj: Trajectory,
                       metrics: Mapping[str, MetricCandidate | np.ndarray | None]
                       ) -> dict[str, np.ndarray]:
    """<psi(t)|M|psi(t)> at every time of the trajectory, per metric name.

    Each metric must be Hermitian: a MetricCandidate is taken as checked,
    and a matrix is checked by ``hermitian_part``.  The traces are then
    real up to roundoff, which is verified before the imaginary parts are
    dropped.  A metric given as None is the identity, and costs no
    product; every other metric, an identity matrix too, costs one
    (T x N)(N x N) product.  The first offending (time, metric) pair, in
    time-major order, raises: NonFiniteResult for a trace that overflows,
    NonHermitianMetric for one with an imaginary part.
    """
    checked = {}
    for name, m in metrics.items():
        if m is not None:
            m = m.theta if isinstance(m, MetricCandidate) else hermitian_part(m)
            if m.shape[0] != traj.dim:
                raise DimensionMismatch(
                    f"metric {name!r} has wrong dimension for the trajectory")
        checked[name] = m
    with np.errstate(over="ignore", invalid="ignore"):
        traces = {}
        for name, m in checked.items():
            # the product before the conjugate states, so that they are not
            # held together with the product's cast of a real M
            m_psi = traj.states if m is None else traj.states @ m.T
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
