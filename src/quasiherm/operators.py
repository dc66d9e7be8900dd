"""Dense operator algebra and metric-weighted Hermitian conjugations.

All values live in a fixed working basis (the standard coordinate basis),
which pins down the antilinear time reversal as plain entrywise
conjugation.  Every function is pure and never mutates its arguments.
One aliasing rule holds: ``as_operator`` hands back an ndarray argument
of its dtype as it is, so that a check costs no copy, and every other
function returns a fresh array, never a view of an argument;
``hermitian_part`` too, for a metric that is already exactly Hermitian.
The operator functions take H as an array or as a ``CheckedOperator``,
which holds it checked, with its norm and bands each taken once
(``checked_operator``).
Products with a Hamiltonian go through its three bands when it is
tridiagonal, in O(N^2) instead of an N^3 matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, NonFiniteResult, NonHermitianMetric,
                     SingularMetric)

# Relative Frobenius drift accepted before a metric is rejected as
# non-Hermitian; accepted metrics are symmetrized to remove roundoff.
METRIC_HERMITICITY_RTOL = 1e-12

# Condition-number cap for metric inversion; beyond it the weighted
# adjoint would be numerically meaningless.
METRIC_CONDITION_CAP = 1e12


def as_operator(a) -> np.ndarray:
    """Coerce to a finite square float or complex matrix, as the input is
    real or complex; an ndarray of that dtype is returned itself, not
    copied."""
    m = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    return m


def as_state(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite complex vector, optionally of fixed dimension."""
    w = np.array(v, dtype=complex).ravel()
    if w.size < 1:
        raise DimensionMismatch("state vector must not be empty")
    if dim is not None and w.size != dim:
        raise DimensionMismatch(f"state has dimension {w.size}, expected {dim}")
    if not np.isfinite(w).all():
        raise ValueError("state entries must be finite")
    return w


def adjoint(a) -> np.ndarray:
    """Conjugate transpose in the working basis."""
    return np.conj(as_operator(a)).T


def time_reversal(a) -> np.ndarray:
    """Entrywise complex conjugation; an involution, basis-dependent by
    construction."""
    return np.conj(as_operator(a))


def hermitian_part(m) -> np.ndarray:
    """Validate Hermiticity of a metric and return its symmetrized form
    (M + M^dagger)/2, a fresh C-ordered array; NonFiniteResult for an M
    whose squared Frobenius norm is not finite."""
    mm = as_operator(m)
    with np.errstate(over="ignore"):
        scale = max(np.linalg.norm(mm), np.finfo(float).tiny)
    if scale == np.inf:  # every residual relative to M would read 0
        raise NonFiniteResult(
            "the squared Frobenius norm of the metric is not finite")
    diff = mm - mm.conj().T
    drift = np.linalg.norm(diff)
    if drift > METRIC_HERMITICITY_RTOL * scale:
        raise NonHermitianMetric(
            f"metric deviates from Hermiticity by {drift:.3e} "
            f"(relative cap {METRIC_HERMITICITY_RTOL:g})"
        )
    # 0.5 * (mm + mm^dagger), in the buffer of the difference
    np.add(mm, mm.conj().T, out=diff)
    diff *= 0.5
    return diff


def adjoint_wrt(a, m) -> np.ndarray:
    """Hermitian conjugate of ``a`` in the inner product weighted by ``m``.

    Returns M^-1 A^dagger M.  Reduces to the plain adjoint for M = I and is
    an involution for any admissible metric.
    """
    aa = as_operator(a)
    mm = hermitian_part(m)
    if aa.shape != mm.shape:
        raise DimensionMismatch(
            f"operator {aa.shape} incompatible with metric {mm.shape}")
    w = np.abs(np.linalg.eigvalsh(mm))
    if w.min() == 0.0 or w.max() / w.min() > METRIC_CONDITION_CAP:
        raise SingularMetric(
            f"metric condition number exceeds cap {METRIC_CONDITION_CAP:g}")
    return np.linalg.solve(mm, aa.conj().T @ mm)


def inner(m, v1, v2) -> complex:
    """Metric-weighted inner product v1^dagger M v2 (antilinear in v1)."""
    mm = as_operator(m)
    a = as_state(v1, mm.shape[0])
    b = as_state(v2, mm.shape[0])
    return complex(a.conj() @ (mm @ b))


def parity_matrix(n: int) -> np.ndarray:
    """Index-reversal permutation matrix: Hermitian, real, involutory."""
    if int(n) != n or n < 1:
        raise DimensionMismatch("parity needs a positive integer dimension")
    return np.fliplr(np.eye(int(n))).copy()


@dataclass(frozen=True, eq=False)
class CheckedOperator:
    """A square finite matrix, as ``as_operator`` gives it, with its
    Frobenius ``norm`` and its ``_tridiagonal_bands`` (None for a matrix
    that is not tridiagonal), each taken on first use and kept.
    ``np.shape`` of a record is the shape of its matrix."""

    matrix: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @cached_property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    @cached_property
    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        return _tridiagonal_bands(self.matrix)


def checked_operator(a) -> CheckedOperator:
    """The record of ``as_operator(a)``, which raises what it raises; a
    CheckedOperator passes through unchanged."""
    if isinstance(a, CheckedOperator):
        return a
    return CheckedOperator(as_operator(a))


def _tridiagonal_bands(a: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(lower, diag, upper) of a square matrix whose nonzero entries all lie
    on its three central diagonals, lower[k] = A[k+1, k]; None otherwise."""
    bands = (np.diagonal(a, -1), np.diagonal(a), np.diagonal(a, 1))
    if np.count_nonzero(a) != sum(np.count_nonzero(b) for b in bands):
        return None
    return bands


def _tridiagonal_times(bands, x: np.ndarray) -> np.ndarray:
    """T X for the tridiagonal T with (lower, diag, upper) ``bands``."""
    lower, diag, upper = bands
    out = diag[:, None] * x
    out[1:] += lower[:, None] * x[:-1]
    out[:-1] += upper[:, None] * x[1:]
    return out


def adjoint_product(h, x: np.ndarray) -> np.ndarray:
    """H^dagger X for a square H (a CheckedOperator, or a matrix taken as
    it is, unchecked); through the bands of a tridiagonal H, otherwise the
    dense product."""
    op = h if isinstance(h, CheckedOperator) else CheckedOperator(h)
    if op.bands is None:
        return op.matrix.conj().T @ x
    lower, diag, upper = op.bands
    return _tridiagonal_times((upper.conj(), diag.conj(), lower.conj()), x)


def right_product(x: np.ndarray, h) -> np.ndarray:
    """X H for a square H, as ``adjoint_product`` takes it; through the
    bands of a tridiagonal H, otherwise the dense product."""
    op = h if isinstance(h, CheckedOperator) else CheckedOperator(h)
    if op.bands is None:
        return x @ op.matrix
    lower, diag, upper = op.bands
    # X H = (H^T X^T)^T, and H^T has the bands of H swapped
    return _tridiagonal_times((upper, diag, lower), x.T).T
