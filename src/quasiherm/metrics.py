"""Construction and certification of positive-definite metric operators.

A metric for H solves the intertwining relation H^dagger Theta = Theta H;
the whole solution family is spanned by strictly positive weights on the
left-eigenvector dyads.  The Hermitizing similarity map and the
observability residual live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonPositiveWeight, NotPositive
from .operators import (adjoint_product, as_operator, checked_operator,
                        hermitian_part, right_product)
from .spectral import DEFAULT_REALITY_TOL, SpectralData, require_real_spectrum

# positive means min_eig > floor * max_eig: scale-invariant certificate
POSITIVITY_FLOOR_FACTOR = 1e-12


@dataclass(frozen=True)
class MetricCandidate:
    """A checked metric, Theta as ``hermitian_part`` gives it, whose ascending
    eigenvalues (the positivity certificate) are taken on first read."""

    theta: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.theta)

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eig(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def positive(self) -> bool:
        return bool(self.min_eig > POSITIVITY_FLOOR_FACTOR * self.max_eig)

    @property
    def condition(self) -> float:
        if self.min_eig <= 0:
            return float("inf")
        return self.max_eig / self.min_eig


def qh_residual(h, theta) -> tuple[float, float]:
    """Absolute and relative Frobenius residual of H^dagger Theta - Theta H,
    for H a CheckedOperator or a matrix; the products go through the bands
    of a tridiagonal H."""
    op = checked_operator(h)
    tt = as_operator(theta)
    if op.shape != tt.shape:
        raise DimensionMismatch(
            f"operator {op.shape} incompatible with metric {tt.shape}")
    return frobenius_deviation(adjoint_product(op, tt), right_product(tt, op),
                               op.norm * float(np.linalg.norm(tt)))


def frobenius_residual(resid: np.ndarray, denom: float) -> tuple[float, float]:
    """Frobenius norm of ``resid`` and its ratio to ``denom``; a zero
    denominator gives 0 for a zero residual and inf otherwise."""
    abs_res = float(np.linalg.norm(resid))
    if denom == 0.0:
        return abs_res, 0.0 if abs_res == 0.0 else float("inf")
    return abs_res, abs_res / denom


def frobenius_deviation(x: np.ndarray, y: np.ndarray, denom: float
                        ) -> tuple[float, float]:
    """``frobenius_residual`` of X - Y, computed in the buffer of X."""
    x -= y
    return frobenius_residual(x, denom)


def observability_check(a, theta) -> tuple[float, float]:
    """Residual of A^dagger Theta - Theta A for a candidate observable A.

    Vanishes exactly when A is self-adjoint in the Theta-weighted inner
    product; same algebra as qh_residual, different role.
    """
    return qh_residual(a, theta)


def positivity_certificate(m) -> tuple[float, bool]:
    """Minimum eigenvalue and a scale-invariant positive-definiteness flag."""
    cand = certify_metric(m)
    return cand.min_eig, cand.positive


def certify_metric(theta) -> MetricCandidate:
    """Symmetrize, certify, and package an explicit candidate metric."""
    return MetricCandidate(hermitian_part(theta))


def spectral_metric(s: SpectralData, weights=None, *,
                    reality_tol: float = DEFAULT_REALITY_TOL) -> MetricCandidate:
    """Metric Theta = sum_n kappa_n |phi_n><phi_n| from the left eigensystem.

    The strictly positive weights kappa_n parameterize the full
    non-uniqueness of the metric family; all-ones is the default member.
    A complex spectrum raises BrokenPhase.
    """
    require_real_spectrum(s, reality_tol)
    if weights is None:
        kappa = np.ones(s.dim)
    else:
        kappa = np.asarray(weights, dtype=float)
    if kappa.shape != (s.dim,):
        raise DimensionMismatch(
            f"need {s.dim} weights, got shape {kappa.shape}")
    if not np.all(kappa > 0):
        raise NonPositiveWeight("metric weights must be strictly positive")
    phi = s.left_vectors
    return MetricCandidate(hermitian_part((phi * kappa) @ phi.conj().T))


def hermitize(h, theta) -> np.ndarray:
    """Similarity map Theta^(1/2) H Theta^(-1/2).

    The result is Hermitian whenever Theta certifies H, and is isospectral
    to H by construction.  ``theta`` may be a MetricCandidate or a raw
    Hermitian matrix (certified on the fly).
    """
    cand = theta if isinstance(theta, MetricCandidate) else certify_metric(theta)
    if not cand.positive:
        raise NotPositive(
            f"metric is not positive definite (min eigenvalue {cand.min_eig:.3e})")
    hh = as_operator(h)
    if hh.shape != cand.theta.shape:
        raise DimensionMismatch(
            f"operator {hh.shape} incompatible with metric {cand.theta.shape}")
    # the unique positive Hermitian square root of Theta, and its inverse
    w, u = np.linalg.eigh(cand.theta)
    rt = np.sqrt(w)
    return ((u * rt) @ u.conj().T) @ hh @ ((u / rt) @ u.conj().T)
