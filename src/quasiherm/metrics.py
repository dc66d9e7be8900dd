"""Construction and certification of positive-definite metric operators.

A metric for H solves the intertwining relation H^dagger Theta = Theta H;
the whole solution family is spanned by strictly positive weights on the
left-eigenvector dyads.  The Hermitizing similarity map and the
observability residual live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ComplexSpectrum, DimensionMismatch, NonPositiveWeight,
                     NotPositive)
from .operators import METRIC_HERMITICITY_RTOL, as_operator, require_metric
from .spectral import SpectralData, is_real_spectrum

# positive means min_eig > floor * max_eig: scale-invariant certificate
POSITIVITY_FLOOR_FACTOR = 1e-12

DEFAULT_REALITY_TOL = 1e-10


@dataclass(frozen=True)
class MetricCandidate:
    """Hermitian candidate metric with its positivity certificate."""

    theta: np.ndarray
    min_eig: float
    max_eig: float
    positive: bool
    weights: np.ndarray | None = None

    @property
    def condition(self) -> float:
        if self.min_eig <= 0:
            return float("inf")
        return self.max_eig / self.min_eig


def qh_residual(h, theta) -> tuple[float, float]:
    """Absolute and relative Frobenius residual of H^dagger Theta - Theta H."""
    hh = as_operator(h)
    tt = as_operator(theta)
    if hh.shape != tt.shape:
        raise DimensionMismatch(
            f"operator {hh.shape} incompatible with metric {tt.shape}")
    resid = hh.conj().T @ tt - tt @ hh
    abs_res = float(np.linalg.norm(resid))
    denom = float(np.linalg.norm(hh)) * float(np.linalg.norm(tt))
    if denom == 0.0:
        rel = 0.0 if abs_res == 0.0 else float("inf")
    else:
        rel = abs_res / denom
    return abs_res, rel


def observability_check(a, theta) -> tuple[float, float]:
    """Residual of A^dagger Theta - Theta A for a candidate observable A.

    Vanishes exactly when A is self-adjoint in the Theta-weighted inner
    product; same algebra as qh_residual, different role.
    """
    return qh_residual(a, theta)


def positivity_certificate(m, *, hermiticity_rtol: float = METRIC_HERMITICITY_RTOL
                           ) -> tuple[float, bool]:
    """Minimum eigenvalue and a scale-invariant positive-definiteness flag."""
    cand = certify_metric(m, hermiticity_rtol=hermiticity_rtol)
    return cand.min_eig, cand.positive


def certify_metric(theta, weights=None, *,
                   hermiticity_rtol: float = METRIC_HERMITICITY_RTOL
                   ) -> MetricCandidate:
    """Symmetrize, certify, and package an explicit candidate metric."""
    mm = require_metric(theta, hermiticity_rtol)
    w = np.linalg.eigvalsh(mm)
    min_eig = float(w[0])
    max_eig = float(w[-1])
    positive = bool(min_eig > POSITIVITY_FLOOR_FACTOR * max_eig)
    wts = None if weights is None else np.asarray(weights, dtype=float).copy()
    return MetricCandidate(mm, min_eig, max_eig, positive, wts)


def spectral_metric(s: SpectralData, weights=None, *,
                    reality_tol: float = DEFAULT_REALITY_TOL) -> MetricCandidate:
    """Metric Theta = sum_n kappa_n |phi_n><phi_n| from the left eigensystem.

    The strictly positive weights kappa_n parameterize the full
    non-uniqueness of the metric family; all-ones is the default member.
    Requires a real spectrum.
    """
    real, max_imag = is_real_spectrum(s, reality_tol)
    if not real:
        raise ComplexSpectrum(
            f"spectrum has max |Im lambda| = {max_imag:.6g}; no positive "
            "metric exists")
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
    theta = (phi * kappa) @ phi.conj().T
    theta = 0.5 * (theta + theta.conj().T)
    return certify_metric(theta, weights=kappa)


def _positive_root_pair(cand: MetricCandidate) -> tuple[np.ndarray, np.ndarray]:
    """Unique positive Hermitian square root of Theta and its inverse."""
    w, u = np.linalg.eigh(cand.theta)
    rt = np.sqrt(w)
    sqrt_theta = (u * rt) @ u.conj().T
    inv_sqrt_theta = (u / rt) @ u.conj().T
    return sqrt_theta, inv_sqrt_theta


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
    sqrt_theta, inv_sqrt_theta = _positive_root_pair(cand)
    return sqrt_theta @ hh @ inv_sqrt_theta
