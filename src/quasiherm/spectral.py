"""Biorthogonal eigensystems for dense complex matrices.

The right system diagonalizes A, the left system diagonalizes A^dagger
(with conjugated eigenvalues), and the two are rescaled to the pairing
<phi_m|psi_n> = delta_mn so that sum_n |psi_n><phi_n| = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BrokenPhase, DegenerateSpectrum, DimensionMismatch,
                     NonConvergence, SelfOrthogonal)
from .operators import as_operator

# Above this condition number of the right-eigenvector matrix, the left
# system is taken from the adjoint decomposition instead of inversion;
# inversion loses accuracy near exceptional points.
LEFT_FROM_ADJOINT_COND = 1e8

# Default degeneracy floor as a fraction of the spectral radius.
DEFAULT_GAP_FACTOR = 1e-8

SELF_ORTHOGONALITY_RTOL = 1e-12

DEFAULT_REALITY_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues with biorthonormalized right/left eigenvector columns.

    Eigenvalues are sorted by real part, ties broken by imaginary part and
    then by original index, so results are reproducible bit for bit.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    min_gap: float

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def pairing(self) -> np.ndarray:
        """Gram matrix <phi_m|psi_n>; the identity after normalization."""
        return self.left_vectors.conj().T @ self.right_vectors

    def reconstruction(self) -> np.ndarray:
        """sum_n lambda_n |psi_n><phi_n|; reproduces the decomposed matrix."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def _as_columns(vectors) -> np.ndarray:
    if isinstance(vectors, (list, tuple)):
        cols = np.column_stack([np.asarray(v, dtype=complex).ravel()
                                for v in vectors])
    else:
        cols = np.array(vectors, dtype=complex)
        if cols.ndim == 1:
            cols = cols[:, None]
    if cols.ndim != 2:
        raise DimensionMismatch("expected vectors as columns")
    return cols


def biorthonormalize(right, left) -> tuple[np.ndarray, np.ndarray]:
    """Rescale a raw left/right system to <phi_m|psi_n> = delta_mn.

    Right vectors come out with unit 2-norm; the left vectors absorb the
    whole normalization factor.  A vanishing diagonal pairing is the
    numerical signature of an exceptional point and raises SelfOrthogonal.
    """
    r = _as_columns(right)
    l = _as_columns(left)
    if r.shape != l.shape:
        raise DimensionMismatch(
            f"right system {r.shape} does not match left system {l.shape}")
    rnorm = np.linalg.norm(r, axis=0)
    lnorm = np.linalg.norm(l, axis=0)
    if np.any(rnorm == 0) or np.any(lnorm == 0):
        raise SelfOrthogonal("zero vector in the eigensystem")
    raw = np.einsum("ij,ij->j", l.conj(), r)
    bad = np.abs(raw) < SELF_ORTHOGONALITY_RTOL * rnorm * lnorm
    if np.any(bad):
        idx = int(np.nonzero(bad)[0][0])
        raise SelfOrthogonal(
            f"pair {idx} is self-orthogonal "
            f"(|<phi|psi>| = {abs(raw[idx]):.3e}); exceptional point")
    r = r / rnorm
    # after unit-normalizing the right columns the pairing shrinks by rnorm
    l = l / (raw / rnorm).conj()
    return r, l


def _left_from_adjoint(m: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Left vectors as eigenvectors of A^dagger, matched to conj(lambda)."""
    wl, ul = np.linalg.eig(m.conj().T)
    target = vals.conj()
    cols = np.empty(vals.size, dtype=int)
    free = np.ones(vals.size, dtype=bool)
    for n in range(vals.size):
        dist = np.abs(wl - target[n])
        dist[~free] = np.inf
        k = int(np.argmin(dist))
        cols[n] = k
        free[k] = False
    return ul[:, cols]


def eigendecompose(a, gap_floor: float | None = None) -> SpectralData:
    """Biorthogonal eigendecomposition with a degeneracy guard.

    ``gap_floor=None`` selects the default 1e-8 * spectral radius; a
    minimal eigenvalue separation below the floor raises
    DegenerateSpectrum.  Pass 0 to disable the check.
    """
    m = as_operator(a)
    if gap_floor is not None and gap_floor < 0:
        raise ValueError("gap_floor must be nonnegative")
    try:
        vals, right = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc

    order = np.lexsort((np.arange(vals.size), vals.imag, vals.real))
    vals = vals[order]
    right = right[:, order]

    if vals.size > 1:
        dist = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(dist, np.inf)
        min_gap = float(dist.min())
    else:
        min_gap = float("inf")
    radius = float(np.abs(vals).max())
    floor = DEFAULT_GAP_FACTOR * radius if gap_floor is None else float(gap_floor)
    if min_gap < floor:
        raise DegenerateSpectrum(
            f"minimal eigenvalue gap {min_gap:.3e} below floor {floor:.3e}")

    if np.linalg.cond(right) <= LEFT_FROM_ADJOINT_COND:
        left = np.linalg.inv(right).conj().T
    else:
        left = _left_from_adjoint(m, vals)
    right, left = biorthonormalize(right, left)
    return SpectralData(vals, right, left, min_gap)


def is_real_spectrum(s: SpectralData, tol: float) -> tuple[bool, float]:
    """Whether all imaginary parts vanish within tol * max(1, radius)."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    max_imag = float(np.abs(s.eigenvalues.imag).max())
    radius = max(1.0, float(np.abs(s.eigenvalues).max()))
    return max_imag <= tol * radius, max_imag


def require_real_spectrum(s: SpectralData, tol: float) -> None:
    """Raise BrokenPhase unless ``is_real_spectrum`` holds; the error
    carries the largest imaginary part."""
    real, max_imag = is_real_spectrum(s, tol)
    if not real:
        raise BrokenPhase(
            f"spectrum is complex (max |Im lambda| = {max_imag:.9g})", max_imag)
