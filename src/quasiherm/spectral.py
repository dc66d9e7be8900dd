"""Biorthogonal eigensystems for dense complex matrices.

The right system diagonalizes A, the left system diagonalizes A^dagger
(with conjugated eigenvalues), and the two are rescaled to the pairing
<phi_m|psi_n> = delta_mn so that sum_n |psi_n><phi_n| = 1.  Real and
PT-symmetric matrices are solved in real arithmetic (``_eig``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BrokenPhase, DegenerateSpectrum, DimensionMismatch,
                     NonConvergence, SelfOrthogonal)
from .operators import as_operator

# Above this 1-norm condition number of the right-eigenvector matrix, the
# left system is taken from the adjoint decomposition instead of inversion;
# inversion loses accuracy near exceptional points.
LEFT_FROM_ADJOINT_COND = 1e8

# Default degeneracy floor as a fraction of the spectral radius.
DEFAULT_GAP_FACTOR = 1e-8

SELF_ORTHOGONALITY_RTOL = 1e-12

DEFAULT_REALITY_TOL = 1e-10

_SQRT2 = math.sqrt(2.0)


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


def _from_real_form(w: np.ndarray) -> np.ndarray:
    """S w with S = (1 + iJ)/sqrt(2), J the flip; unitary, so column norms
    are kept."""
    return (w + 1j * w[::-1]) / _SQRT2


def _eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Eigenvalues (complex) and eigenvectors W of m, in real arithmetic
    where the matrix allows it.

    A real m is solved as it is.  A PT-symmetric m, J conj(m) J = m, is
    unitarily similar to the real B = S^dagger m S = Re m - Im(mJ - Jm)/2,
    which is solved instead; then the eigenvectors of m are S W and the
    returned flag is True.  Any other m takes the complex solver.
    """
    if not m.imag.any():
        vals, w = np.linalg.eig(m.real)
        rotated = False
    elif np.array_equal(m[::-1, ::-1], m.conj()):
        b = m.real + 0.5 * (m.imag[::-1] - m.imag[:, ::-1])
        vals, w = np.linalg.eig(b)
        rotated = True
    else:
        vals, w = np.linalg.eig(m)
        rotated = False
    return vals.astype(complex, copy=False), w, rotated


def _left_from_inverse(right: np.ndarray, w: np.ndarray,
                       rotated: bool) -> np.ndarray | None:
    """Left vectors as the rows of V^-1, V = S W when ``rotated`` else W,
    or None when the 1-norm condition number ||V||_1 ||V^-1||_1 exceeds
    LEFT_FROM_ADJOINT_COND.  W^-1 is taken in W's own (real or complex)
    arithmetic: the rows of V^-1 = W^-1 S^dagger are S (W^-1)^dagger."""
    try:
        inv = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.iscomplexobj(inv):
            # a real inverse pairs with W about 1.4 times worse than a
            # complex one (||W^-1 W - 1||_F 1.2e-13 against 8.9e-14 on the
            # README harmonic model); one Newton step X += X (1 - W X), two
            # real products, brings it to 1.5e-14
            inv += inv @ (np.eye(len(w)) - w @ inv)
        left = inv.conj().T
        if rotated:
            left = _from_real_form(left)
        # ||V^-1||_1 = ||(V^-1)^dagger||_inf
        cond = np.linalg.norm(right, 1) * np.linalg.norm(left, np.inf)
    if not cond <= LEFT_FROM_ADJOINT_COND:  # also catches a nan condition
        return None
    return left


def _left_from_adjoint(m: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Left vectors as eigenvectors of A^dagger, matched to conj(lambda)."""
    wl, ul, rotated = _eig(m.conj().T)
    if rotated:
        ul = _from_real_form(ul)
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
        vals, w, rotated = _eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc

    order = np.lexsort((np.arange(vals.size), vals.imag, vals.real))
    vals = vals[order]
    w = w[:, order]
    right = _from_real_form(w) if rotated else w

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

    left = _left_from_inverse(right, w, rotated)
    del w
    if left is None:
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
