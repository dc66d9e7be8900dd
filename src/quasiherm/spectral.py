"""Biorthogonal eigensystems for dense matrices.

The right system diagonalizes A, the left system diagonalizes A^dagger
(with conjugated eigenvalues), and the two are rescaled to the pairing
<phi_m|psi_n> = delta_mn so that sum_n |psi_n><phi_n| = 1.  Real and
PT-symmetric matrices are solved in real arithmetic (``real_form``), and
a real matrix with a real spectrum keeps real eigenvectors.  A Hermitian
real form is solved by ``eigh``, by parity sector when it commutes with
the flip, and its left vectors are its right vectors.  Any other form's
left vectors are the rows of W^-1, one Newton step from a start that
needs no factorization when b^T = J b J, as for every PT model.  All of
it runs in b's frame; a rotated system crosses back once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BrokenPhase, DegenerateSpectrum, DimensionMismatch,
                     NonConvergence, SelfOrthogonal)
from .operators import checked_operator

# Above this 1-norm condition number of the right-eigenvector matrix, a
# real form with B^T = J B J takes the left vectors J conj(W) in place of
# the rows of the inverse, which loses accuracy near exceptional points.
LEFT_FROM_FLIP_COND = 1e8

SELF_ORTHOGONALITY_RTOL = 1e-12

# the one default relative tolerance of the package, and the CLI's --tol
DEFAULT_TOL = 1e-10

_SQRT2 = math.sqrt(2.0)
_EPS = np.finfo(float).eps
_SQRT_EPS = math.sqrt(_EPS)


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
        """sum_n lambda_n |psi_n><phi_n|; reproduces the decomposed matrix,
        in real arithmetic when the eigensystem is real."""
        vals = self.eigenvalues
        if not vals.imag.any():
            vals = vals.real
        return (self.right_vectors * vals) @ self.left_vectors.conj().T


def _as_columns(vectors) -> np.ndarray:
    """The vectors as the columns of a float or complex array, as the input
    is real or complex; an array of that dtype is not copied."""
    if isinstance(vectors, (list, tuple)):
        cols = np.column_stack([np.ravel(v) for v in vectors])
    else:
        cols = np.asarray(vectors)
        if cols.ndim == 1:
            cols = cols[:, None]
    cols = cols.astype(complex if np.iscomplexobj(cols) else float, copy=False)
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


def real_form(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """A real matrix unitarily similar to the square m, and whether m was
    rotated to get it; (m, False) when this test finds none.  A real
    C-ordered m and a complex m with no real form are handed back
    themselves, uncopied; every other result is a new array.

    A real m (no imaginary part) is its own real form.  A PT-symmetric m,
    J conj(m) J = m with J the flip, is similar to the real
    B = S^dagger m S = Re m - Im(mJ - Jm)/2 under the unitary
    S = (1 + iJ)/sqrt(2).  S commutes with J, so S^dagger J S = J: B is
    pseudo-Hermitian under the flip and the identity exactly when m is.
    """
    if not np.iscomplexobj(m) or not m.imag.any():
        return np.ascontiguousarray(m.real), False
    if np.array_equal(m[::-1, ::-1], m.conj()):
        return m.real + 0.5 * (m.imag[::-1] - m.imag[:, ::-1]), True
    return m, False


def _from_real_form(w: np.ndarray) -> np.ndarray:
    """S w with S = (1 + iJ)/sqrt(2), J the flip; unitary, so column norms
    are kept."""
    return (w + 1j * w[::-1]) / _SQRT2


def state_to_real_form(v: np.ndarray) -> np.ndarray:
    """S^dagger v, the state v of m in the frame of its real form B."""
    return (v - 1j * v[::-1]) / _SQRT2


def matrix_from_real_form(x: np.ndarray) -> np.ndarray:
    """S X S^dagger, the matrix X of the frame of B in the frame of m."""
    return _from_real_form(_from_real_form(x).conj().T).conj().T


def _hermitian_eig(b: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray | None]:
    """Real eigenvalues and orthonormal eigenvectors of a Hermitian b, and
    whether each vector is odd (None when b is solved whole).

    When J b J = b, J the flip, the even vectors (x, J x) and the odd
    vectors (x, -J x) are solved apart, from the blocks b11 + (b J)11 and
    b11 - (b J)11 on the top half; for an odd N the even block also holds
    the middle site, coupled by sqrt(2).  Each vector is unfolded with
    exact parity, v[::-1] = +-v.
    """
    if not np.array_equal(b[::-1, ::-1], b):
        return (*np.linalg.eigh(b), None)
    n = b.shape[0]
    half = n // 2
    top = b[:half, :half]
    flip = b[:half, ::-1][:, :half]
    even = top + flip
    if n % 2:
        even = np.block([[even, _SQRT2 * b[:half, half:half + 1]],
                         [_SQRT2 * b[half:half + 1, :half],
                          b[half:half + 1, half:half + 1]]])
    vals_even, x_even = np.linalg.eigh(even)
    vals_odd, x_odd = np.linalg.eigh(top - flip)
    ne = vals_even.size
    w = np.zeros((n, n), dtype=x_even.dtype)
    w[:half, :ne] = x_even[:half] / _SQRT2
    w[half:n - half, :ne] = x_even[half:]
    w[:half, ne:] = x_odd / _SQRT2
    w[n - half:, :ne] = w[:half, :ne][::-1]
    w[n - half:, ne:] = -w[:half, ne:][::-1]
    return np.concatenate((vals_even, vals_odd)), w, np.arange(n) >= ne


def _left_vectors(w: np.ndarray, flip: bool) -> tuple[np.ndarray, float]:
    """Left vectors of a non-Hermitian b in its frame, and cond_1(W) =
    ||W||_1 ||W^-1||_1 of its right-eigenvector matrix W.

    They are the rows of W^-1, one Newton step X -= X (W X - 1), in W's own
    arithmetic, from the LU inverse or, for ``flip`` (b^T = J b J, J the
    flip), from the J-pairing D^-1 (J W)^T, D = diag(w_n^T J w_n), when
    ||W X - 1||_F < sqrt(eps): the step squares that residual.
    b^T = J b J gives (lambda_m - lambda_n) w_m^T J w_n = 0, a pairing with
    no conjugate, so it holds for a complex W too.  When ``flip`` holds and
    cond_1(W) exceeds LEFT_FROM_FLIP_COND they are J conj(W) instead: from
    b w = lambda w follows b^dagger J conj(w) = conj(lambda) J conj(w),
    column by column, so no eigenvalue matching is needed; a finite
    J-pairing start above the cap takes no O(N^3) step.  Linearly
    dependent eigenvectors, a singular W or an inverse that overflows,
    raise DegenerateSpectrum."""
    def residual(x):
        r = w @ x
        r.flat[::len(w) + 1] -= 1.0
        return r

    w_norm = np.linalg.norm(w, 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = None
        if flip:
            x = w[::-1].T / np.einsum("ij,ij->j", w[::-1], w)[:, None]
            cond = float(w_norm * np.abs(x).sum(axis=0).max())
            if math.isfinite(cond) and cond > LEFT_FROM_FLIP_COND:
                return w[::-1].conj(), cond
            resid = residual(x)
            # a zero w_n^T J w_n fails the test as a NaN or an inf
            if not np.linalg.norm(resid) < _SQRT_EPS:
                x = None
        if x is None:
            try:
                x = np.linalg.inv(w)
            except np.linalg.LinAlgError:
                raise DegenerateSpectrum(
                    "the eigenvectors are linearly dependent") from None
            resid = residual(x)
        x -= x @ resid
        del resid
        left = x.conj().T
        # ||W^-1||_1 = ||(W^-1)^dagger||_inf
        cond = float(w_norm * np.linalg.norm(left, np.inf))
    if not math.isfinite(cond):
        raise DegenerateSpectrum(
            f"the eigenvectors are linearly dependent (cond_1 {cond})")
    if flip and cond > LEFT_FROM_FLIP_COND:
        left = w[::-1].conj()
    return left, cond


def eigendecompose(a, gap_floor: float | None = None) -> SpectralData:
    """Biorthogonal eigendecomposition with a degeneracy guard.

    The matrix is solved in its ``real_form`` b, and every decision is
    taken in b's frame.  A Hermitian b goes to ``eigh`` (by parity sector
    when b commutes with the flip) and its left vectors are its right
    vectors.  Any other b goes to ``eig``, once, and its left vectors are
    the rows of W^-1, one Newton step from the J-pairing of W or from the
    LU inverse; when cond_1(W) exceeds LEFT_FROM_FLIP_COND and
    b^T = J b J, they are J conj(W) instead.  When b was rotated, both
    systems cross to the frame of the matrix once, as S W, at the end.

    The guard raises DegenerateSpectrum for a pair of eigenvalues closer
    than (kappa_i + kappa_j) N eps ||b||_F, where kappa_n =
    ||phi_n|| ||psi_n|| / |<phi_n|psi_n>| (1 for a Hermitian b): roundoff
    can move the two that far, so the eigensystem does not resolve them.
    S is unitary, so ||b||_F is the record's norm and kappa_n is the same
    in either frame.  Pairs that an exact symmetry keeps apart are exempt:
    vectors of opposite parity sectors, and exactly conjugate eigenvalues
    of a real b.  A floor that overflows is inf.  A ``gap_floor`` replaces
    the bound by a fixed floor; pass 0 to disable the check.  ``min_gap``
    is the smallest gap of all pairs.

    ``a`` is a CheckedOperator or a matrix; the guard raises
    NonFiniteResult for one whose squared Frobenius norm is not finite.
    """
    op = checked_operator(a)
    if gap_floor is not None and gap_floor < 0:
        raise ValueError("gap_floor must be nonnegative")
    b, rotated = real_form(op.matrix)
    hermitian = np.array_equal(b, b.conj().T)
    try:
        vals, w, odd = (_hermitian_eig(b) if hermitian
                        else (*np.linalg.eig(b), None))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc

    vals = vals.astype(complex, copy=False)
    order = np.lexsort((np.arange(vals.size), vals.imag, vals.real))
    vals = vals[order]
    w = w[:, order]
    if hermitian:
        left, kappa_max = w, 1.0
    else:
        left, cond = _left_vectors(w, np.array_equal(b.T, b[::-1, ::-1]))
        # kappa_n <= cond_2(W) <= N cond_1(W)
        kappa_max = vals.size * cond

    dist = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(dist, np.inf)
    min_gap = float(dist.min())
    with np.errstate(over="ignore", divide="ignore"):
        unit = vals.size * _EPS * op.norm
        floor = 2 * kappa_max * unit if gap_floor is None else gap_floor
        if min_gap < floor:
            if gap_floor is None and not hermitian:
                kappa = (np.linalg.norm(left, axis=0)
                         * np.linalg.norm(w, axis=0)
                         / np.abs(np.einsum("ij,ij->j", left.conj(), w)))
                floor = (kappa[:, None] + kappa) * unit
            close = dist < floor
            if odd is not None:
                close &= odd[order][:, None] == odd[order]
            if not np.iscomplexobj(b):
                close &= ~((vals[:, None] == vals.conj()) & (vals.imag != 0))
            if close.any():
                i, j = np.argwhere(close)[0]
                raise DegenerateSpectrum(
                    f"eigenvalues {i} and {j}: gap {dist[i, j]:.3e} below "
                    f"floor {np.broadcast_to(floor, dist.shape)[i, j]:.3e}")
    # the vectors are mapped and scaled without the distances and b
    del b, dist
    if rotated:
        w = _from_real_form(w)
        left = w if hermitian else _from_real_form(left)
    if not hermitian:
        w, left = biorthonormalize(w, left)
    return SpectralData(vals, w, left, min_gap)


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
