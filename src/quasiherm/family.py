"""First-order generalized-charge family on symmetric Dirichlet grids.

The charge is discretized as C = D1 + diag(sigma + i alpha) with sigma
even and alpha odd, the Hamiltonian as H = -D2 + diag(V), and the parity
P as index reversal.  Central stencils are used for both derivative
orders so that D1^dagger = -D1 and D2^dagger = D2 hold exactly: that
single choice keeps the whole conjugation algebra of the continuum exact
on the lattice.  Stencils treat samples beyond the ends as zero, so the
effective hard walls sit one spacing outside the sampled extent.

Every operator is held as its three stencil bands (lower, diagonal,
upper), and P acts as a plain reversal, so the family checks run in O(N).
Dense matrices are assembled from the same bands only for callers that
need them, such as the Schroedinger eigensolve.  A ``ChargeAnsatz`` or a
``PotentialSplit`` carries the grid its arrays were checked on, and the
family checks take it as it is, on that grid; a function handed a grid
checks the arrays it is handed against it.

The forward map from a charge ansatz to the potential reads, per sample,

    S = sigma^2 - alpha^2 + omega        (even real part)
    Lambda = 2 sigma alpha               (odd imaginary part)

and the composition oracle below shows that a non-constant ansatz also
forces the derivative companions

    L = -sigma'                          (odd real part)
    Sigma = -alpha'                      (even imaginary part)

which close the compatibility exactly; compatible_split assembles all
four.  The inverse map solves the quadratic in sigma^2 with the
convention 2 sigma^2 = (S - omega) + sqrt((S - omega)^2 + Lambda^2),
the only sign that round-trips the forward map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BadGrid, DimensionMismatch, NonFiniteResult,
                     ParityViolation, SigmaVanishes)

PARITY_ATOL = 1e-12

# below this |sigma| the inverse map is declared degenerate wherever the
# odd imaginary component does not vanish as well
SIGMA_FLOOR = 1e-6

# rows/columns within this margin of the ends are stencil-truncated and
# excluded from composed-operator residuals
BOUNDARY_MARGIN = 2


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-L, L] with an odd point count.

    Points are built as (j - (N-1)/2) * h so the reflection
    x_j = -x_{N-1-j} is exact in floating point and x = 0 is a grid point.
    """

    half_width: float
    npoints: int
    spacing: float
    points: np.ndarray


def make_grid(half_width: float, npoints: int) -> Grid:
    if not (half_width > 0) or not np.isfinite(half_width):
        raise BadGrid(f"half-width must be positive and finite, got {half_width}")
    n = int(npoints)
    if n != npoints or n < 5 or n % 2 == 0:
        raise BadGrid(f"point count must be an odd integer >= 5, got {npoints}")
    h = 2.0 * half_width / (n - 1)
    x = (np.arange(n) - (n - 1) // 2) * h
    return Grid(float(half_width), n, h, x)


def parity_deviation(f: np.ndarray, sign: int) -> float:
    """max |f - sign * f reflected|: zero for even (+1) or odd (-1) samples."""
    return float(np.abs(f - sign * f[::-1]).max())


def _samples(grid: Grid, dtype=float, **named) -> list[np.ndarray]:
    """The named sample arrays as ``dtype`` arrays, each checked to have the
    grid's length (DimensionMismatch) and finite entries (ValueError).  An
    array given as (array, sign) must also be even (+1) or odd (-1) to
    PARITY_ATOL times max(1, its largest |entry|) (ParityViolation)."""
    out = []
    for name, value in named.items():
        f, sign = value if isinstance(value, tuple) else (value, 0)
        f = np.asarray(f, dtype=dtype)
        if f.shape != (grid.npoints,):
            raise DimensionMismatch(
                f"{name} must have length {grid.npoints}, got shape {f.shape}")
        if not np.isfinite(f).all():
            raise ValueError(f"{name} samples must be finite")
        if sign:
            dev = parity_deviation(f, sign)
            if dev > PARITY_ATOL * max(1.0, float(np.abs(f).max())):
                kind = "even" if sign == 1 else "odd"
                raise ParityViolation(
                    f"{name} is not {kind} on the grid (deviation {dev:.3e})")
        out.append(f)
    return out


@dataclass(frozen=True)
class ChargeAnsatz:
    """Sampled first-order charge data: even sigma, odd alpha, constant omega.

    sigma and alpha are float arrays checked on ``grid`` (their length,
    finite entries), and the bands of the charge C on it are taken on first
    use and kept."""

    sigma: np.ndarray
    alpha: np.ndarray
    omega: float
    grid: Grid

    @property
    def w(self) -> np.ndarray:
        return self.sigma + 1j * self.alpha

    @cached_property
    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lower, diag, upper = _d1_bands(self.grid)
        return lower, diag + self.w, upper


def make_ansatz(grid: Grid, sigma, alpha, omega: float = 0.0) -> ChargeAnsatz:
    s, a = _samples(grid, sigma=(sigma, +1), alpha=(alpha, -1))
    if not np.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    return ChargeAnsatz(s.copy(), a.copy(), float(omega), grid)


@dataclass(frozen=True)
class PotentialSplit:
    """Potential split by reality and parity:
    V = real_even + real_odd + i*(imag_even + imag_odd), each part a float
    array checked on ``grid``."""

    real_even: np.ndarray
    real_odd: np.ndarray
    imag_even: np.ndarray
    imag_odd: np.ndarray
    grid: Grid

    def potential(self) -> np.ndarray:
        return (self.real_even + self.real_odd
                + 1j * (self.imag_even + self.imag_odd))


def make_split(grid: Grid, real_even, real_odd, imag_even, imag_odd
               ) -> PotentialSplit:
    return PotentialSplit(*(f.copy() for f in _samples(
        grid, real_even=(real_even, +1), real_odd=(real_odd, -1),
        imag_even=(imag_even, +1), imag_odd=(imag_odd, -1))), grid)


def _d1_bands(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of the central first difference."""
    n = grid.npoints
    c = 1.0 / (2.0 * grid.spacing)
    return np.full(n - 1, -c), np.zeros(n), np.full(n - 1, c)


def _d2_bands(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of the central second difference."""
    n = grid.npoints
    h2 = grid.spacing ** 2
    off = np.full(n - 1, 1.0 / h2)
    return off, np.full(n, -2.0 / h2), off.copy()


def tridiagonal(lower, diag, upper) -> np.ndarray:
    """Dense tridiagonal matrix from its bands; lower[k] = A[k+1, k]."""
    n = diag.size
    d = np.zeros((n, n), dtype=diag.dtype)
    idx = np.arange(n - 1)
    d[idx + 1, idx] = lower
    np.fill_diagonal(d, diag)
    d[idx, idx + 1] = upper
    return d


def first_difference(grid: Grid) -> np.ndarray:
    """Central first-difference matrix; exactly real antisymmetric."""
    return tridiagonal(*_d1_bands(grid))


def second_difference(grid: Grid) -> np.ndarray:
    """Central second-difference matrix; exactly real symmetric."""
    return tridiagonal(*_d2_bands(grid))


def hamiltonian_bands(grid: Grid, v: np.ndarray) -> tuple:
    """(lower, diag, upper) of H = -D2 + diag(v), v taken as it is."""
    lower, diag, upper = _d2_bands(grid)
    return -lower, v - diag, -upper


def _shared_grid(a: ChargeAnsatz, ps: PotentialSplit) -> Grid:
    """The grid of ``a``; BadGrid unless ``ps`` is on one of the same
    half-width and point count."""
    ga, gs = ((g.half_width, g.npoints) for g in (a.grid, ps.grid))
    if ga != gs:
        raise BadGrid(f"the ansatz is on the grid (L, N) = {ga}, the split "
                      f"on {gs}")
    return a.grid


def discretize_hamiltonian(grid: Grid, potential) -> np.ndarray:
    """H = -D2 + diag(V) with zero (Dirichlet) samples beyond the ends."""
    (v,) = _samples(grid, complex, potential=np.ravel(potential))
    return tridiagonal(*hamiltonian_bands(grid, v))


def discretize_charge(grid: Grid, sigma, alpha) -> np.ndarray:
    """C = D1 + diag(sigma + i alpha) with Dirichlet ends."""
    s, a = _samples(grid, sigma=np.ravel(sigma), alpha=np.ravel(alpha))
    return tridiagonal(*ChargeAnsatz(s, a, 0.0, grid).bands)


def _reflected_adjoint(bands) -> tuple:
    """Bands of P A^dagger P.  The adjoint swaps the off-diagonal bands
    and the reflection swaps them back, so each band is only conjugated
    and reversed."""
    return tuple(np.conj(b[::-1]) for b in bands)


def _product_diagonals(a, b) -> list[np.ndarray]:
    """Diagonals -2..2 of A @ B for tridiagonal A, B; diagonal k >= 0
    holds (A B)[j, j+k] at index j, diagonal -k holds (A B)[j+k, j]."""
    al, ad, au = a
    bl, bd, bu = b
    main = ad * bd
    main[1:] += al * bu
    main[:-1] += au * bl
    return [al[1:] * bl[:-1],
            al * bd[:-1] + ad[1:] * bl,
            main,
            ad[:-1] * bu + au * bd[1:],
            au[:-1] * bu[1:]]


def forward_family(a: ChargeAnsatz) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise potential components fixed by the ansatz:
    S = sigma^2 - alpha^2 + omega (even), Lambda = 2 sigma alpha (odd);
    NonFiniteResult when either overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        s_even = a.sigma ** 2 - a.alpha ** 2 + a.omega
        lam_odd = 2.0 * a.sigma * a.alpha
    if not (np.isfinite(s_even).all() and np.isfinite(lam_odd).all()):
        raise NonFiniteResult("S or Lambda of the ansatz is not finite")
    return s_even, lam_odd


def compatible_split(a: ChargeAnsatz) -> PotentialSplit:
    """Full four-component potential split compatible with the ansatz.

    Besides the pointwise S and Lambda, the first-order coefficient of the
    composition residual forces real_odd = -sigma' and imag_even = -alpha'
    whenever the ansatz is not constant; derivatives are taken with
    second-order central differences, one-sided at the ends.  The two
    one-sided end stencils are not mirror images in floating point, so the
    derivatives are projected onto their parity (sigma' odd, alpha' even);
    the interior differences already have it exactly and do not change.
    The split is on the ansatz's grid.
    """
    h = a.grid.spacing
    s_even, lam_odd = forward_family(a)
    ds = odd_part(np.gradient(a.sigma, h, edge_order=2))
    da = even_part(np.gradient(a.alpha, h, edge_order=2))
    return PotentialSplit(s_even, -ds, -da, lam_odd, a.grid)


def _finite(value, what: str):
    """``value``, or NonFiniteResult naming ``what`` if any of it is not."""
    if not np.isfinite(value).all():
        raise NonFiniteResult(f"{what} is not finite")
    return value


def _central(f: np.ndarray, h: float) -> np.ndarray:
    """Central first difference on interior points (length N-2)."""
    return (f[2:] - f[:-2]) / (2.0 * h)


def _central2(f: np.ndarray, h: float) -> np.ndarray:
    """Central second difference on interior points (length N-2)."""
    return (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)


def ode_pair_residual(a: ChargeAnsatz, ps: PotentialSplit
                      ) -> tuple[float, float]:
    """Max-norm residuals of the differentiated compatibility pair

        S' = 2 sigma' sigma - 2 alpha' alpha
        Lambda' = 2 sigma' alpha + 2 alpha' sigma

    with central differences on interior points, S and Lambda being the
    split's real_even and imag_odd; O(h^2) for smooth data produced by
    forward_family.  NonFiniteResult when either overflows.
    """
    h = _shared_grid(a, ps).spacing
    sig_i, alp_i = a.sigma[1:-1], a.alpha[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        dsig = _central(a.sigma, h)
        dalp = _central(a.alpha, h)
        r1 = np.abs(_central(ps.real_even, h)
                    - (2 * dsig * sig_i - 2 * dalp * alp_i))
        r2 = np.abs(_central(ps.imag_odd, h)
                    - (2 * dsig * alp_i + 2 * dalp * sig_i))
    return _finite((float(r1.max()), float(r2.max())),
                   "the ODE pair residual")


def inverse_family(s_even, lam_odd, omega: float, grid: Grid,
                   branch: int = +1) -> ChargeAnsatz:
    """Recover (sigma, alpha) from (S, Lambda, omega).

    Solves sigma^4 + (omega - S) sigma^2 - Lambda^2/4 = 0 for the
    nonnegative root, 2 sigma^2 = (S - omega) + sqrt((S - omega)^2 +
    Lambda^2), then alpha = Lambda / (2 sigma).  ``branch`` flips the
    common sign of sigma and alpha; both branches map forward to the same
    potential.  Points with |sigma| below SIGMA_FLOOR are tolerated
    only where Lambda vanishes too (alpha is set to 0 there); otherwise
    SigmaVanishes reports the offending indices.  NonFiniteResult is
    raised when the root overflows.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    s_arr, lam_arr = _samples(grid, s_even=s_even, lam_odd=lam_odd)
    # radicand >= shifted^2, so the root below is always real nonnegative
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = s_arr - omega
        sigma_sq = 0.5 * (shifted
                          + np.sqrt(shifted * shifted + lam_arr * lam_arr))
    if not np.isfinite(sigma_sq).all():
        raise NonFiniteResult("sigma^2 of the inverse map is not finite")
    sigma = branch * np.sqrt(sigma_sq)
    small = np.abs(sigma) < SIGMA_FLOOR
    lam_scale = max(1.0, float(np.abs(lam_arr).max()))
    degenerate = small & (np.abs(lam_arr) > 1e-12 * lam_scale)
    if np.any(degenerate):
        idx = np.nonzero(degenerate)[0]
        raise SigmaVanishes(
            f"sigma below {SIGMA_FLOOR:g} at {idx.size} points with "
            "nonvanishing Lambda; inverse map degenerates", indices=idx)
    alpha = np.zeros_like(sigma)
    ok = ~small
    alpha[ok] = lam_arr[ok] / (2.0 * sigma[ok])
    return make_ansatz(grid, sigma, alpha, omega)


def compose_pct_residual(a: ChargeAnsatz, ps: PotentialSplit) -> float:
    """Largest entry of H^dagger (P C) - (P C) H away from the boundary.

    Rows and columns within BOUNDARY_MARGIN of the ends carry truncated
    stencils and are excluded.  Exactly zero (to roundoff) for constant
    compatible data; bounded under refinement for a compatible smooth
    split; growing like 1/h when the first-order compatibility is violated.

    Left-multiplying by P permutes rows within the core, so the maximum
    is taken over (P H^dagger P) C - C H, a pentadiagonal difference of
    two tridiagonal products.  NonFiniteResult when it overflows.
    """
    grid = _shared_grid(a, ps)
    hb = hamiltonian_bands(grid, ps.potential())
    cb = a.bands
    m = BOUNDARY_MARGIN
    n = grid.npoints
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _product_diagonals(_reflected_adjoint(hb), cb)
        rhs = _product_diagonals(cb, hb)
        core = [np.abs(lhs_k - rhs_k)[m:n - m - abs(k)]
                for k, lhs_k, rhs_k in zip(range(-2, 3), lhs, rhs)]
    return _finite(float(np.concatenate(core).max()),
                   "the composition residual")


@dataclass(frozen=True)
class CoefficientResiduals:
    """Per-order coefficient residuals of the composed third-order
    operators, sampled on the interior points."""

    x: np.ndarray
    d3: np.ndarray
    d2: np.ndarray
    d1: np.ndarray
    d0: np.ndarray

    def sup(self, order: int) -> float:
        arr = {3: self.d3, 2: self.d2, 1: self.d1, 0: self.d0}[order]
        return float(np.abs(arr).max())


def even_part(f: np.ndarray) -> np.ndarray:
    """Even projection on a reflection-symmetric sample array."""
    return 0.5 * (f + f[::-1])


def odd_part(f: np.ndarray) -> np.ndarray:
    """Odd projection on a reflection-symmetric sample array."""
    return 0.5 * (f - f[::-1])


def coefficient_match(a: ChargeAnsatz, ps: PotentialSplit
                      ) -> CoefficientResiduals:
    """Coefficient-level comparison of H^dagger (P C) against (P C) H.

    Both compositions share the left parity factor: with u(x) =
    conj(V)(-x), the identity H^dagger P = P (-D^2 + u) reduces the
    comparison to the genuine differential compositions

        (-D^2 + u)(D + w)  versus  (D + w)(-D^2 + V),

    whose coefficient functions per derivative order are assembled with
    the product rule and sampled derivatives:

        order 3:  -1                | -1
        order 2:  -w                | -w
        order 1:  u - 2 w'          | V
        order 0:  u w - w''         | V' + w V

    The order-3 and order-2 residuals cancel identically, so they are
    returned as zeros; the order-1 and order-0 residuals are the
    compatibility conditions.  Their odd real and odd imaginary projections
    reproduce the differentiated pair tested by ode_pair_residual; the even
    projections vanish exactly when real_odd = -sigma' and imag_even =
    -alpha'.  NonFiniteResult when a residual overflows.
    """
    grid = _shared_grid(a, ps)
    v = ps.potential()
    w = a.w
    h = grid.spacing
    n = grid.npoints
    u = np.conj(v)[::-1]

    w_i = w[1:-1]
    u_i = u[1:-1]
    v_i = v[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        dw = _central(w, h)
        ddw = _central2(w, h)
        dv = _central(v, h)

        lhs_d1 = u_i - 2.0 * dw
        rhs_d1 = v_i
        lhs_d0 = u_i * w_i - ddw
        rhs_d0 = dv + w_i * v_i

        return CoefficientResiduals(
            x=grid.points[1:-1].copy(),
            d3=np.zeros(n - 2, complex),
            d2=np.zeros(n - 2, complex),
            d1=_finite(lhs_d1 - rhs_d1, "the order-1 coefficient residual"),
            d0=_finite(lhs_d0 - rhs_d0, "the order-0 coefficient residual"),
        )


def charge_pg_hermiticity(a: ChargeAnsatz) -> float:
    """Frobenius deviation of P C from Hermiticity.

    P D1 and P diag(w) are individually Hermitian exactly when the grid is
    symmetric, sigma is even and alpha is odd, so a valid ansatz gives
    machine zero.  P (P C - (P C)^dagger) = C - P C^dagger P has the same
    norm and stays tridiagonal.
    """
    cb = a.bands
    return float(np.linalg.norm(np.concatenate(
        [c - g for c, g in zip(cb, _reflected_adjoint(cb))])))


def charge_norm(a: ChargeAnsatz) -> float:
    """Frobenius norm of C, equal to that of P C."""
    return float(np.linalg.norm(np.concatenate(a.bands)))
