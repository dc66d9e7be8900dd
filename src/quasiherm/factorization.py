"""Factorization of the physical metric into pseudometric times charge.

The bookkeeping follows three nested inner-product spaces: the
computation-friendly space F carries the plain conjugation, the
intermediate space R carries the P-weighted one, and the physical space H
carries the Theta-weighted one with Theta = P C.  The pseudometric P may
be indefinite (Krein reading) or positive (three-Hilbert-space reading);
either way the composed Theta must come out Hermitian and, for a physical
model, positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, ExceptionalPoint, NonHermitianMetric,
                     NotPTSymmetric, SingularMetric, SingularPseudoMetric)
from .metrics import (MetricCandidate, certify_metric, frobenius_deviation,
                      frobenius_residual, spectral_metric)
from .operators import (CheckedOperator, adjoint_product, as_operator,
                        as_state, checked_operator, hermitian_part,
                        parity_matrix, right_product)
from .spectral import (DEFAULT_TOL, SpectralData, eigendecompose,
                       require_real_spectrum)

# eigenvalues within this relative distance of zero make P uninvertible
PSEUDOMETRIC_NULL_RTOL = 1e-10

PAIRING_FLOOR = 1e-10

SPACES = ("F", "R", "H")


@dataclass(frozen=True)
class PseudoMetric:
    """Hermitian invertible P with its inertia (p, q).

    ``kind`` is "parity" (index reversal), "identity" or "dense".  The
    first two hold no matrix: P X and X P are a reversal or a copy, P^-1 X
    is a view of X, all equal bit for bit to the dense products, and their
    inertia is closed form.  A "dense" P holds its validated ``entries``
    and is inverted once, on first use of ``inverse``.  ``inverse_norm``
    is ||P^-1||_2, 1/min|eig P|: 1 for parity and identity, and set by
    ``as_pseudometric`` for a dense P.
    """

    kind: str
    dim: int
    signature: tuple[int, int]
    entries: np.ndarray | None = None
    inverse_norm: float = 1.0

    @classmethod
    def structured(cls, kind: str, n: int) -> "PseudoMetric":
        """The "parity" or "identity" pseudometric of dimension n."""
        if kind == "parity":
            return cls(kind, n, ((n + 1) // 2, n // 2))
        if kind == "identity":
            return cls(kind, n, (n, 0))
        raise ValueError(f"no structured pseudometric {kind!r}")

    @property
    def positive(self) -> bool:
        return self.signature[1] == 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.kind == "parity":
            return parity_matrix(self.dim)
        if self.kind == "identity":
            return np.eye(self.dim)
        return self.entries

    @cached_property
    def inverse(self) -> np.ndarray:
        """P^-1; parity and identity are their own inverses."""
        if self.kind == "dense":
            return np.linalg.inv(self.entries)
        return self.matrix

    @cached_property
    def norm(self) -> float:
        """Frobenius norm of P."""
        if self.kind == "dense":
            return float(np.linalg.norm(self.entries))
        return math.sqrt(self.dim)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P X: reverses the rows (the entries of a vector) for parity."""
        if self.kind == "parity":
            return x[::-1].copy()
        if self.kind == "identity":
            return x.copy()
        return self.entries @ x

    def apply_right(self, x: np.ndarray) -> np.ndarray:
        """X P: reverses the columns (the entries of a vector) for parity."""
        if self.kind == "parity":
            return x[..., ::-1].copy()
        if self.kind == "identity":
            return x.copy()
        return x @ self.entries

    def inverse_apply(self, x: np.ndarray) -> np.ndarray:
        """P^-1 X: a view of X for parity (its rows reversed) and identity
        (X itself), so a caller that keeps it of an argument copies it."""
        if self.kind == "dense":
            return self.inverse @ x
        return x[::-1] if self.kind == "parity" else x


def signature(p) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues of a Hermitian invertible
    matrix; raises SingularPseudoMetric on a near-null eigenvalue."""
    return as_pseudometric(p).signature


def as_pseudometric(p) -> PseudoMetric:
    """Validate a matrix into a "dense" PseudoMetric (a PseudoMetric passes
    through).  Its eigenvalues, taken once, give both its ``signature`` and
    its ``inverse_norm``."""
    if isinstance(p, PseudoMetric):
        return p
    mm = hermitian_part(p)
    w = np.linalg.eigvalsh(mm)
    scale = float(np.abs(w).max())
    if scale == 0.0 or np.any(np.abs(w) < PSEUDOMETRIC_NULL_RTOL * scale):
        raise SingularPseudoMetric(
            "pseudometric has an eigenvalue within tolerance of zero")
    pos = int(np.count_nonzero(w > 0))
    return PseudoMetric("dense", len(mm), (pos, len(mm) - pos), mm,
                        1.0 / float(np.abs(w).min()))


@dataclass(frozen=True)
class SpaceTriple:
    """The [H, R, F] bookkeeping: P meters R over F, C meters H over R,
    and their product Theta = P C, certified in ``metric``, meters H over F."""

    P: PseudoMetric
    C: np.ndarray
    metric: MetricCandidate

    @property
    def Theta(self) -> np.ndarray:
        return self.metric.theta

    @property
    def dim(self) -> int:
        return self.P.dim

    @property
    def mode(self) -> str:
        """"hilbert" when P is positive definite, "krein" otherwise."""
        return "hilbert" if self.P.positive else "krein"


def make_triple(p, c) -> SpaceTriple:
    """Compose Theta = P C and certify it as a Hermitian metric."""
    pm = as_pseudometric(p)
    cc = as_operator(c).copy()
    if cc.shape != pm.shape:
        raise DimensionMismatch(
            f"charge {cc.shape} incompatible with pseudometric {pm.shape}")
    try:
        cand = certify_metric(pm.apply(cc))
    except NonHermitianMetric as exc:
        raise NonHermitianMetric(
            f"P*C is not Hermitian; (P, C) do not factor a metric: {exc}"
        ) from exc
    return SpaceTriple(pm, cc, cand)


def pt_symmetry_residual(h, p) -> tuple[float, float]:
    """Residual of the pseudo-Hermiticity relation H^dagger P = P H, for H
    a CheckedOperator or a matrix."""
    op = checked_operator(h)
    pm = as_pseudometric(p)
    if op.shape != pm.shape:
        raise DimensionMismatch(
            f"operator {op.shape} incompatible with pseudometric {pm.shape}")
    # the norm first: that of a view such as C = P^-1 Theta takes a copy,
    # which is not held with the products
    denom = op.norm * pm.norm
    a = op.matrix
    return frobenius_deviation(pm.apply_right(a.conj().T), pm.apply(a), denom)


def charge_from_metric(theta, p) -> np.ndarray:
    """Generalized charge C = P^-1 Theta for a given metric and pseudometric.

    Hermiticity of Theta and P makes C automatically quasi-Hermitian with
    respect to P (C^dagger P = P C); nothing forces C^2 = 1 here.  C is a
    fresh array.
    """
    pm = as_pseudometric(p)
    tt = hermitian_part(theta)
    if tt.shape != pm.shape:
        raise DimensionMismatch(
            f"metric {tt.shape} incompatible with pseudometric {pm.shape}")
    return pm.inverse_apply(tt)


def require_pseudo_hermitian(rel: float, pt_rtol: float) -> None:
    """The gate that precedes the eigensolve of the standard charge: the
    relative residual ``rel`` of H^dagger P = P H (``pt_symmetry_residual``,
    which checks the shapes) must be within ``pt_rtol``."""
    if rel > pt_rtol:
        raise NotPTSymmetric(
            f"H is not pseudo-Hermitian w.r.t. P (relative residual {rel:.3e})")


def standard_charge(h, p, *, reality_tol: float = DEFAULT_TOL,
                    gap_floor: float | None = None
                    ) -> tuple[np.ndarray, MetricCandidate]:
    """Conventional involutory charge and its positive metric Theta = P C.

    Checks pseudo-Hermiticity, decomposes H, and hands the eigensystem to
    ``charge_from_spectrum``; H is checked, and its norm taken, once.
    """
    op = checked_operator(h)
    pm = as_pseudometric(p)
    require_pseudo_hermitian(pt_symmetry_residual(op, pm)[1], DEFAULT_TOL)
    return charge_from_spectrum(eigendecompose(op, gap_floor), pm,
                                reality_tol=reality_tol)


def charge_from_spectrum(s: SpectralData, p, *,
                         reality_tol: float = DEFAULT_TOL
                         ) -> tuple[np.ndarray, MetricCandidate]:
    """Standard charge C and metric Theta = P C from the eigensystem of H.

    For a P-pseudo-Hermitian H with a real simple spectrum, the left
    eigenvector pairings c_n = <phi_n|P^-1|phi_n> are real; the weights
    kappa_n = 1/|c_n| make Theta = sum kappa_n |phi_n><phi_n| positive
    definite while C = P^-1 Theta squares to the identity and commutes
    with H.  For a structured P, C is a view of Theta (``inverse_apply``).
    c_n scales as P^-1 and C not at all, so a pairing below
    PAIRING_FLOOR ||P^-1||_2 raises ExceptionalPoint.
    """
    pm = as_pseudometric(p)
    if s.dim != pm.dim:
        raise DimensionMismatch(
            f"eigensystem of dim {s.dim} incompatible with pseudometric "
            f"{pm.shape}")
    require_real_spectrum(s, reality_tol)

    phi = s.left_vectors
    # einsum's summation order follows the operands' layout: the view of a
    # structured P is copied to C order, the layout of a dense P's product,
    # so that both give the same pairings bit for bit
    c = np.einsum("ij,ij->j", phi.conj(),
                  np.ascontiguousarray(pm.inverse_apply(phi)))
    # pseudo-Hermiticity forces the pairings real; residual is roundoff
    if np.any(np.abs(c.imag) > reality_tol * np.maximum(np.abs(c), 1e-300)):
        raise NotPTSymmetric(
            "left-eigenvector pairings acquired imaginary parts; "
            "H is not consistently pseudo-Hermitian w.r.t. P")
    c = c.real
    floor = PAIRING_FLOOR * pm.inverse_norm
    if np.any(np.abs(c) < floor):
        raise ExceptionalPoint(
            f"pairing |c_n| below {floor:g}; eigensystem degenerating")

    cand = spectral_metric(s, 1.0 / np.abs(c), reality_tol=reality_tol)
    return pm.inverse_apply(cand.theta), cand


def triple_inner(t: SpaceTriple, space: str, v1, v2) -> complex:
    """Inner product of v1, v2 in the requested space of the triple.

    F weighs with the identity, R with P, and H with Theta = P C; the
    composition law <v1|v2>_H = <v1|C v2>_R holds by construction.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}, got {space!r}")
    a = as_state(v1, t.dim)
    b = as_state(v2, t.dim)
    if space == "F":
        return complex(a.conj() @ b)
    if space == "R":
        return complex(a.conj() @ t.P.apply(b))
    return complex(a.conj() @ (t.Theta @ b))


def conjugation_in(t: SpaceTriple, space: str, a) -> np.ndarray:
    """Hermitian conjugate of ``a`` in the requested space of the triple.

    F: plain adjoint; R: P^-1 A^dagger P; H: Theta^-1 A^dagger Theta.
    Each is an involution.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}, got {space!r}")
    op = checked_operator(a)
    if op.shape != t.P.shape:
        raise DimensionMismatch(
            f"operator {op.shape} incompatible with triple of dim {t.dim}")
    if space == "F":
        return np.conj(op.matrix).T
    if space == "R":
        return _r_conjugate(t.P, op.matrix)
    return _theta_solve(t.Theta, adjoint_product(op, t.Theta))


def _r_conjugate(pm: PseudoMetric, a: np.ndarray) -> np.ndarray:
    """P^-1 A^dagger P, the R-space conjugate of a checked A."""
    return pm.inverse_apply(pm.apply_right(a.conj().T))


def _theta_solve(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Theta^-1 X; raises SingularMetric for a singular Theta."""
    try:
        return np.linalg.solve(theta, x)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"Theta is numerically singular: {exc}") from exc


@dataclass(frozen=True)
class TableRow:
    """One verified relation (or reported diagnostic) of the triple."""

    name: str
    abs_residual: float | None
    rel_residual: float | None
    passed: bool | None


def verify_table(t: SpaceTriple, h, *, rtol: float = DEFAULT_TOL
                 ) -> list[TableRow]:
    """Residuals of every intertwining relation of the triple, in a fixed
    order suited to golden-file comparison.

    The six relation rows must all pass for a consistent factorization;
    the trailing rows carry positivity and signature diagnostics that
    distinguish the Hilbert and Krein readings (including the deviation of
    H from its R-space conjugate, which vanishes only in special cases and
    is reported without a verdict).  ``h`` is a CheckedOperator or a
    matrix.
    """
    op = checked_operator(h)
    if op.shape != t.P.shape:
        raise DimensionMismatch(
            f"operator {op.shape} incompatible with triple of dim {t.dim}")
    hh, nh = op.matrix, op.norm
    pm = t.P
    # C was checked where the triple was built; its bands are not read
    c_op = CheckedOperator(t.C)
    c, nc = c_op.matrix, c_op.norm

    # each relation's arrays are dropped before the next one is built; H^dagger
    # Theta serves H^sharp = Theta^-1 H^dagger Theta, H^dd C = P^-1 H^dagger
    # Theta (Theta = P C) and H^dagger Theta = Theta H, and is overwritten
    # by the last
    hd_theta = adjoint_product(op, t.Theta)
    h_sharp_dev = frobenius_deviation(_theta_solve(t.Theta, hd_theta), hh, nh)
    # the residual is taken in the buffer of C H, which is contiguous; P^-1
    # H^dagger Theta is a view of H^dagger Theta for a structured P
    hdd_c_dev = frobenius_deviation(right_product(c, op),
                                    pm.inverse_apply(hd_theta), nh * nc)
    # qh_residual, without taking H^dagger Theta again
    hd_theta_dev = frobenius_deviation(
        hd_theta, right_product(t.Theta, op),
        nh * float(np.linalg.norm(t.Theta)))
    del hd_theta
    if pm.kind == "dense":
        p_dev = frobenius_residual(pm.entries - pm.entries.conj().T, pm.norm)
    else:
        p_dev = (0.0, 0.0)  # parity and identity are Hermitian by construction

    relations = [
        ("H_sharp_eq_H", h_sharp_dev),
        ("Hdd_C_eq_C_H", hdd_c_dev),
        ("Cd_P_eq_P_C", pt_symmetry_residual(c_op, pm)),
        ("Hd_Theta_eq_Theta_H", hd_theta_dev),
        ("C_eq_Cdd", frobenius_deviation(_r_conjugate(pm, c), c, nc)),
        ("P_eq_Pd", p_dev),
    ]
    rows = [TableRow(name, abs_res, rel, bool(rel <= rtol))
            for name, (abs_res, rel) in relations]

    p_count, q_count = t.P.signature
    rows.append(TableRow("Theta_positive", t.metric.min_eig, None,
                         t.metric.positive))
    rows.append(TableRow("P_signature_plus", float(p_count), None, None))
    rows.append(TableRow("P_signature_minus", float(q_count), None, None))
    dev, dev_rel = frobenius_deviation(_r_conjugate(pm, hh), hh, nh)
    rows.append(TableRow("H_vs_Hdd_deviation", dev, dev_rel, None))
    return rows
