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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DimensionMismatch, ExceptionalPoint, NonHermitianMetric,
                     NotPTSymmetric, SingularMetric, SingularPseudoMetric)
from .metrics import (MetricCandidate, certify_metric, frobenius_residual,
                      qh_residual, spectral_metric)
from .operators import as_operator, as_state, require_metric
from .spectral import (DEFAULT_REALITY_TOL, SpectralData, eigendecompose,
                       require_real_spectrum)

# eigenvalues within this relative distance of zero make P uninvertible
PSEUDOMETRIC_NULL_RTOL = 1e-10

DEFAULT_PT_RTOL = 1e-10
PAIRING_FLOOR = 1e-10

SPACES = ("F", "R", "H")


@dataclass(frozen=True)
class PseudoMetric:
    """Hermitian invertible matrix with its inertia (p, q)."""

    matrix: np.ndarray
    signature: tuple[int, int]

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def positive(self) -> bool:
        return self.signature[1] == 0

    def inverse_apply(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, rhs)


def signature(p) -> tuple[int, int]:
    """Counts of positive and negative eigenvalues of a Hermitian invertible
    matrix; raises SingularPseudoMetric on a near-null eigenvalue."""
    mm = require_metric(p)
    w = np.linalg.eigvalsh(mm)
    scale = float(np.abs(w).max())
    if scale == 0.0 or np.any(np.abs(w) < PSEUDOMETRIC_NULL_RTOL * scale):
        raise SingularPseudoMetric(
            "pseudometric has an eigenvalue within tolerance of zero")
    pos = int(np.count_nonzero(w > 0))
    return pos, int(w.size) - pos


def as_pseudometric(p) -> PseudoMetric:
    """Validate a matrix (or pass through a PseudoMetric) into a PseudoMetric."""
    if isinstance(p, PseudoMetric):
        return p
    mm = require_metric(p)
    return PseudoMetric(mm, signature(mm))


@dataclass(frozen=True)
class SpaceTriple:
    """The [H, R, F] bookkeeping: P meters R over F, C meters H over R,
    and their product Theta = P C meters H over F."""

    P: PseudoMetric
    C: np.ndarray
    Theta: np.ndarray

    @property
    def dim(self) -> int:
        return self.P.dim

    @property
    def mode(self) -> str:
        """"hilbert" when P is positive definite, "krein" otherwise."""
        return "hilbert" if self.P.positive else "krein"


def make_triple(p, c) -> SpaceTriple:
    """Compose Theta = P C and validate that it is a Hermitian metric."""
    pm = as_pseudometric(p)
    cc = as_operator(c)
    if cc.shape != pm.matrix.shape:
        raise DimensionMismatch(
            f"charge {cc.shape} incompatible with pseudometric {pm.matrix.shape}")
    theta = pm.matrix @ cc
    try:
        theta = require_metric(theta)
    except NonHermitianMetric as exc:
        raise NonHermitianMetric(
            f"P*C is not Hermitian; (P, C) do not factor a metric: {exc}"
        ) from exc
    return SpaceTriple(pm, cc, theta)


def pt_symmetry_residual(h, p) -> tuple[float, float]:
    """Residual of the pseudo-Hermiticity relation H^dagger P = P H."""
    pm = as_pseudometric(p)
    return qh_residual(h, pm.matrix)


def charge_from_metric(theta, p) -> np.ndarray:
    """Generalized charge C = P^-1 Theta for a given metric and pseudometric.

    Hermiticity of Theta and P makes C automatically quasi-Hermitian with
    respect to P (C^dagger P = P C); nothing forces C^2 = 1 here.
    """
    pm = as_pseudometric(p)
    tt = require_metric(theta)
    if tt.shape != pm.matrix.shape:
        raise DimensionMismatch(
            f"metric {tt.shape} incompatible with pseudometric {pm.matrix.shape}")
    return pm.inverse_apply(tt)


def require_pseudo_hermitian(h: np.ndarray, pm: PseudoMetric,
                             pt_rel: Callable[[], float], pt_rtol: float
                             ) -> None:
    """The checks that precede the eigensolve of the standard charge.

    ``pt_rel`` returns the relative residual of H^dagger P = P H; it runs
    only once the shapes of H and P are known to match.
    """
    if h.shape != pm.matrix.shape:
        raise DimensionMismatch(
            f"operator {h.shape} incompatible with pseudometric {pm.matrix.shape}")
    rel = pt_rel()
    if rel > pt_rtol:
        raise NotPTSymmetric(
            f"H is not pseudo-Hermitian w.r.t. P (relative residual {rel:.3e})")


def standard_charge(h, p, *, reality_tol: float = DEFAULT_REALITY_TOL,
                    pairing_floor: float = PAIRING_FLOOR,
                    gap_floor: float | None = None
                    ) -> tuple[np.ndarray, MetricCandidate]:
    """Conventional involutory charge and its positive metric Theta = P C.

    Checks pseudo-Hermiticity, decomposes H, and hands the eigensystem to
    ``charge_from_spectrum``.
    """
    hh = as_operator(h)
    pm = as_pseudometric(p)
    require_pseudo_hermitian(hh, pm, lambda: pt_symmetry_residual(hh, pm)[1],
                             DEFAULT_PT_RTOL)
    return charge_from_spectrum(eigendecompose(hh, gap_floor), pm,
                                reality_tol=reality_tol,
                                pairing_floor=pairing_floor)


def charge_from_spectrum(s: SpectralData, p, *,
                         reality_tol: float = DEFAULT_REALITY_TOL,
                         pairing_floor: float = PAIRING_FLOOR
                         ) -> tuple[np.ndarray, MetricCandidate]:
    """Standard charge C and metric Theta = P C from the eigensystem of H.

    For a P-pseudo-Hermitian H with a real simple spectrum, the left
    eigenvector pairings c_n = <phi_n|P^-1|phi_n> are real; the weights
    kappa_n = 1/|c_n| make Theta = sum kappa_n |phi_n><phi_n| positive
    definite while C = P^-1 Theta squares to the identity and commutes
    with H.
    """
    pm = as_pseudometric(p)
    if s.dim != pm.dim:
        raise DimensionMismatch(
            f"eigensystem of dim {s.dim} incompatible with pseudometric "
            f"{pm.matrix.shape}")
    require_real_spectrum(s, reality_tol)

    phi = s.left_vectors
    c = np.einsum("ij,ij->j", phi.conj(), pm.inverse_apply(phi))
    # pseudo-Hermiticity forces the pairings real; residual is roundoff
    if np.any(np.abs(c.imag) > reality_tol * np.maximum(np.abs(c), 1e-300)):
        raise NotPTSymmetric(
            "left-eigenvector pairings acquired imaginary parts; "
            "H is not consistently pseudo-Hermitian w.r.t. P")
    c = c.real
    if np.any(np.abs(c) < pairing_floor):
        raise ExceptionalPoint(
            f"pairing |c_n| below {pairing_floor:g}; eigensystem degenerating")

    cand = spectral_metric(s, 1.0 / np.abs(c), reality_tol=reality_tol)
    charge = pm.inverse_apply(cand.theta)
    return charge, cand


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
        return complex(a.conj() @ (t.P.matrix @ b))
    return complex(a.conj() @ (t.Theta @ b))


def conjugation_in(t: SpaceTriple, space: str, a) -> np.ndarray:
    """Hermitian conjugate of ``a`` in the requested space of the triple.

    F: plain adjoint; R: P^-1 A^dagger P; H: Theta^-1 A^dagger Theta.
    Each is an involution.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}, got {space!r}")
    aa = as_operator(a)
    if aa.shape != t.P.matrix.shape:
        raise DimensionMismatch(
            f"operator {aa.shape} incompatible with triple of dim {t.dim}")
    if space == "F":
        return aa.conj().T
    if space == "R":
        return t.P.inverse_apply(aa.conj().T @ t.P.matrix)
    try:
        return np.linalg.solve(t.Theta, aa.conj().T @ t.Theta)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"Theta is numerically singular: {exc}") from exc


@dataclass(frozen=True)
class TableRow:
    """One verified relation (or reported diagnostic) of the triple."""

    name: str
    abs_residual: float | None
    rel_residual: float | None
    passed: bool | None


def verify_table(t: SpaceTriple, h, *, rtol: float = 1e-10) -> list[TableRow]:
    """Residuals of every intertwining relation of the triple, in a fixed
    order suited to golden-file comparison.

    The six relation rows must all pass for a consistent factorization;
    the trailing rows carry positivity and signature diagnostics that
    distinguish the Hilbert and Krein readings (including the deviation of
    H from its R-space conjugate, which vanishes only in special cases and
    is reported without a verdict).
    """
    hh = as_operator(h)
    if hh.shape != t.P.matrix.shape:
        raise DimensionMismatch(
            f"operator {hh.shape} incompatible with triple of dim {t.dim}")
    pmat = t.P.matrix
    c = t.C
    theta = t.Theta
    nh = float(np.linalg.norm(hh))
    nc = float(np.linalg.norm(c))
    npm = float(np.linalg.norm(pmat))

    h_sharp = conjugation_in(t, "H", hh)
    h_ddag = conjugation_in(t, "R", hh)
    c_ddag = conjugation_in(t, "R", c)

    relations = [
        ("H_sharp_eq_H", frobenius_residual(h_sharp - hh, nh)),
        ("Hdd_C_eq_C_H", frobenius_residual(h_ddag @ c - c @ hh, nh * nc)),
        ("Cd_P_eq_P_C", qh_residual(c, pmat)),
        ("Hd_Theta_eq_Theta_H", qh_residual(hh, theta)),
        ("C_eq_Cdd", frobenius_residual(c_ddag - c, nc)),
        ("P_eq_Pd", frobenius_residual(pmat - pmat.conj().T, npm)),
    ]
    rows = [TableRow(name, abs_res, rel, bool(rel <= rtol))
            for name, (abs_res, rel) in relations]

    cand = certify_metric(theta)
    p_count, q_count = t.P.signature
    rows.append(TableRow("Theta_positive", cand.min_eig, None, cand.positive))
    rows.append(TableRow("P_signature_plus", float(p_count), None, None))
    rows.append(TableRow("P_signature_minus", float(q_count), None, None))
    dev, dev_rel = frobenius_residual(h_ddag - hh, nh)
    rows.append(TableRow("H_vs_Hdd_deviation", dev, dev_rel, None))
    return rows
