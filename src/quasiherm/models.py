"""Declarative model ingestion, scenario execution, and report emission.

Reports are deterministic down to the byte: rows are built in a fixed
order, floats are rendered with 17 significant digits (round-trip exact),
and the input digest is a SHA-256 over the canonicalized model document.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import __version__
from .errors import (BrokenPhase, QuasihermError, ParityViolation, SchemaError,
                     SigmaVanishes)
from .evolution import norm_traces, propagate_spectrum
from .expressions import parse_expression
from .factorization import (PseudoMetric, as_pseudometric, charge_from_spectrum,
                            make_triple, pt_symmetry_residual,
                            require_pseudo_hermitian, verify_table)
from .family import (ChargeAnsatz, Grid, charge_norm, charge_pg_hermiticity,
                     coefficient_match, compatible_split, compose_pct_residual,
                     discretize_hamiltonian, even_part, forward_family,
                     inverse_family, make_ansatz, make_grid, make_split,
                     odd_part, ode_pair_residual, parity_deviation,
                     tridiagonal)
from .metrics import (MetricCandidate, frobenius_residual, qh_residual,
                      spectral_metric)
from .operators import parity_matrix
from .spectral import SpectralData, eigendecompose, is_real_spectrum

DEFAULT_TOL = 1e-10

# matrices are embedded in reports only up to this dimension
MATRIX_ROW_DIM_CAP = 12

# largest lattice site count or Schroedinger grid size, checked before
# anything is allocated: the analysis holds about eight such dense matrices
MAX_DENSE_DIM = 2048

MODEL_KINDS = ("matrix", "lattice", "schroedinger", "family")

# parity tagging tolerance for expression-sampled model functions
MODEL_PARITY_RTOL = 1e-10


# ---------------------------------------------------------------------------
# canonical serialization

def format_float(x: float) -> str:
    """17-significant-digit rendering; round-trip exact for doubles."""
    if not np.isfinite(x):
        return json.dumps(str(x))
    return format(float(x), ".17g")


def canonical_json(obj, sort_keys: bool = False) -> str:
    """Minimal deterministic JSON writer with fixed float rendering."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v, sort_keys) for v in obj) + "]"
    if isinstance(obj, dict):
        keys = sorted(obj) if sort_keys else list(obj)
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + canonical_json(obj[k], sort_keys)
            for k in keys) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def jsonable(value):
    """Convert numerics (incl. complex and arrays) to report-safe values."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot embed {type(value).__name__} in a report")


# ---------------------------------------------------------------------------
# model documents

@dataclass(frozen=True)
class ModelSpec:
    """Validated model with its canonical source document and digest."""

    kind: str
    payload: dict
    document: dict
    digest: str


@dataclass(frozen=True)
class ReportRow:
    name: str
    value: object
    passed: bool | None
    tol: float | None


@dataclass(frozen=True)
class Report:
    scenario: str
    digest: str
    version: str
    rows: list[ReportRow]
    series: list[tuple] | None = None

    @property
    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    def to_json(self) -> str:
        doc = {
            "scenario": self.scenario,
            "digest": self.digest,
            "version": self.version,
            "rows": [
                {"name": r.name, "value": r.value, "pass": r.passed,
                 "tol": r.tol}
                for r in self.rows
            ],
        }
        return canonical_json(doc) + "\n"

    def to_csv(self) -> str:
        lines = []
        if self.series is not None:
            lines.append("t_or_x,series,value")
            for t, name, value in self.series:
                lines.append(f"{format_float(t)},{name},{format_float(value)}")
        else:
            lines.append("name,value,pass,tol")
            for r in self.rows:
                passed = "" if r.passed is None else str(bool(r.passed)).lower()
                tol = "" if r.tol is None else format_float(r.tol)
                value = canonical_json(r.value)
                if "," in value or '"' in value:
                    value = '"' + value.replace('"', '""') + '"'
                lines.append(f"{r.name},{value},{passed},{tol}")
        return "\n".join(lines) + "\n"


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError("missing required field", f"{path}{key}")
    return doc[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_complex(parts, value, path: str) -> complex:
    """complex(*parts) for JSON numbers ``parts`` read from ``value``; inf,
    nan and integers beyond the float range are schema errors."""
    try:
        z = complex(*parts)
    except OverflowError:
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise SchemaError(f"expected a finite number, got {value!r}", path)
    return z


def _as_number(value, path: str) -> float:
    if not _is_number(value):
        raise SchemaError(f"expected a number, got {value!r}", path)
    return _finite_complex((value,), value, path).real


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {value!r}", path)
    return value


def _as_complex_entry(value, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(_is_number(v) for v in parts):
        raise SchemaError(f"expected [re, im] pair, got {value!r}", path)
    return _finite_complex(parts, value, path)


def _parse_matrix(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError("expected a non-empty list of rows", path)
    n = len(data)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"row must have {n} entries", f"{path}[{i}]")
        for j, entry in enumerate(row):
            out[i, j] = _as_complex_entry(entry, f"{path}[{i}][{j}]")
    return out


def _parse_grid(doc, path: str, max_points: float = math.inf) -> Grid:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object with L and N", path)
    length = _as_number(_need(doc, "L", f"{path}."), f"{path}.L")
    npts = _as_int(_need(doc, "N", f"{path}."), f"{path}.N")
    extra = set(doc) - {"L", "N"}
    if extra:
        raise SchemaError(f"unknown fields {sorted(extra)}", path)
    if length <= 0:
        raise SchemaError("L must be positive", f"{path}.L")
    if npts < 5 or npts % 2 == 0:
        raise SchemaError("N must be an odd integer >= 5", f"{path}.N")
    if npts > max_points:
        raise SchemaError(f"N must be at most {max_points}", f"{path}.N")
    return make_grid(length, npts)


def _sample_expression(text, grid: Grid, path: str) -> np.ndarray:
    if not isinstance(text, str):
        raise SchemaError(f"expected an expression string, got {text!r}", path)
    expr = parse_expression(text)
    return expr.sample(grid.points)


def _sample_with_parity(text, grid: Grid, sign: int, path: str) -> np.ndarray:
    raw = _sample_expression(text, grid, path)
    proj = even_part(raw) if sign == 1 else odd_part(raw)
    lost = float(np.abs(raw - proj).max())
    scale = max(1.0, float(np.abs(raw).max()))
    if lost > MODEL_PARITY_RTOL * scale:
        kind = "even" if sign == 1 else "odd"
        raise ParityViolation(
            f"{path}: function tagged {kind} has asymmetry {lost:.3e}")
    return proj


def _build_lattice(doc: dict) -> np.ndarray:
    n = _as_int(_need(doc, "n", ""), "n")
    if n < 2:
        raise SchemaError("need at least two sites", "n")
    if n > MAX_DENSE_DIM:
        raise SchemaError(f"at most {MAX_DENSE_DIM} sites", "n")
    coupling = _as_number(doc.get("coupling", 1.0), "coupling")
    gamma = _as_number(doc.get("gamma", 0.0), "gamma")
    pattern = doc.get("pattern", "endpoints")
    if pattern not in ("endpoints", "alternating"):
        raise SchemaError(f"unknown pattern {pattern!r}", "pattern")
    if pattern == "alternating" and n % 2 == 1:
        raise SchemaError(
            "alternating gain/loss needs an even site count", "pattern")
    diag = np.zeros(n, dtype=complex)
    if pattern == "endpoints":
        diag[0], diag[-1] = 1j * gamma, -1j * gamma
    else:
        diag += 1j * gamma * (-1.0) ** np.arange(n)
    off = np.full(n - 1, coupling, dtype=complex)
    return tridiagonal(off, diag, off)


def parse_model(document) -> ModelSpec:
    """Validate a model document (dict or JSON text) into a ModelSpec."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("model document must be an object")
    kind = _need(document, "kind", "")
    if kind not in MODEL_KINDS:
        raise SchemaError(f"kind must be one of {MODEL_KINDS}", "kind")

    payload: dict = {}
    if kind == "matrix":
        payload["matrix"] = _parse_matrix(_need(document, "data", ""), "data")
    elif kind == "lattice":
        payload["matrix"] = _build_lattice(document)
    elif kind == "schroedinger":
        grid = _parse_grid(_need(document, "grid", ""), "grid", MAX_DENSE_DIM)
        v_re = _sample_expression(document.get("V_real", "0"), grid, "V_real")
        v_im = _sample_expression(document.get("V_imag", "0"), grid, "V_imag")
        payload["grid"] = grid
        payload["potential"] = v_re + 1j * v_im
    else:  # family
        grid = _parse_grid(_need(document, "grid", ""), "grid")
        sigma = _sample_with_parity(_need(document, "sigma", ""), grid, +1,
                                    "sigma")
        alpha = _sample_with_parity(_need(document, "alpha", ""), grid, -1,
                                    "alpha")
        omega = _as_number(document.get("omega", 0.0), "omega")
        payload["grid"] = grid
        payload["ansatz"] = make_ansatz(grid, sigma, alpha, omega)
        if "S" in document or "Lambda" in document:
            s_even = _sample_with_parity(_need(document, "S", ""), grid, +1, "S")
            lam_odd = _sample_with_parity(_need(document, "Lambda", ""), grid,
                                          -1, "Lambda")
            payload["s_even"] = s_even
            payload["lam_odd"] = lam_odd

    if "pseudometric" in document:
        pchoice = document["pseudometric"]
        if pchoice in ("parity", "identity"):
            payload["pseudometric"] = pchoice
        elif isinstance(pchoice, list):
            payload["pseudometric"] = _parse_matrix(pchoice, "pseudometric")
        else:
            raise SchemaError(
                "pseudometric must be 'parity', 'identity', or a matrix",
                "pseudometric")

    digest = hashlib.sha256(
        canonical_json(document, sort_keys=True).encode()).hexdigest()
    return ModelSpec(kind, payload, document, digest)


# ---------------------------------------------------------------------------
# scenario execution

def _gap_floor(spec: ModelSpec, opts: dict) -> float | None:
    """Degeneracy floor for scenario eigendecompositions.

    Discretized Schroedinger operators legitimately carry near-degenerate
    doublets at the top of the finite-difference band (states localized at
    the two walls), so the library default would reject every confining
    potential on a fine grid; those artifact doublets are harmless for the
    reported residuals.
    """
    if "gap_floor" in opts and opts["gap_floor"] is not None:
        return float(opts["gap_floor"])
    return 0.0 if spec.kind == "schroedinger" else None


class _Analysis:
    """The chain of one model under fixed options: H, its eigensystem, the
    pseudometric P, the default metric Theta and the standard charge C.

    Every task of a scenario or battery reads from one instance.  Each
    quantity is built on first use and kept only if the build succeeds, so
    a task that needs nothing raises nothing, and a domain error is raised
    afresh, with the same text, by every task that needs the quantity.
    """

    def __init__(self, spec: ModelSpec, opts: dict, tol: float):
        self.spec = spec
        self.opts = opts
        self.tol = tol

    @cached_property
    def h(self) -> np.ndarray:
        payload = self.spec.payload
        if "matrix" in payload:
            return payload["matrix"]
        if self.spec.kind == "schroedinger":
            return discretize_hamiltonian(payload["grid"], payload["potential"])
        raise SchemaError(
            f"task needs an operator model, got kind {self.spec.kind!r}")

    @cached_property
    def spectrum(self) -> SpectralData:
        return eigendecompose(self.h, _gap_floor(self.spec, self.opts))

    @cached_property
    def pseudometric(self) -> PseudoMetric:
        choice = self.spec.payload.get("pseudometric", "parity")
        if isinstance(choice, str):
            dim = self.h.shape[0]
            choice = (np.eye(dim, dtype=complex) if choice == "identity"
                      else parity_matrix(dim))
        return as_pseudometric(choice)

    @cached_property
    def pt_residual(self) -> float:
        return pt_symmetry_residual(self.h, self.pseudometric)[1]

    @cached_property
    def metric(self) -> MetricCandidate:
        """Default-weight spectral metric; requires a real spectrum."""
        return spectral_metric(self.spectrum, reality_tol=self.tol)

    @cached_property
    def charge(self) -> tuple[np.ndarray, MetricCandidate]:
        """``standard_charge`` of H and P, gated before the eigensolve."""
        pm = self.pseudometric
        require_pseudo_hermitian(self.h, pm, lambda: self.pt_residual,
                                 self.tol)
        return charge_from_spectrum(self.spectrum, pm, reality_tol=self.tol)


def _row(name, value, passed=None, tol=None) -> ReportRow:
    """The one row constructor; ``passed`` is a Python bool or None."""
    return ReportRow(name, jsonable(value),
                     None if passed is None else bool(passed), tol)


def _task_spectrum(a: _Analysis, opts, tol):
    h = a.h
    s = a.spectrum
    real, max_imag = is_real_spectrum(s, tol)
    _, recon_rel = frobenius_residual(h - s.reconstruction(),
                                      np.linalg.norm(h))
    pairing_dev = np.linalg.norm(s.pairing() - np.eye(s.dim))
    rows = [
        _row("dim", s.dim),
        _row("eigenvalues", s.eigenvalues),
        _row("spectrum_real", bool(real)),
        _row("max_imag", max_imag),
        _row("min_gap", s.min_gap),
        _row("reconstruction_rel", recon_rel, recon_rel <= 1e-9, 1e-9),
        _row("biorthonormality_dev", pairing_dev, pairing_dev <= 1e-10, 1e-10),
    ]
    return rows, None


def _task_metric(a: _Analysis, opts, tol):
    cand = a.metric
    qh_abs, qh_rel = qh_residual(a.h, cand.theta)
    rows = [
        _row("qh_residual_rel", qh_rel, qh_rel <= tol, tol),
        _row("qh_residual_abs", qh_abs),
        _row("theta_min_eig", cand.min_eig),
        _row("theta_max_eig", cand.max_eig),
        _row("theta_positive", bool(cand.positive), bool(cand.positive)),
        _row("theta_condition", cand.condition),
    ]
    if cand.theta.shape[0] <= MATRIX_ROW_DIM_CAP:
        rows.append(_row("theta", cand.theta))
    return rows, None


def _task_factorize(a: _Analysis, opts, tol):
    h = a.h
    pm = a.pseudometric
    pt_rel = a.pt_residual
    charge, cand = a.charge
    qh_abs, qh_rel = qh_residual(h, cand.theta)
    _, c2_dev = frobenius_residual(charge @ charge - np.eye(h.shape[0]),
                                   np.linalg.norm(charge) ** 2)
    rows = [
        _row("pt_residual_rel", pt_rel, pt_rel <= tol, tol),
        _row("charge_involution_rel", c2_dev, c2_dev <= tol, tol),
        _row("qh_residual_rel", qh_rel, qh_rel <= tol, tol),
        _row("qh_residual_abs", qh_abs),
        _row("theta_positive", bool(cand.positive), bool(cand.positive)),
        _row("theta_eigenvalues", cand.eigenvalues),
        _row("p_signature", [pm.signature[0], pm.signature[1]]),
    ]
    if h.shape[0] <= MATRIX_ROW_DIM_CAP:
        rows.append(_row("charge", charge))
        rows.append(_row("theta", cand.theta))
    return rows, None


def _task_table(a: _Analysis, opts, tol):
    h = a.h
    charge, _ = a.charge
    triple = make_triple(a.pseudometric, charge)
    rows = [_row("mode", triple.mode)]
    for trow in verify_table(triple, h, rtol=tol):
        value = trow.rel_residual if trow.rel_residual is not None \
            else trow.abs_residual
        row_tol = tol if trow.passed is not None and trow.rel_residual is not None \
            else None
        rows.append(_row(trow.name, value, trow.passed, row_tol))
    return rows, None


def _psi0_from_options(opts, dim: int) -> np.ndarray:
    psi0 = opts.get("psi0", 0)
    if isinstance(psi0, int):
        if not 0 <= psi0 < dim:
            raise SchemaError(f"psi0 index out of range for dim {dim}", "psi0")
        vec = np.zeros(dim, dtype=complex)
        vec[psi0] = 1.0
        return vec
    arr = np.asarray([_as_complex_entry(v, "psi0") for v in psi0],
                     dtype=complex)
    if arr.size != dim:
        raise SchemaError(f"psi0 must have dimension {dim}", "psi0")
    return arr


def _task_evolve(a: _Analysis, opts, tol):
    h = a.h
    t_max = float(opts.get("t_max", 20.0))
    steps = int(opts.get("steps", 200))
    if t_max <= 0 or steps < 2:
        raise SchemaError("need t_max > 0 and steps >= 2", "evolve")
    psi0 = _psi0_from_options(opts, h.shape[0])
    times = np.linspace(0.0, t_max, steps)
    traj = propagate_spectrum(a.spectrum, psi0, times)

    metrics = {"identity": np.eye(h.shape[0], dtype=complex)}
    real, max_imag = is_real_spectrum(a.spectrum, tol)
    if real:
        metrics["theta"] = a.metric.theta
    series = norm_traces(traj, metrics)

    ident = np.array([v for _, name, v in series if name == "identity"])
    rows = [
        _row("spectrum_real", bool(real)),
        _row("fnorm_ratio", float(ident.max() / ident.min())),
    ]
    if real:
        theta_vals = np.array([v for _, name, v in series if name == "theta"])
        drift = float(np.abs(theta_vals - theta_vals[0]).max()
                      / abs(theta_vals[0]))
        rows.append(_row("theta_drift_rel", drift, drift <= 1e-9, 1e-9))
    else:
        # asymptotic doubling rate of the squared norm, 2*max|Im lambda|
        t1, t2 = traj.times[steps // 2], traj.times[-1]
        v1 = ident[steps // 2]
        v2 = ident[-1]
        rate = float(np.log(v2 / v1) / (t2 - t1))
        rows.append(_row("fnorm_growth_rate", rate))
        rows.append(_row("max_imag", max_imag))
    return rows, series


def _series(x: np.ndarray, named: list) -> list[tuple]:
    """Point-major (x, name, value) series rows of ``(name, samples)``."""
    columns = [(name, samples.tolist()) for name, samples in named]
    return [(xj, name, col[j]) for j, xj in enumerate(x.tolist())
            for name, col in columns]


def _family_parts(spec: ModelSpec) -> tuple[Grid, ChargeAnsatz]:
    if spec.kind != "family":
        raise SchemaError(f"task needs a family model, got kind {spec.kind!r}")
    return spec.payload["grid"], spec.payload["ansatz"]


def _task_family_forward(a: _Analysis, opts, tol):
    grid, ansatz = _family_parts(a.spec)
    s_even, lam_odd = forward_family(ansatz)
    split = compatible_split(ansatz, grid)
    s_parity = parity_deviation(s_even, +1)
    lam_parity = parity_deviation(lam_odd, -1)
    rows = [
        _row("S_parity_dev", s_parity, s_parity <= 1e-12, 1e-12),
        _row("Lambda_parity_dev", lam_parity, lam_parity <= 1e-12, 1e-12),
        _row("S_sup", float(np.abs(s_even).max())),
        _row("Lambda_sup", float(np.abs(lam_odd).max())),
        _row("real_odd_sup", float(np.abs(split.real_odd).max())),
        _row("imag_even_sup", float(np.abs(split.imag_even).max())),
    ]
    return rows, _series(grid.points, [
        ("sigma", ansatz.sigma), ("alpha", ansatz.alpha),
        ("S", s_even), ("Lambda", lam_odd),
        ("real_odd", split.real_odd), ("imag_even", split.imag_even)])


def _task_family_inverse(a: _Analysis, opts, tol):
    spec = a.spec
    grid, ansatz = _family_parts(spec)
    branch = int(opts.get("branch", +1))
    if "s_even" in spec.payload:
        s_even = spec.payload["s_even"]
        lam_odd = spec.payload["lam_odd"]
        roundtrip = False
    else:
        s_even, lam_odd = forward_family(ansatz)
        roundtrip = True
    recovered = inverse_family(s_even, lam_odd, ansatz.omega, grid,
                               branch=branch)
    rows = [_row("omega_sign_convention", "S_minus_omega")]
    if roundtrip:
        mask = np.abs(ansatz.sigma) > 1e-6
        sig_err = float(np.abs(branch * recovered.sigma
                               - ansatz.sigma)[mask].max())
        alp_err = float(np.abs(branch * recovered.alpha
                               - ansatz.alpha)[mask].max())
        rows.append(_row("sigma_roundtrip_max", sig_err,
                         sig_err <= 1e-12, 1e-12))
        rows.append(_row("alpha_roundtrip_max", alp_err,
                         alp_err <= 1e-12, 1e-12))
    rows.append(_row("omega", ansatz.omega))
    rows.append(_row("branch", branch))
    return rows, _series(grid.points, [("sigma_recovered", recovered.sigma),
                                       ("alpha_recovered", recovered.alpha)])


def _task_family_check(a: _Analysis, opts, tol):
    spec = a.spec
    grid, ansatz = _family_parts(spec)
    full = compatible_split(ansatz, grid)
    zeros = np.zeros(grid.npoints)
    s_even, lam_odd = forward_family(ansatz)
    partial = make_split(grid, s_even, zeros, zeros, lam_odd)

    cm = coefficient_match(ansatz, full, grid)
    pg = charge_pg_hermiticity(ansatz, grid)
    pc_scale = charge_norm(ansatz, grid)
    r1, r2 = ode_pair_residual(ansatz, s_even, lam_odd, grid)
    compose_full = compose_pct_residual(ansatz, full, grid)
    compose_partial = compose_pct_residual(ansatz, partial, grid)

    rows = [
        _row("d3_sup", cm.sup(3), cm.sup(3) <= 1e-13, 1e-13),
        _row("d2_sup", cm.sup(2), cm.sup(2) <= 1e-13, 1e-13),
        _row("d1_sup", cm.sup(1)),
        _row("d0_sup", cm.sup(0)),
        _row("pg_hermiticity", pg, pg <= 1e-13 * max(pc_scale, 1.0), 1e-13),
        _row("ode_residual_S", r1),
        _row("ode_residual_Lambda", r2),
        _row("compose_residual_full_split", compose_full),
        _row("compose_residual_s_lambda_only", compose_partial),
    ]

    levels = int(opts.get("refine", 0))
    if levels > 0:
        # refinement re-samples the model expressions on h -> h/2 grids
        prev = (r1, r2)
        n_pts = grid.npoints
        for k in range(1, levels + 1):
            n_pts = 2 * n_pts - 1
            fine = make_grid(grid.half_width, n_pts)
            sig = _sample_with_parity(spec.document["sigma"], fine, +1, "sigma")
            alp = _sample_with_parity(spec.document["alpha"], fine, -1, "alpha")
            fine_ansatz = make_ansatz(fine, sig, alp, ansatz.omega)
            fs, fl = forward_family(fine_ansatz)
            fr1, fr2 = ode_pair_residual(fine_ansatz, fs, fl, fine)
            rows.append(_row(f"ode_residual_S_level{k}", fr1))
            rows.append(_row(f"ode_residual_Lambda_level{k}", fr2))
            floor = 100 * np.finfo(float).eps
            if prev[0] > floor and fr1 > floor:
                rows.append(_row(f"ode_ratio_S_level{k}", prev[0] / fr1))
            if prev[1] > floor and fr2 > floor:
                rows.append(_row(f"ode_ratio_Lambda_level{k}", prev[1] / fr2))
            prev = (fr1, fr2)

    return rows, _series(cm.x, [("d1_abs", np.abs(cm.d1)),
                                ("d0_abs", np.abs(cm.d0))])


# the tasks of a battery on an operator model and on a family model, in
# report order
OPERATOR_TASKS = ("spectrum", "metric", "factorize", "table", "evolve")
FAMILY_TASKS = ("family-forward", "family-inverse", "family-check")

_TASKS = dict(zip(OPERATOR_TASKS + FAMILY_TASKS, (
    _task_spectrum, _task_metric, _task_factorize, _task_table, _task_evolve,
    _task_family_forward, _task_family_inverse, _task_family_check),
    strict=True))


def _error_value(exc: QuasihermError):
    if isinstance(exc, BrokenPhase):
        return exc.max_imag
    if isinstance(exc, SigmaVanishes):
        return list(exc.indices)
    return str(exc)


def _run_task(a: _Analysis, task: str) -> tuple[list, list | None]:
    """Rows and series of one task; a domain error becomes one failed row."""
    try:
        return _TASKS[task](a, a.opts, a.tol)
    except QuasihermError as exc:
        return [_row(exc.code, _error_value(exc), False)], None


def run_scenario(spec: ModelSpec, task: str, options=None, *,
                 tol: float = DEFAULT_TOL) -> Report:
    """Dispatch a task against a model; domain errors become failed rows."""
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {sorted(_TASKS)}")
    rows, series = _run_task(_Analysis(spec, dict(options or {}), tol), task)
    return Report(scenario=f"{spec.kind}/{task}", digest=spec.digest,
                  version=__version__, rows=rows, series=series)


def run_battery(spec: ModelSpec, options=None, *,
                tol: float = DEFAULT_TOL) -> Report:
    """Run every task applicable to the model kind; rows are prefixed with
    the task name.  The tasks share one analysis, so the eigenproblem is
    solved once and Theta and C are built once."""
    tasks = FAMILY_TASKS if spec.kind == "family" else OPERATOR_TASKS
    analysis = _Analysis(spec, dict(options or {}), tol)
    rows: list[ReportRow] = []
    for task in tasks:
        sub_rows, _ = _run_task(analysis, task)
        for r in sub_rows:
            rows.append(replace(r, name=f"{task}.{r.name}"))
    return Report(scenario=f"{spec.kind}/report", digest=spec.digest,
                  version=__version__, rows=rows, series=None)
