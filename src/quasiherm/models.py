"""Declarative model ingestion, scenario execution, and report emission.

Reports are deterministic down to the byte: rows are built in a fixed
order, floats are rendered with 17 significant digits (round-trip exact),
and the input digest is a SHA-256 over the canonicalized model document.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import (BrokenPhase, InaccurateEigensystem, QuasihermError,
                     ParityViolation, SchemaError, SigmaVanishes)
from .evolution import norm_trace_columns, propagate_spectrum
from .expressions import Expression, Sampler, parse_expression
from .factorization import (PseudoMetric, SpaceTriple, as_pseudometric,
                            charge_from_spectrum, pt_symmetry_residual,
                            require_pseudo_hermitian, verify_table)
from .family import (SIGMA_FLOOR, ChargeAnsatz, Grid, PotentialSplit,
                     charge_norm, charge_pg_hermiticity, coefficient_match,
                     compatible_split, compose_pct_residual, even_part,
                     forward_family, hamiltonian_bands, inverse_family,
                     make_grid, ode_pair_residual, odd_part, parity_deviation,
                     tridiagonal)
from .metrics import (MetricCandidate, frobenius_residual, qh_residual,
                      spectral_metric)
from .operators import CheckedOperator
from .spectral import (SpectralData, eigendecompose, is_real_spectrum,
                       matrix_from_real_form, real_form, state_to_real_form)

DEFAULT_TOL = 1e-10

# tolerances of the eigensystem's own checks: the relative Frobenius norm of
# H - sum_n lambda_n |psi_n><phi_n| and the Frobenius deviation of the
# pairing <phi_m|psi_n> from the identity
RECONSTRUCTION_TOL = 1e-9
PAIRING_TOL = 1e-10

# matrices are embedded in reports only up to this dimension
MATRIX_ROW_DIM_CAP = 12

# largest lattice site count or Schroedinger grid size, checked before
# anything is allocated.  Counted in float64 N x N arrays (tracemalloc,
# N = 301), a run holds 2 (harmonic model: H and its eigenvectors) to 3 (PT
# lattice: the real form and both eigenvector sets).  Run alone, each task
# after the eigensolve peaks at 6.2 or less, and evolve at 8.7 with its
# 200 x N complex trajectory; in a report, which keeps both metrics, at
# 7.2 and 9.7 (a broken phase holds more).  A report at N = 2047 peaks at
# 300 MB RSS on the harmonic model and 336 MB on the PT lattice.
MAX_DENSE_DIM = 2048

# largest steps x dim of an evolve task, checked before the time grid is
# built: the trajectory and its phase factors each hold that many complex
# entries (64 MiB apiece at this cap)
MAX_EVOLVE_ENTRIES = 2 ** 22

# largest finest grid of family check --refine, 2^k (N - 1) + 1 points,
# checked before any level is sampled: each level samples the model
# expressions and runs the banded checks on a few dozen grid-sized arrays
MAX_REFINED_POINTS = 2 ** 20 + 1

# points of a report series rendered per write of Report.write_csv, which
# bounds the CSV text held at once (a few MB per series at this size)
CSV_CHUNK_POINTS = 2 ** 16

# each model kind and the top-level fields it takes besides "kind"
MODEL_FIELDS = {
    "matrix": {"data", "pseudometric"},
    "lattice": {"n", "coupling", "gamma", "pattern", "pseudometric"},
    "schroedinger": {"grid", "V_real", "V_imag", "pseudometric"},
    "family": {"grid", "sigma", "alpha", "omega", "S", "Lambda"},
}

# parity tagging tolerance for expression-sampled model functions
MODEL_PARITY_RTOL = 1e-10


# ---------------------------------------------------------------------------
# canonical serialization

def format_float(x: float) -> str:
    """17-significant-digit rendering; round-trip exact for doubles."""
    x = float(x)
    if not math.isfinite(x):
        return encode_basestring_ascii(str(x))
    return format(x, ".17g")


def _float_row(items: list | tuple) -> str | None:
    """``canonical_json`` of a list of floats or of [re, im] float pairs (a
    matrix row), with one %-format call; None for any other list, or when a
    leaf is not finite."""
    if all(type(v) is float for v in items):
        leaves, fmt = items, "%.17g"
    elif all(type(v) is list and len(v) == 2 and type(v[0]) is float
             and type(v[1]) is float for v in items):
        leaves, fmt = [x for v in items for x in v], "[%.17g,%.17g]"
    else:
        return None
    text = "[" + ",".join([fmt] * len(items)) % tuple(leaves) + "]"
    # a finite %.17g has no "n"; inf and nan go to format_float
    return None if "n" in text else text


def canonical_json(obj) -> str:
    """Minimal deterministic JSON writer with fixed float rendering and
    sorted dict keys."""
    if type(obj) is float:  # the most common leaf, then containers, first
        return format_float(obj)
    if isinstance(obj, (list, tuple)):
        row = _float_row(obj)
        if row is not None:
            return row
        items = [canonical_json(v) for v in obj]
        return "[" + ",".join(items) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):  # as json.dumps quotes a str
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(
            encode_basestring_ascii(str(k)) + ":" + canonical_json(obj[k])
            for k in sorted(obj)) + "}"
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
        if value.dtype.kind == "f":
            return value.tolist()
        if value.dtype.kind == "c":
            return np.stack((value.real, value.imag), -1).tolist()
        return jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot embed {type(value).__name__} in a report")


# the fixed skeleton of Report.to_json, filled by one %-format call
_JSON_HEAD = '{"scenario":%s,"digest":%s,"version":%s,"rows":['
_JSON_ROW = '{"name":%s,"value":%s,"pass":%s,"tol":%s}'


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
    series: tuple[np.ndarray, list[tuple[str, np.ndarray]]] | None = None

    @property
    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    def to_json(self) -> str:
        fields = [encode_basestring_ascii(text)
                  for text in (self.scenario, self.digest, self.version)]
        for r in self.rows:
            fields += (encode_basestring_ascii(r.name), canonical_json(r.value),
                       canonical_json(r.passed), canonical_json(r.tol))
        return (_JSON_HEAD + ",".join([_JSON_ROW] * len(self.rows))
                + "]}\n") % tuple(fields)

    def to_csv(self) -> str:
        out = io.StringIO()
        self.write_csv(out)
        return out.getvalue()

    def write_csv(self, out) -> None:
        """Write the CSV text to the text stream ``out``; a series is
        written CSV_CHUNK_POINTS points at a time, each chunk with one
        %-format call for its x column and one for its lines."""
        if self.series is None:
            lines = ["name,value,pass,tol\n"]
            for r in self.rows:
                passed = "" if r.passed is None else str(bool(r.passed)).lower()
                tol = "" if r.tol is None else format_float(r.tol)
                value = canonical_json(r.value)
                if "," in value or '"' in value:
                    value = '"' + value.replace('"', '""') + '"'
                lines.append(f"{r.name},{value},{passed},{tol}\n")
            out.write("".join(lines))
            return
        # point-major: every series at x_j, then every series at x_j+1
        x, named = self.series
        names = [name for name, _ in named]
        # the lines of one point: its x, formatted once, and a value per
        # series
        point = "".join("%s," + name.replace("%", "%%") + ",%.17g\n"
                        for name in names)
        out.write("t_or_x,series,value\n")
        for start in range(0, x.size, CSV_CHUNK_POINTS):
            chunk = slice(start, start + CSV_CHUNK_POINTS)
            xs = x[chunk].tolist()
            # the arguments of each line: the text of its x, and its value
            cells = np.empty((len(xs), len(names), 2), dtype=object)
            cells[:, :, 0] = np.array(("%.17g " * len(xs) % tuple(xs)).split(),
                                      dtype=object)[:, None]
            for i, (_, column) in enumerate(named):
                cells[:, i, 1] = column[chunk]
            text = point * len(xs) % tuple(cells.ravel().tolist())
            # a finite %.17g has no "n", so more "n" than the names hold is
            # an inf or a nan: that chunk goes to format_float value by value
            if text.count("n") > len(xs) * point.count("n"):
                text = "".join(
                    f"{format_float(t)},{name},{format_float(v)}\n"
                    for t, values in zip(xs, cells[:, :, 1].tolist())
                    for name, v in zip(names, values))
            out.write(text)


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


def _parse_matrix_array(data: list) -> np.ndarray | None:
    """The matrix of square ``data`` whose entries are all JSON numbers or
    all [re, im] pairs of them, built array-wise; None for anything else,
    which the scalar loop of ``_parse_matrix`` then rejects by path."""
    n = len(data)
    if not all(type(row) is list and len(row) == n for row in data):
        return None
    leaves = [v for row in data for v in row]
    pairs = all(type(v) is list and len(v) == 2 for v in leaves)
    if pairs:
        leaves = [x for v in leaves for x in v]
    if not all(type(v) is float or type(v) is int for v in leaves):
        return None
    try:
        parts = np.array(leaves, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(parts).all():
        return None
    out = np.zeros(n * n, dtype=complex)
    if pairs:
        out.real, out.imag = parts[0::2], parts[1::2]
    else:
        out.real = parts
    return out.reshape(n, n)


def _parse_matrix(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError("expected a non-empty list of rows", path)
    fast = _parse_matrix_array(data)
    if fast is not None:
        return fast
    n = len(data)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"row must have {n} entries", f"{path}[{i}]")
        for j, entry in enumerate(row):
            out[i, j] = _as_complex_entry(entry, f"{path}[{i}][{j}]")
    return out


def _reject_unknown_fields(doc: dict, known, path: str = "") -> None:
    """SchemaError for a field of ``doc`` not in ``known``, and first for a
    name that is not a string, which no JSON text gives and no sort takes."""
    extra = set(doc) - known
    if not all(isinstance(name, str) for name in extra):
        raise SchemaError("field names must be strings", path)
    if extra:
        raise SchemaError(f"unknown fields {sorted(extra)}", path)


def _parse_grid(doc, path: str, max_points: float = math.inf) -> Grid:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object with L and N", path)
    length = _as_number(_need(doc, "L", f"{path}."), f"{path}.L")
    npts = _as_int(_need(doc, "N", f"{path}."), f"{path}.N")
    _reject_unknown_fields(doc, {"L", "N"}, path)
    if length <= 0:
        raise SchemaError("L must be positive", f"{path}.L")
    if npts < 5 or npts % 2 == 0:
        raise SchemaError("N must be an odd integer >= 5", f"{path}.N")
    if npts > max_points:
        raise SchemaError(f"N must be at most {max_points}", f"{path}.N")
    grid = make_grid(length, npts)
    # the second-difference stencil scales by 1/h^2; the residual norms of
    # an operator built on it need its squared Frobenius norm, (6N - 2)/h^4,
    # to be finite
    h2 = grid.spacing * grid.spacing
    if not (0.0 < h2 < math.inf and math.isfinite((6 * npts - 2) / h2 / h2)):
        raise SchemaError(
            f"1/h^2 for spacing h = {grid.spacing!r} is zero or too large: "
            "(6N - 2)/h^4, the squared Frobenius norm of the second "
            "difference, is not finite", f"{path}.L")
    return grid


def _require_finite_norm(values: np.ndarray, path: str, name="H") -> None:
    """Reject an operator model's H (as its entries or bands) or P whose
    squared Frobenius norm is not finite: every residual row and the
    degeneracy floor scale with the norms, and the real form keeps H's."""
    # vdot sums the squares, as the norm does, and raises no warning
    if not math.isfinite(np.vdot(values, values).real):
        raise SchemaError(
            f"the squared Frobenius norm of {name} is not finite", path)


def _expression(document: dict, name: str,
                default: str | None = None) -> Expression:
    """The parsed expression of a model field, required without a default."""
    text = (_need(document, name, "") if default is None
            else document.get(name, default))
    if not isinstance(text, str):
        raise SchemaError(f"expected an expression string, got {text!r}", name)
    return parse_expression(text)


def _sample_parity_pair(exprs: dict, names: tuple[str, str],
                        sampler: Sampler,
                        raw_max: tuple[float, float] = (0.0, 0.0),
                        document: dict | None = None
                        ) -> tuple[list[np.ndarray], tuple[float, float]]:
    """Even part of the samples of expression ``exprs[names[0]]``, odd part
    of those of ``exprs[names[1]]`` (points closed under reflection), and the
    largest |sample| of each so far, ``raw_max`` being that of points checked
    before; it scales the check of each part against what its projection
    drops.  A part that passes is exactly even or odd and finite, and needs
    no other check.  A name not in ``exprs`` is parsed from ``document``
    when reached, and kept."""
    parts, tops = [], []
    for name, sign, top in zip(names, (+1, -1), raw_max):
        if name not in exprs:
            exprs[name] = _expression(document, name)
        raw = exprs[name].sample(sampler)
        proj = even_part(raw) if sign == 1 else odd_part(raw)
        lost = float(np.abs(raw - proj).max())
        tops.append(max(top, float(np.abs(raw).max())))
        if lost > MODEL_PARITY_RTOL * max(1.0, tops[-1]):
            kind = "even" if sign == 1 else "odd"
            raise ParityViolation(
                f"{name}: function tagged {kind} has asymmetry {lost:.3e}")
        parts.append(proj)
    return parts, tuple(tops)


def _lattice_bands(doc: dict) -> tuple:
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
    return off, diag, off


def _operator(kind: str, document: dict) -> np.ndarray:
    """The H of a matrix, lattice or Schroedinger model document, with a
    finite squared Frobenius norm; an H with no imaginary part is real,
    under any P."""
    if kind == "matrix":
        h = _parse_matrix(_need(document, "data", ""), "data")
        _require_finite_norm(h, "data")
    else:
        if kind == "lattice":
            bands = _lattice_bands(document)
        else:
            grid = _parse_grid(_need(document, "grid", ""), "grid",
                               MAX_DENSE_DIM)
            sampler = Sampler(grid.points)
            v_re = _expression(document, "V_real", "0").sample(sampler)
            v_im = _expression(document, "V_imag", "0").sample(sampler)
            with np.errstate(over="ignore", invalid="ignore"):
                bands = hamiltonian_bands(grid, v_re + 1j * v_im)
        _require_finite_norm(np.concatenate(bands), "")
        h = tridiagonal(*bands)
    return h if h.imag.any() else np.ascontiguousarray(h.real)


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
    if not isinstance(kind, str) or kind not in MODEL_FIELDS:
        raise SchemaError(f"kind must be one of {tuple(MODEL_FIELDS)}", "kind")
    if kind == "family" and "pseudometric" in document:
        raise SchemaError(
            "a family model takes no pseudometric: P is the index "
            "reversal of its grid", "pseudometric")
    _reject_unknown_fields(document, MODEL_FIELDS[kind] | {"kind"})

    payload: dict = {}
    if kind == "family":
        grid = _parse_grid(_need(document, "grid", ""), "grid")
        # sigma, alpha, S and Lambda share the samples of common subtrees;
        # family check --refine samples only the points each level adds,
        # and the largest |sample| so far scales their parity check
        sampler = Sampler(grid.points)
        exprs = payload["expressions"] = {}
        (sigma, alpha), payload["raw_max"] = _sample_parity_pair(
            exprs, ("sigma", "alpha"), sampler, document=document)
        omega = _as_number(document.get("omega", 0.0), "omega")
        payload["ansatz"] = ChargeAnsatz(sigma, alpha, omega, grid)
        if "S" in document or "Lambda" in document:
            (payload["s_even"], payload["lam_odd"]), _ = _sample_parity_pair(
                exprs, ("S", "Lambda"), sampler, document=document)
    else:
        h = _operator(kind, document)
        pchoice = document.get("pseudometric", "parity")
        # the frame of the analysis: the real form of H under a structured
        # P, H itself under a dense one
        if pchoice in ("parity", "identity"):
            payload["h"], payload["rotated"] = real_form(h)
            payload["pseudometric"] = PseudoMetric.structured(pchoice, len(h))
        elif isinstance(pchoice, list):
            pm = _parse_matrix(pchoice, "pseudometric")
            if pm.shape != h.shape:
                raise SchemaError(
                    f"expected a {len(h)} x {len(h)} matrix for a model of "
                    f"dimension {len(h)}, got {len(pm)} x {len(pm)}",
                    "pseudometric")
            _require_finite_norm(pm, "pseudometric", "P")
            payload["h"], payload["rotated"] = h, False
            payload["pseudometric"] = pm
        else:
            raise SchemaError(
                "pseudometric must be 'parity', 'identity', or a matrix",
                "pseudometric")

    digest = hashlib.sha256(
        canonical_json(document).encode()).hexdigest()
    return ModelSpec(kind, payload, document, digest)


# ---------------------------------------------------------------------------
# scenario execution

class _Analysis:
    """The chain of one model under fixed options: H, its eigensystem, the
    pseudometric P, the default metric Theta and the triple (P, C, P C);
    for a family model, its ansatz and the compatible split of it.  Each
    quantity is read by one name.

    Every task of a scenario or battery reads from one instance.  Each
    quantity is built on first use, so a task that needs nothing raises
    nothing.  The eigensystem is kept whether its solve succeeds or raises,
    so the solve runs once; any other quantity is kept only if its build
    succeeds.  Either way, a domain error is raised, with the same text,
    by every task that needs the quantity.

    Under a "parity" or "identity" P, a real or PT-symmetric H is analyzed
    in its real form (``spectral.real_form``): H itself when it is real,
    else B = S^dagger H S (``rotated``).  S is unitary and S^dagger P S = P,
    so every residual, eigenvalue and verdict is that of H; only the
    matrix rows (``model_matrix``) and psi0 cross between the frames.
    ``parse_model`` builds that frame and keeps it in place of H.

    The operator is checked once, where the model was parsed, and held in
    one ``CheckedOperator`` (``op``), so that its tridiagonal bands and its
    Frobenius norm are each taken once per analysis; the tasks hand it to
    the public operator functions, as they do the ``metric`` (certified
    where its eigenvalues are read) and a family model's ``ansatz``, which
    carries the grid it was checked on.
    """

    def __init__(self, spec: ModelSpec, opts: dict, tol: float):
        self.spec = spec
        self.opts = opts
        self.tol = tol

    @property
    def rotated(self) -> bool:
        return self.spec.payload["rotated"]

    @cached_property
    def op(self) -> CheckedOperator:
        """H, or its real form B in the frame of the analysis: ``parse_model``
        checked it, and required its squared Frobenius norm finite, which
        the real form keeps up to roundoff."""
        if self.spec.kind == "family":
            raise SchemaError("task needs an operator model, got kind 'family'")
        return CheckedOperator(self.spec.payload["h"])

    def model_matrix(self, x: np.ndarray) -> np.ndarray:
        """A matrix of the analysis as a complex matrix in the frame of the
        model's H: S X S^dagger when rotated, O(N^2)."""
        if self.rotated:
            return matrix_from_real_form(x)
        return x.astype(complex, copy=False)

    @cached_property
    def _eigensystem(self) -> SpectralData | QuasihermError:
        """The eigensystem, or the domain error that its solve raised."""
        op = self.op
        try:
            return eigendecompose(op, self.opts.get("gap_floor"))
        except QuasihermError as exc:
            return exc

    @property
    def spectrum(self) -> SpectralData:
        s = self._eigensystem
        if isinstance(s, QuasihermError):
            raise s
        return s

    @cached_property
    def spectrum_checks(self) -> tuple[float, float]:
        """The reconstruction and pairing deviations of the eigensystem,
        two N^3 products taken once per analysis."""
        s = self.spectrum
        _, recon_rel = frobenius_residual(self.op.matrix - s.reconstruction(),
                                          self.op.norm)
        return recon_rel, float(np.linalg.norm(_minus_identity(s.pairing())))

    @cached_property
    def pseudometric(self) -> PseudoMetric:
        """A dense P is validated here, on first use."""
        return as_pseudometric(self.spec.payload["pseudometric"])

    @cached_property
    def pt_residual(self) -> float:
        return pt_symmetry_residual(self.op, self.pseudometric)[1]

    @cached_property
    def metric(self) -> MetricCandidate:
        """The default-weight spectral metric; requires a real spectrum."""
        return spectral_metric(self.spectrum, reality_tol=self.tol)

    @cached_property
    def triple(self) -> SpaceTriple:
        """``standard_charge`` of H and P, gated before the eigensolve."""
        require_pseudo_hermitian(self.pt_residual, self.tol)
        pm = self.pseudometric
        return SpaceTriple(pm, *charge_from_spectrum(self.spectrum, pm,
                                                     reality_tol=self.tol))

    @property
    def ansatz(self) -> ChargeAnsatz:
        """A family model's ansatz, on the grid where ``parse_model`` checked
        it."""
        kind = self.spec.kind
        if kind != "family":
            raise SchemaError(f"task needs a family model, got kind {kind!r}")
        return self.spec.payload["ansatz"]

    @cached_property
    def split(self) -> PotentialSplit:
        """The compatible split of the ansatz, on the ansatz's grid."""
        return compatible_split(self.ansatz)


def _minus_identity(x: np.ndarray) -> np.ndarray:
    """X - 1 for a square X of the caller's own, in place."""
    x.flat[::len(x) + 1] -= 1
    return x


def _row(name, value, passed=None, tol=None) -> ReportRow:
    """The one row constructor; ``passed`` is a Python bool or None."""
    return ReportRow(name, jsonable(value),
                     None if passed is None else bool(passed), tol)


def _task_spectrum(a: _Analysis):
    s = a.spectrum
    real, max_imag = is_real_spectrum(s, a.tol)
    recon_rel, pairing_dev = a.spectrum_checks
    rows = [
        _row("dim", s.dim),
        _row("eigenvalues", s.eigenvalues),
        _row("spectrum_real", bool(real)),
        _row("max_imag", max_imag),
        # a one-state spectrum has no pair
        _row("min_gap", s.min_gap if s.dim > 1 else None),
        _row("reconstruction_rel", recon_rel,
             recon_rel <= RECONSTRUCTION_TOL, RECONSTRUCTION_TOL),
        _row("biorthonormality_dev", pairing_dev,
             pairing_dev <= PAIRING_TOL, PAIRING_TOL),
    ]
    return rows, None


def _task_metric(a: _Analysis):
    cand = a.metric
    qh_abs, qh_rel = qh_residual(a.op, cand.theta)
    rows = [
        _row("qh_residual_rel", qh_rel, qh_rel <= a.tol, a.tol),
        _row("qh_residual_abs", qh_abs),
        _row("theta_min_eig", cand.min_eig),
        _row("theta_max_eig", cand.max_eig),
        _row("theta_positive", bool(cand.positive), bool(cand.positive)),
        _row("theta_condition", cand.condition),
    ]
    if cand.theta.shape[0] <= MATRIX_ROW_DIM_CAP:
        rows.append(_row("theta", a.model_matrix(cand.theta)))
    return rows, None


def _task_factorize(a: _Analysis):
    pt_rel = a.pt_residual
    charge, cand = a.triple.C, a.triple.metric
    qh_abs, qh_rel = qh_residual(a.op, cand.theta)
    # C of a structured P is a view of Theta; one C-ordered copy serves
    # both operands of the product
    c = np.ascontiguousarray(charge)
    _, c2_dev = frobenius_residual(_minus_identity(c @ c),
                                   np.linalg.norm(c) ** 2)
    rows = [
        _row("pt_residual_rel", pt_rel, pt_rel <= a.tol, a.tol),
        _row("charge_involution_rel", c2_dev, c2_dev <= a.tol, a.tol),
        _row("qh_residual_rel", qh_rel, qh_rel <= a.tol, a.tol),
        _row("qh_residual_abs", qh_abs),
        _row("theta_positive", bool(cand.positive), bool(cand.positive)),
        _row("theta_eigenvalues", cand.eigenvalues),
        _row("p_signature", list(a.pseudometric.signature)),
    ]
    if len(charge) <= MATRIX_ROW_DIM_CAP:
        rows.append(_row("charge", a.model_matrix(charge)))
        rows.append(_row("theta", a.model_matrix(cand.theta)))
    return rows, None


def _task_table(a: _Analysis):
    triple = a.triple
    rows = [_row("mode", triple.mode)]
    for trow in verify_table(triple, a.op, rtol=a.tol):
        rel = trow.rel_residual
        value = trow.abs_residual if rel is None else rel
        row_tol = None if trow.passed is None or rel is None else a.tol
        rows.append(_row(trow.name, value, trow.passed, row_tol))
    return rows, None


def _psi0_from_options(opts, dim: int) -> np.ndarray:
    psi0 = opts.get("psi0", 0)
    if isinstance(psi0, bool) or not isinstance(psi0, (int, list)):
        raise SchemaError(
            f"expected a basis index or a list of entries, got {psi0!r}",
            "psi0")
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
    # the norm rows are ratios of traces, which a zero state makes 0/0
    square = np.vdot(arr, arr).real
    if not square >= np.finfo(float).tiny:
        raise SchemaError(
            "psi0 must be nonzero, with a squared norm that does not "
            "underflow", "psi0")
    # the traces and the frame of the real form need it finite
    if not math.isfinite(square):
        raise SchemaError("the squared norm of psi0 is not finite", "psi0")
    return arr


def _task_evolve(a: _Analysis):
    dim = a.op.shape[0]
    t_max = float(a.opts.get("t_max", 20.0))
    steps = int(a.opts.get("steps", 200))
    if t_max <= 0 or steps < 2:
        raise SchemaError("need t_max > 0 and steps >= 2", "evolve")
    if steps * dim > MAX_EVOLVE_ENTRIES:
        raise SchemaError(
            f"need steps * dim <= {MAX_EVOLVE_ENTRIES}, got {steps} * {dim}",
            "evolve")
    psi0 = _psi0_from_options(a.opts, dim)
    if a.rotated:
        psi0 = state_to_real_form(psi0)  # the norm traces do not change
    recon_rel, pairing_dev = a.spectrum_checks
    if not (recon_rel <= RECONSTRUCTION_TOL and pairing_dev <= PAIRING_TOL):
        raise InaccurateEigensystem(
            f"the eigensystem fails its own checks (reconstruction_rel "
            f"{recon_rel:.3e}, tol {RECONSTRUCTION_TOL:g}; "
            f"biorthonormality_dev {pairing_dev:.3e}, tol {PAIRING_TOL:g}); "
            "an expansion in it has no reliable digits")
    times = np.linspace(0.0, t_max, steps)
    # a normal time step makes the time grid strictly increasing, a
    # subnormal one need not
    if (t_max / (steps - 1) < np.finfo(float).tiny
            and not (np.diff(times) > 0).all()):
        raise SchemaError(
            f"the times of t_max = {t_max!r} in {steps} steps are not "
            "strictly increasing", "evolve")
    traj = propagate_spectrum(a.spectrum, psi0, times)

    metrics = {"identity": None}
    real, max_imag = is_real_spectrum(a.spectrum, a.tol)
    if real:
        metrics["theta"] = a.metric
    traces = norm_trace_columns(traj, metrics)

    ident = traces["identity"]
    rows = [
        _row("spectrum_real", bool(real)),
        _row("fnorm_ratio", float(ident.max() / ident.min())),
    ]
    if real:
        theta_vals = traces["theta"]
        drift = float(np.abs(theta_vals - theta_vals[0]).max()
                      / abs(theta_vals[0]))
        rows.append(_row("theta_drift_rel", drift, drift <= 1e-9, 1e-9))
    else:
        # asymptotic doubling rate of the squared norm, 2*max|Im lambda|
        t1, t2 = traj.times[steps // 2], traj.times[-1]
        rate = float(np.log(ident[-1] / ident[steps // 2]) / (t2 - t1))
        rows.append(_row("fnorm_growth_rate", rate))
        rows.append(_row("max_imag", max_imag))
    return rows, (traj.times, list(traces.items()))


def _task_family_forward(a: _Analysis):
    ansatz, split = a.ansatz, a.split
    s_even, lam_odd = split.real_even, split.imag_odd
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
    return rows, (ansatz.grid.points, [
        ("sigma", ansatz.sigma), ("alpha", ansatz.alpha),
        ("S", s_even), ("Lambda", lam_odd),
        ("real_odd", split.real_odd), ("imag_even", split.imag_even)])


def _task_family_inverse(a: _Analysis):
    spec, ansatz = a.spec, a.ansatz
    grid = ansatz.grid
    branch = int(a.opts.get("branch", +1))
    if branch not in (+1, -1):
        raise SchemaError(f"need branch +1 or -1, got {branch}", "branch")
    roundtrip = "s_even" not in spec.payload
    if roundtrip:
        s_even, lam_odd = forward_family(ansatz)
    else:
        s_even, lam_odd = spec.payload["s_even"], spec.payload["lam_odd"]
    recovered = inverse_family(s_even, lam_odd, ansatz.omega, grid,
                               branch=branch)
    rows = [_row("omega_sign_convention", "S_minus_omega")]
    if roundtrip:
        mask = np.abs(ansatz.sigma) > SIGMA_FLOOR
        if not mask.any():
            raise SigmaVanishes(
                "sigma vanishes at every point; alpha is not recoverable",
                indices=np.arange(grid.npoints))
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
    return rows, (grid.points, [("sigma_recovered", recovered.sigma),
                                ("alpha_recovered", recovered.alpha)])


def _task_family_check(a: _Analysis):
    spec, ansatz = a.spec, a.ansatz
    grid = ansatz.grid
    levels = int(a.opts.get("refine", 0))
    # min() keeps 2**levels small; any level above 64 is over the cap
    if levels < 0 or ((grid.npoints - 1) * 2 ** min(levels, 64) + 1
                      > MAX_REFINED_POINTS):
        raise SchemaError(
            f"need refine >= 0 and at most {MAX_REFINED_POINTS} points on "
            f"the finest grid, got refine {levels}", "refine")
    # no array is checked again: the charge bands are built once, the
    # Hamiltonian bands once per split
    full = a.split
    zeros = np.zeros(grid.npoints)
    partial = replace(full, real_odd=zeros, imag_even=zeros)

    cm = coefficient_match(ansatz, full)
    pg = charge_pg_hermiticity(ansatz)
    pc_scale = charge_norm(ansatz)
    r1, r2 = ode_pair_residual(ansatz, full)
    compose_full = compose_pct_residual(ansatz, full)
    compose_partial = compose_pct_residual(ansatz, partial)

    d3, d2 = cm.sup(3), cm.sup(2)
    rows = [
        _row("d3_sup", d3, d3 <= 1e-13, 1e-13),
        _row("d2_sup", d2, d2 <= 1e-13, 1e-13),
        _row("d1_sup", cm.sup(1)),
        _row("d0_sup", cm.sup(0)),
        _row("pg_hermiticity", pg, pg <= 1e-13 * max(pc_scale, 1.0), 1e-13),
        _row("ode_residual_S", r1),
        _row("ode_residual_Lambda", r2),
        _row("compose_residual_full_split", compose_full),
        _row("compose_residual_s_lambda_only", compose_partial),
    ]

    if levels > 0:
        # each h -> h/2 grid holds the previous one bit for bit at its even
        # indices, so a level samples only its odd-index points.  They are
        # closed under reflection, so their parity parts need no other
        # point, and only they can fail the parity check: the old points
        # passed it at a scale no larger.
        samples = (ansatz.sigma, ansatz.alpha)
        tops = spec.payload["raw_max"]
        prev = (r1, r2)
        n_pts = grid.npoints
        for k in range(1, levels + 1):
            n_pts = 2 * n_pts - 1
            fine = make_grid(grid.half_width, n_pts)
            new, tops = _sample_parity_pair(
                spec.payload["expressions"], ("sigma", "alpha"),
                Sampler(fine.points[1::2]), tops)
            fine_samples = np.empty((2, n_pts))
            for row, old, add in zip(fine_samples, samples, new):
                row[0::2], row[1::2] = old, add
            samples = fine_samples
            fine_ansatz = ChargeAnsatz(*samples, ansatz.omega, fine)
            s_even, lam_odd = forward_family(fine_ansatz)
            zero = np.zeros(n_pts)
            fr1, fr2 = ode_pair_residual(fine_ansatz, PotentialSplit(
                s_even, zero, zero, lam_odd, fine))
            rows.append(_row(f"ode_residual_S_level{k}", fr1))
            rows.append(_row(f"ode_residual_Lambda_level{k}", fr2))
            floor = 100 * np.finfo(float).eps
            if prev[0] > floor and fr1 > floor:
                rows.append(_row(f"ode_ratio_S_level{k}", prev[0] / fr1))
            if prev[1] > floor and fr2 > floor:
                rows.append(_row(f"ode_ratio_Lambda_level{k}", prev[1] / fr2))
            prev = (fr1, fr2)

    return rows, (cm.x, [("d1_abs", np.abs(cm.d1)),
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


def _run_task(a: _Analysis, task: str) -> tuple[list, tuple | None]:
    """Rows and series of one task; a domain error becomes one failed row."""
    try:
        return _TASKS[task](a)
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
