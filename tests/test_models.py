import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import quasiherm.errors as errors_module
from conftest import (document_h, document_matrix, exact, lattice_h,
                      point_major_csv, render_float)
from quasiherm import (BrokenPhase, ParityViolation, PseudoMetric,
                       QuasihermError, ReportRow, SchemaError, SpaceTriple,
                       as_pseudometric, charge_from_spectrum, eigendecompose,
                       even_part, factorization, forward_family,
                       is_real_spectrum, make_ansatz, make_grid, models,
                       norm_trace_columns, odd_part, ode_pair_residual,
                       parse_expression, parse_model, propagate_spectrum,
                       pt_symmetry_residual, parity_matrix, qh_residual,
                       run_battery, run_scenario, spectral_metric,
                       verify_table)
from quasiherm.factorization import require_pseudo_hermitian
from quasiherm.metrics import certify_metric, frobenius_residual
from quasiherm.operators import (adjoint_product, checked_operator,
                                 right_product)
from quasiherm.spectral import (matrix_from_real_form, real_form,
                                state_to_real_form)

MODEL_2X2 = {"kind": "matrix", "data": [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]]}
MODEL_BROKEN = {"kind": "matrix", "data": [[[0, 1.2], [1, 0]], [[1, 0], [0, -1.2]]]}
MODEL_FAMILY = {"kind": "family", "grid": {"L": 4, "N": 201},
                "sigma": "1+0.5*exp(-x^2)", "alpha": "x*exp(-x^2)",
                "omega": 0.7}


def rows_by_name(report):
    return {r.name: r for r in report.rows}


def parsed_h(doc) -> np.ndarray:
    """The H that parse_model builds for an operator model document: under
    a dense P, the frame of the analysis is H itself."""
    n = len(parse_model(doc).payload["h"])
    return parse_model(dict(doc, pseudometric=np.eye(n).tolist())).payload["h"]


def test_parse_matrix_model():
    spec = parse_model(json.dumps(MODEL_2X2))
    h = np.array([[0.6j, 1.0], [1.0, -0.6j]])
    assert np.array_equal(parsed_h(MODEL_2X2), h)
    # under the default parity P the PT-symmetric H is kept as its real form
    assert spec.payload["rotated"]
    assert spec.payload["h"].tobytes() == real_form(h)[0].tobytes()
    assert spec.kind == "matrix"
    assert len(spec.digest) == 64


def test_parse_schroedinger_model():
    spec = parse_model({"kind": "schroedinger", "grid": {"L": 8, "N": 401},
                        "V_real": "x^2", "V_imag": "0"})
    # a real H is its own frame: -D2 + diag(V) on the grid of spacing 0.04
    h = spec.payload["h"]
    assert h.shape == (401, 401) and not spec.payload["rotated"]
    assert -1 / np.diag(h, 1)[0] == pytest.approx(0.04 ** 2)
    grid = make_grid(8.0, 401)
    v = np.diag(h) - 2 / grid.spacing ** 2
    assert np.abs(v - grid.points ** 2).max() <= 1e-12


def test_parse_family_model():
    spec = parse_model(MODEL_FAMILY)
    ansatz = spec.payload["ansatz"]
    assert np.array_equal(ansatz.sigma, ansatz.sigma[::-1])
    assert np.array_equal(ansatz.alpha, -ansatz.alpha[::-1])
    assert ansatz.omega == 0.7


def test_parse_lattice_model():
    h = parsed_h({"kind": "lattice", "n": 5, "gamma": 0.5})
    assert h[0, 0] == 0.5j and h[4, 4] == -0.5j
    assert h[0, 1] == 1.0
    _, rel = pt_symmetry_residual(h, parity_matrix(5))
    assert rel <= 1e-14


def test_lattice_alternating_parity():
    h = parsed_h({"kind": "lattice", "n": 4, "gamma": 0.3,
                  "pattern": "alternating"})
    _, rel = pt_symmetry_residual(h, parity_matrix(4))
    assert rel <= 1e-14
    with pytest.raises(SchemaError):
        parse_model({"kind": "lattice", "n": 5, "gamma": 0.3,
                     "pattern": "alternating"})


@pytest.mark.parametrize("doc,path", [
    ({}, "kind"),
    ({"kind": "sphere"}, "kind"),
    ({"kind": "matrix"}, "data"),
    ({"kind": "matrix", "data": [[1, 2], [3]]}, "data[1]"),
    ({"kind": "matrix", "data": [[[0, 0], "x"], [[0, 0], [0, 0]]]},
     "data[0][1]"),
    ({"kind": "schroedinger", "grid": {"L": 0, "N": 11}}, "grid.L"),
    ({"kind": "schroedinger", "grid": {"L": 1, "N": 10}}, "grid.N"),
    ({"kind": "schroedinger", "grid": {"L": 1, "N": 11, "h": 3}}, "grid"),
    ({"kind": "family", "grid": {"L": 1, "N": 11}, "alpha": "x"}, "sigma"),
])
def test_schema_errors_name_paths(doc, path):
    with pytest.raises(SchemaError) as err:
        parse_model(doc)
    assert err.value.path == path


def test_parity_violation_on_tagged_functions():
    with pytest.raises(ParityViolation):
        parse_model({"kind": "family", "grid": {"L": 1, "N": 11},
                     "sigma": "x", "alpha": "x"})


def test_digest_and_byte_identical_reports():
    spec = parse_model(json.dumps(MODEL_2X2))
    r1 = run_scenario(spec, "factorize")
    r2 = run_scenario(parse_model(json.dumps(MODEL_2X2)), "factorize")
    assert r1.to_json() == r2.to_json()
    assert r1.digest == r2.digest
    other = parse_model(json.dumps(MODEL_BROKEN))
    assert other.digest != spec.digest


def test_numpy_floats_hash_as_python_floats():
    doc = {"kind": "lattice", "n": 4, "gamma": 0.3}
    assert parse_model(dict(doc, gamma=np.float64(0.3))).digest == (
        parse_model(doc).digest)


def test_factorize_scenario_golden_rows():
    spec = parse_model(MODEL_2X2)
    report = run_scenario(spec, "factorize")
    assert report.all_passed
    rows = rows_by_name(report)
    charge = np.array([[complex(re, im) for re, im in row]
                       for row in rows["charge"].value])
    assert np.abs(charge - np.array([[0.75j, 1.25], [1.25, -0.75j]])
                  ).max() <= 1e-12
    eigs = np.array(rows["theta_eigenvalues"].value)
    assert np.abs(eigs - np.array([0.5, 2.0])).max() <= 1e-12


def test_metric_scenario_broken_phase_row():
    spec = parse_model(MODEL_BROKEN)
    report = run_scenario(spec, "metric")
    assert not report.all_passed
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.name == "BrokenPhase"
    assert row.passed is False
    assert row.value == pytest.approx(np.sqrt(0.44), abs=1e-9)


def test_spectrum_scenario_on_schroedinger():
    spec = parse_model({"kind": "schroedinger", "grid": {"L": 8, "N": 201},
                        "V_real": "x^2"})
    report = run_scenario(spec, "spectrum")
    assert report.all_passed
    rows = rows_by_name(report)
    lowest = [complex(re, im) for re, im in rows["eigenvalues"].value[:3]]
    # harmonic ladder 1, 3, 5 up to O(h^2) truncation
    assert np.abs(np.array(lowest).real - np.array([1.0, 3.0, 5.0])
                  ).max() <= 0.01
    assert rows["spectrum_real"].value is True


def test_family_scenarios_pass():
    spec = parse_model(MODEL_FAMILY)
    forward = run_scenario(spec, "family-forward")
    assert forward.all_passed
    assert forward.series  # sampled functions for CSV output
    inverse = run_scenario(spec, "family-inverse")
    rows = rows_by_name(inverse)
    assert rows["omega_sign_convention"].value == "S_minus_omega"
    assert rows["sigma_roundtrip_max"].passed
    check = run_scenario(spec, "family-check", {"refine": 1})
    rows = rows_by_name(check)
    assert rows["d3_sup"].value == 0.0
    assert rows["d2_sup"].value == 0.0
    assert rows["pg_hermiticity"].passed
    assert 3.5 <= rows["ode_ratio_S_level1"].value <= 4.5


SIGMA_TEXT = "(1+0.35*exp(-x^2/1.7))"
ALPHA_TEXT = "(0.9*x*exp(-x^2/0.8))"
MODEL_FAMILY_EXPLICIT = {
    "kind": "family", "grid": {"L": 4, "N": 201}, "sigma": SIGMA_TEXT,
    "alpha": ALPHA_TEXT, "omega": 0.45,
    "S": f"{SIGMA_TEXT}^2-{ALPHA_TEXT}^2+0.45",
    "Lambda": f"2*{SIGMA_TEXT}*{ALPHA_TEXT}"}


def scalar_ansatz(doc, npoints):
    """doc's ansatz on its grid with npoints, from scalar calls per point."""
    grid = make_grid(doc["grid"]["L"], npoints)
    sigma, alpha = (np.array([parse_expression(doc[k])(x)
                              for x in grid.points.tolist()])
                    for k in ("sigma", "alpha"))
    return grid, make_ansatz(grid, even_part(sigma), odd_part(alpha),
                             doc["omega"])


@pytest.mark.parametrize("doc", [MODEL_FAMILY, MODEL_FAMILY_EXPLICIT],
                         ids=["readme", "explicit"])
def test_refined_check_matches_scalar_samples_at_every_level(doc):
    spec = parse_model(doc)
    report = run_scenario(spec, "family-check", {"refine": 2})
    grid, ansatz = scalar_ansatz(doc, doc["grid"]["N"])
    base = run_scenario(
        replace(spec, payload=dict(spec.payload,
                                   ansatz=replace(ansatz, grid=grid))),
        "family-check")
    rows = list(base.rows)
    prev = [rows_by_name(base)[f"ode_residual_{f}"].value
            for f in ("S", "Lambda")]
    floor = 100 * np.finfo(float).eps
    npoints = grid.npoints
    for k in (1, 2):
        npoints = 2 * npoints - 1
        fine, fine_ansatz = scalar_ansatz(doc, npoints)
        res = ode_pair_residual(fine_ansatz, *forward_family(fine_ansatz),
                                fine)
        rows += [ReportRow(f"ode_residual_{f}_level{k}", float(r), None, None)
                 for f, r in zip(("S", "Lambda"), res)]
        rows += [ReportRow(f"ode_ratio_{f}_level{k}", p / r, None, None)
                 for f, p, r in zip(("S", "Lambda"), prev, res)
                 if p > floor and r > floor]
        prev = res
    assert report.to_json() == replace(report, rows=rows).to_json()


def test_refined_parity_check_scales_with_the_coarse_samples():
    # the spike at x = 0 lies on the coarse grid only; the asymmetry of
    # sigma at the new points, up to 3.5e-6, is within 1e-10 of the largest
    # sample so far, as on the fine grid as a whole, not of their own
    doc = {"kind": "family", "grid": {"L": 4, "N": 9},
           "sigma": "1+1e6*exp(-100*x^2)+1e-6*x", "alpha": "x"}
    report = run_scenario(parse_model(doc), "family-check", {"refine": 1})
    assert report.all_passed
    assert "ode_residual_S_level1" in rows_by_name(report)
    parse_model(dict(doc, grid={"L": 4, "N": 17}))


def test_battery_report_prefixes_rows():
    spec = parse_model(MODEL_2X2)
    report = run_battery(spec)
    assert report.all_passed
    names = [r.name for r in report.rows]
    assert any(n.startswith("spectrum.") for n in names)
    assert any(n.startswith("table.") for n in names)
    assert any(n.startswith("evolve.") for n in names)


def test_error_codes_are_unique_per_type():
    codes = {}
    for name in dir(errors_module):
        obj = getattr(errors_module, name)
        if (isinstance(obj, type) and issubclass(obj, QuasihermError)
                and obj is not QuasihermError):
            try:
                instance = obj.__new__(obj)
                code = type(instance).__name__
            except TypeError:
                code = obj.__name__
            assert code not in codes.values()
            codes[name] = code
    assert len(codes) >= 19


def test_unknown_task_rejected():
    spec = parse_model(MODEL_2X2)
    with pytest.raises(ValueError):
        run_scenario(spec, "frobnicate")


def test_float_rendering_17_digits():
    from quasiherm.models import format_float
    x = 1.0 / 3.0
    assert float(format_float(x)) == x
    assert format_float(0.5) == "0.5"


def render_leaf_by_leaf(obj, sort_keys=False):
    """A reference for canonical_json that shares no code with it: one
    leaf at a time, strings and keys quoted by json.dumps.  Complex numbers
    and arrays are rendered as jsonable should embed them: [re, im] pairs
    and nested lists."""
    if isinstance(obj, np.ndarray):
        return render_leaf_by_leaf(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return render_leaf_by_leaf([obj.real, obj.imag])
    if isinstance(obj, dict):
        keys = sorted(obj) if sort_keys else list(obj)
        return "{" + ",".join(json.dumps(str(k)) + ":"
                              + render_leaf_by_leaf(obj[k], sort_keys)
                              for k in keys) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_leaf_by_leaf(v, sort_keys)
                              for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return render_float(obj)
    assert isinstance(obj, str)
    return json.dumps(obj)


@pytest.mark.parametrize("case", ["floats", "pairs", "non-finite", "mixed"])
def test_float_rows_render_as_leaf_by_leaf(case):
    # the one-format row path gives the bytes of one format_float per leaf
    from quasiherm.models import canonical_json
    rng = np.random.default_rng(5)
    leaves = (rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)).tolist()
    leaves += [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-5]
    pairs = [leaves[k:k + 2] for k in range(0, len(leaves) - 1, 2)]
    row = {"floats": leaves,
           "pairs": pairs,
           "non-finite": pairs[:3] + [[1.0, float("inf")], [float("nan"), 2.0]],
           "mixed": [1, 2.5, [0.5, 3]]}[case]
    for obj in (row, [row, row], []):
        assert canonical_json(obj) == render_leaf_by_leaf(obj)


def _renderer_strategies():
    """Hypothesis strategies of report leaves, values and series."""
    st = pytest.importorskip("hypothesis.strategies")
    special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, float("inf"), float("-inf"),
               float("nan")]
    floats = st.one_of(st.sampled_from(special), st.floats())
    finite = st.one_of(st.sampled_from(special[:6]),
                       st.floats(allow_nan=False, allow_infinity=False))
    texts = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n/%,n'),
                              st.characters()), max_size=8)
    complexes = st.builds(complex, floats, floats)
    arrays = st.one_of(
        st.lists(finite, max_size=6).map(np.array),
        st.lists(st.builds(complex, finite, finite), max_size=6).map(
            lambda v: np.array(v, dtype=complex)),
        st.lists(finite, min_size=6, max_size=6).map(
            lambda v: np.array(v).reshape(3, 2)),
        st.lists(st.builds(complex, finite, finite), min_size=4,
                 max_size=4).map(lambda v: np.array(v).reshape(2, 2)))
    leaves = st.one_of(
        floats, st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.booleans(), st.booleans().map(np.bool_), st.none(), texts,
        complexes, complexes.map(np.complex128), arrays,
        st.lists(finite, max_size=6),
        st.lists(st.lists(finite, min_size=2, max_size=2), max_size=6))
    values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4),
                          max_leaves=8)
    return st, floats, finite, texts, values


def _embedded(raw):
    """A row value: complex numbers and arrays go through jsonable, as the
    tasks' rows do; everything else is kept as it is."""
    if isinstance(raw, (complex, np.complexfloating, np.ndarray)):
        return models.jsonable(raw)
    if isinstance(raw, list):
        return [_embedded(v) for v in raw]
    if isinstance(raw, dict):
        return {k: _embedded(v) for k, v in raw.items()}
    return raw


def test_report_json_and_digest_render_as_leaf_by_leaf():
    hypothesis = pytest.importorskip("hypothesis")
    st, floats, _, texts, values = _renderer_strategies()
    rows = st.lists(st.tuples(texts, values,
                              st.one_of(st.none(), st.booleans(),
                                        st.booleans().map(np.bool_)),
                              st.one_of(st.none(), floats)), max_size=4)

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(head=st.tuples(texts, texts, texts), rows=rows,
                      note=st.dictionaries(texts, values, max_size=3))
    def check(head, rows, note):
        report = models.Report(*head, [
            ReportRow(name, _embedded(raw), passed, tol)
            for name, raw, passed, tol in rows])
        doc = dict(zip(("scenario", "digest", "version"), head))
        doc["rows"] = [{"name": name, "value": raw, "pass": passed,
                        "tol": tol} for name, raw, passed, tol in rows]
        assert report.to_json() == render_leaf_by_leaf(doc) + "\n"
        # the model digest hashes the document's canonical JSON, which
        # sorts the keys at every depth
        model = dict(MODEL_2X2, note=note)
        assert models.canonical_json(_embedded(model)) == render_leaf_by_leaf(
            model, sort_keys=True)

    check()
    assert parse_model(MODEL_2X2).digest == hashlib.sha256(
        render_leaf_by_leaf(MODEL_2X2, sort_keys=True).encode()).hexdigest()


def test_series_csv_renders_as_point_major_rows(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st, _, finite, texts, _ = _renderer_strategies()
    monkeypatch.setattr(models, "CSV_CHUNK_POINTS", 7)

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
    @hypothesis.given(data=st.data(),
                      size=st.integers(1, 40).filter(lambda k: k % 7),
                      names=st.lists(texts, min_size=1, max_size=3))
    def check(data, size, names):
        points = st.lists(finite, min_size=size, max_size=size)
        x, *columns = (np.array(data.draw(points))
                       for _ in range(len(names) + 1))
        # at most one inf or nan, in x or in one series, so in one chunk
        bad = data.draw(st.none() | st.tuples(
            st.integers(0, len(names)), st.integers(0, size - 1),
            st.sampled_from([float("inf"), float("-inf"), float("nan")])))
        if bad is not None:
            which, at, value = bad
            (x, *columns)[which][at] = value
        named = list(zip(names, columns))
        report = models.Report("evolve", "0" * 64, "0", [], (x, named))
        assert report.to_csv() == ("t_or_x,series,value\n"
                                   + point_major_csv(x, named))

    check()


def test_family_inverse_sigma_vanishes_row():
    spec = parse_model({"kind": "family", "grid": {"L": 1, "N": 11},
                        "sigma": "0", "alpha": "0",
                        "S": "-1", "Lambda": "1e-9*x"})
    report = run_scenario(spec, "family-inverse")
    assert not report.all_passed
    row = report.rows[0]
    assert row.name == "SigmaVanishes"
    assert row.passed is False
    assert isinstance(row.value, list) and len(row.value) > 0


@pytest.mark.parametrize("branch", [2, 0, -2])
def test_out_of_range_branch_is_a_schema_row(branch):
    report = run_scenario(parse_model(MODEL_FAMILY), "family-inverse",
                          {"branch": branch})
    assert [(r.name, r.passed) for r in report.rows] == [("SchemaError", False)]
    assert report.rows[0].value == f"branch: need branch +1 or -1, got {branch}"


def test_lattice_battery_passes_end_to_end():
    spec = parse_model({"kind": "lattice", "n": 5, "gamma": 0.5})
    report = run_battery(spec)
    assert report.all_passed
    rows = {r.name: r for r in report.rows}
    assert rows["table.mode"].value == "krein"
    assert rows["evolve.theta_drift_rel"].passed is True


def test_family_check_constant_ansatz_compose_row():
    spec = parse_model({"kind": "family", "grid": {"L": 2, "N": 101},
                        "sigma": "0.8", "alpha": "0", "omega": 0.3})
    report = run_scenario(spec, "family-check")
    assert report.all_passed
    rows = {r.name: r for r in report.rows}
    assert rows["compose_residual_full_split"].value <= 1e-12


# --- one shared analysis per model --------------------------------------

MODEL_LATTICE = {"kind": "lattice", "n": 8, "gamma": 0.3}
MODEL_HARMONIC = {"kind": "schroedinger", "grid": {"L": 8, "N": 201},
                  "V_real": "x^2", "V_imag": "0"}


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("doc", [MODEL_LATTICE, MODEL_2X2])
def test_battery_solves_the_eigenproblem_once(monkeypatch, doc):
    calls = count_calls(monkeypatch, np.linalg, "eig")
    report = run_battery(parse_model(doc))
    assert report.all_passed
    assert len(calls) == 1


@pytest.mark.parametrize("doc,failing", [
    (MODEL_2X2, set()),
    (MODEL_BROKEN, {"metric.BrokenPhase", "factorize.BrokenPhase",
                    "table.BrokenPhase"}),
    ({"kind": "lattice", "n": 5, "gamma": 0.5, "pattern": "endpoints"}, set()),
    ({"kind": "lattice", "n": 6, "gamma": 1.5, "pattern": "alternating"},
     {"metric.BrokenPhase", "factorize.BrokenPhase", "table.BrokenPhase"}),
    # README harmonic potential on a coarser grid: its wall doublets are
    # solved by parity sector, so each vector has exact parity
    (MODEL_HARMONIC, set()),
    ({"kind": "lattice", "n": 4, "gamma": 0.0, "pseudometric": "identity"},
     set()),
    (dict(MODEL_2X2, pseudometric="identity"),
     {"factorize.NotPTSymmetric", "table.NotPTSymmetric"}),
    (MODEL_FAMILY, set()),
    # S overflows, so the split that the three family tasks share fails
    ({"kind": "family", "grid": {"L": 4, "N": 21},
      "sigma": "1e200*(1+0*x^2)", "alpha": "x*exp(-x^2)"},
     {"family-forward.NonFiniteResult", "family-inverse.NonFiniteResult",
      "family-check.NonFiniteResult"}),
])
def test_battery_rows_equal_fresh_scenarios(doc, failing):
    spec = parse_model(doc)
    battery = run_battery(spec)
    tasks = (["family-forward", "family-inverse", "family-check"]
             if spec.kind == "family"
             else ["spectrum", "metric", "factorize", "table", "evolve"])
    fresh = []
    for task in tasks:
        for r in run_scenario(parse_model(doc), task).rows:
            fresh.append(type(r)(f"{task}.{r.name}", r.value, r.passed, r.tol))
    assert battery.rows == fresh
    assert {r.name for r in battery.rows if r.passed is False} == failing


def test_family_battery_builds_the_split_once(monkeypatch):
    from quasiherm import family
    splits = count_calls(monkeypatch, models, "compatible_split")
    forwards = count_calls(monkeypatch, models, "forward_family")
    parity = count_calls(monkeypatch, family, "parity_deviation")
    report = run_battery(parse_model(MODEL_FAMILY))
    assert report.all_passed
    assert len(splits) == 1 and len(forwards) == 1
    # only the recovered sigma and alpha: the split of the parsed ansatz,
    # exactly even and odd, is built without compatible_split's checks
    assert len(parity) == 2


@pytest.mark.parametrize("extra,fields", [
    ({}, ["sigma", "alpha"]),
    ({"S": "0.7 + (1+0.5*exp(-x^2))^2 - (x*exp(-x^2))^2",
      "Lambda": "2*(1+0.5*exp(-x^2))*x*exp(-x^2)"},
     ["sigma", "alpha", "S", "Lambda"]),
], ids=["ansatz", "with-potential"])
def test_refined_check_parses_each_expression_once(monkeypatch, extra,
                                                   fields):
    # the refine levels sample the expressions parsed with the model
    texts = []
    original = models.parse_expression

    def counted(text):
        texts.append(text)
        return original(text)
    monkeypatch.setattr(models, "parse_expression", counted)
    doc = dict(MODEL_FAMILY, grid={"L": 4, "N": 101}, **extra)
    report = run_scenario(parse_model(doc), "family-check", {"refine": 3})
    assert report.all_passed
    assert "ode_residual_S_level3" in [r.name for r in report.rows]
    assert texts == [doc[name] for name in fields]


def test_lone_roundtrip_builds_no_split(monkeypatch):
    # S and Lambda come from forward_family: no derivative is taken, and
    # only the recovered sigma and alpha are parity-checked; a battery
    # reads them from its split, with the same rows
    # (test_battery_rows_equal_fresh_scenarios)
    from quasiherm import family
    spec = parse_model(dict(MODEL_FAMILY, grid={"L": 4, "N": 101}))
    gradients = count_calls(monkeypatch, np, "gradient")
    parity = count_calls(monkeypatch, family, "parity_deviation")
    report = run_scenario(spec, "family-inverse")
    assert report.all_passed
    assert gradients == [] and len(parity) == 2


def test_battery_checks_the_eigensystem_once(monkeypatch):
    # spectrum and evolve read the same reconstruction and pairing checks
    from quasiherm import spectral
    recon = count_calls(monkeypatch, spectral.SpectralData, "reconstruction")
    pairing = count_calls(monkeypatch, spectral.SpectralData, "pairing")
    report = run_battery(parse_model(MODEL_LATTICE))
    assert report.all_passed
    assert len(recon) == 1 and len(pairing) == 1


def test_battery_runs_the_public_operator_functions(monkeypatch):
    # the tasks call the public functions as bound in models, so that a
    # wrapper put there (as the benchmark tracer puts one) sees each call
    names = ("eigendecompose", "qh_residual", "pt_symmetry_residual",
             "verify_table")
    calls = {name: count_calls(monkeypatch, models, name) for name in names}
    report = run_battery(parse_model(MODEL_LATTICE))
    assert report.all_passed
    assert {name: len(c) for name, c in calls.items()} == {
        "eigendecompose": 1, "qh_residual": 2, "pt_symmetry_residual": 1,
        "verify_table": 1}


def test_family_check_runs_the_public_family_functions(monkeypatch):
    # as for the operator functions: the family check and its refine levels
    # call the public family functions as bound in models, with records of
    # arrays checked where they entered, so that none is scanned again, the
    # charge bands are built once and each split's Hamiltonian bands once;
    # an operator report builds Theta, evolves and traces through public
    # names
    from quasiherm import family
    names = ("compatible_split", "coefficient_match", "compose_pct_residual",
             "charge_pg_hermiticity", "charge_norm", "ode_pair_residual")
    calls = {name: count_calls(monkeypatch, models, name) for name in names}
    samples = count_calls(monkeypatch, family, "_samples")
    d1 = count_calls(monkeypatch, family, "_d1_bands")
    d2 = count_calls(monkeypatch, family, "_d2_bands")
    report = run_scenario(parse_model(MODEL_FAMILY), "family-check",
                          {"refine": 2})
    assert report.all_passed
    assert {name: len(c) for name, c in calls.items()} == {
        "compatible_split": 1, "coefficient_match": 1,
        "compose_pct_residual": 2, "charge_pg_hermiticity": 1,
        "charge_norm": 1, "ode_pair_residual": 3}
    assert samples == [] and len(d1) == 1 and len(d2) == 2
    names = ("spectral_metric", "propagate_spectrum", "norm_trace_columns")
    calls = {name: count_calls(monkeypatch, models, name) for name in names}
    assert run_battery(parse_model(MODEL_LATTICE)).all_passed
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(
        names, 1)


def test_report_scans_the_bands_once_and_takes_the_norm_once(monkeypatch):
    # every product with B and every residual denominator reads the bands
    # and the Frobenius norm that the analysis took once
    from quasiherm import factorization, metrics, operators
    scans, norms = [], []
    scan, norm = operators._tridiagonal_bands, np.linalg.norm

    def counted_scan(a):
        scans.append(a)
        return scan(a)

    def counted_norm(x, *args, **kwargs):
        norms.append(x)
        return norm(x, *args, **kwargs)
    for module in (operators, metrics, factorization, models):
        monkeypatch.setattr(module, "_tridiagonal_bands", counted_scan,
                            raising=False)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    spec = parse_model(MODEL_LATTICE)
    b = real_form(document_h(MODEL_LATTICE))[0]
    report = run_battery(spec)
    assert report.all_passed
    assert len(scans) == 1 and np.array_equal(scans[0], b)
    assert sum(np.shape(x) == b.shape and np.array_equal(x, b)
               for x in norms) == 1


def test_evolve_reads_theta_without_certifying_it(monkeypatch):
    # Theta is built and symmetrized once; the traces do not symmetrize it
    # again, and no eigenvalue of it is taken
    from quasiherm import evolution, metrics, operators
    eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
    symmetrized = []
    original = operators.hermitian_part

    def counted(m):
        symmetrized.append(m)
        return original(m)
    for module in (operators, metrics, evolution):
        monkeypatch.setattr(module, "hermitian_part", counted)
    report = run_scenario(parse_model(MODEL_LATTICE), "evolve")
    assert report.all_passed
    assert eigvalsh == []
    assert len(symmetrized) == 1


def test_spectrum_scenario_builds_nothing_else(monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    report = run_scenario(parse_model(MODEL_LATTICE), "spectrum")
    assert report.all_passed
    assert calls == []


def test_errors_are_raised_again_not_cached(monkeypatch):
    # every task needing the eigensystem reports the failure, and none
    # retries the eigensolve, since a failed one is kept too; the identity
    # is symmetric and commutes with the flip, so the one solve is two
    # sector eigh calls, and two of its three vectors share the even
    # sector, where no symmetry keeps them apart
    eig_calls = count_calls(monkeypatch, np.linalg, "eig")
    eigh_calls = count_calls(monkeypatch, np.linalg, "eigh")
    doc = {"kind": "matrix", "data": np.eye(3).tolist()}
    report = run_battery(parse_model(doc))
    names = [r.name for r in report.rows]
    assert names == ["spectrum.DegenerateSpectrum", "metric.DegenerateSpectrum",
                     "factorize.DegenerateSpectrum", "table.DegenerateSpectrum",
                     "evolve.DegenerateSpectrum"]
    assert eig_calls == []
    assert len(eigh_calls) == 2


@pytest.mark.parametrize("doc", [
    {"kind": "matrix", "data": [[1, 1], [0, 1]]},
    {"kind": "schroedinger", "grid": {"L": 8, "N": 201}, "V_imag": "x^3"}],
    ids=["jordan", "imaginary-cubic"])
def test_failed_eigensolve_runs_once(monkeypatch, doc):
    # the general eigensolve raises for both; a report runs it once, and
    # its rows are those of five fresh scenarios, each solving anew
    fresh = [replace(r, name=f"{task}.{r.name}")
             for task in models.OPERATOR_TASKS
             for r in run_scenario(parse_model(doc), task).rows]
    eig_calls = count_calls(monkeypatch, np.linalg, "eig")
    report = run_battery(parse_model(doc))
    assert len(eig_calls) == 1
    assert report.rows == fresh
    assert [r.name for r in report.rows] == [
        f"{task}.DegenerateSpectrum" for task in models.OPERATOR_TASKS]


def test_factorize_gates_before_the_eigensolve(monkeypatch):
    # the PT check precedes the eigensolve
    calls = count_calls(monkeypatch, np.linalg, "eig")
    not_pt = run_scenario(parse_model(dict(MODEL_2X2, pseudometric="identity")),
                          "factorize").rows
    assert [r.name for r in not_pt] == ["NotPTSymmetric"]
    assert calls == []


@pytest.mark.parametrize("doc,dim", [
    (MODEL_2X2, 2),
    ({"kind": "lattice", "n": 4, "gamma": 0.3}, 4),
    ({"kind": "schroedinger", "grid": {"L": 1, "N": 5}, "V_real": "x^2"}, 5),
])
def test_pseudometric_of_the_wrong_size_is_a_schema_error(doc, dim):
    for k in (dim - 1, dim + 1):
        with pytest.raises(SchemaError) as err:
            parse_model(dict(doc, pseudometric=np.eye(k).tolist()))
        assert err.value.path == "pseudometric"
        assert str(err.value) == (
            f"pseudometric: expected a {dim} x {dim} matrix for a model of "
            f"dimension {dim}, got {k} x {k}")
    spec = parse_model(dict(doc, pseudometric=np.eye(dim).tolist()))
    assert spec.payload["pseudometric"].shape == (dim, dim)


@pytest.mark.parametrize("choice", ["parity", "identity", [[5]],
                                    np.eye(21).tolist(), 3])
def test_family_model_takes_no_pseudometric(choice):
    doc = {"kind": "family", "grid": {"L": 4, "N": 21},
           "sigma": "1+0.5*exp(-x^2)", "alpha": "x*exp(-x^2)"}
    with pytest.raises(SchemaError) as err:
        parse_model(dict(doc, pseudometric=choice))
    assert err.value.path == "pseudometric"
    assert "family model takes no pseudometric" in str(err.value)


def test_operator_report_certifies_each_matrix_once(monkeypatch):
    # the default Theta and the charge's Theta: factorize and table read
    # the charge's certificate, and the inertia of the parity P is its
    # closed form; P is a structured reversal, never built nor inverted,
    # the left vectors start from the flip pairing, with no LU inverse and
    # no SVD, and the one solve is against Theta in the table's H-space
    # conjugation
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    solves = count_calls(monkeypatch, np.linalg, "solve")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    conds = count_calls(monkeypatch, np.linalg, "cond")
    inverted = count_calls(monkeypatch, np.linalg, "inv")

    def forbidden(*args):
        raise AssertionError("the report recomposed the triple")

    def built(*args):
        raise AssertionError("the report built the parity matrix")
    monkeypatch.setattr(factorization, "make_triple", forbidden)
    monkeypatch.setattr(models, "make_triple", forbidden, raising=False)
    monkeypatch.setattr(factorization, "parity_matrix", built)
    report = run_battery(parse_model(MODEL_LATTICE))
    assert report.all_passed
    assert len(calls) == 2
    assert len(solves) == 1
    assert svds == [] and conds == []
    assert inverted == []


def matrix_data(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# H = P^-1 M with M Hermitian positive definite is P-pseudo-Hermitian with
# a real spectrum, for a P that is neither parity nor a permutation
P_DENSE = np.diag([1.0, 2.0, -1.5, 3.0])
M_HPD = np.array([[4.0, 1.0, 0.5j, 0.0],
                  [1.0, 3.0, 0.25, -0.5j],
                  [-0.5j, 0.25, 5.0, 1.0],
                  [0.0, 0.5j, 1.0, 2.0]])
MODEL_DENSE_P = {"kind": "matrix",
                 "data": matrix_data(np.linalg.solve(P_DENSE, M_HPD)),
                 "pseudometric": matrix_data(P_DENSE)}


def float_bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("doc", [MODEL_DENSE_P, MODEL_LATTICE],
                         ids=["dense-P", "parity-lattice"])
def test_table_and_factorize_read_one_theta(doc):
    rows = {r.name: r.value for r in run_battery(parse_model(doc)).rows}
    assert float_bits(rows["table.Theta_positive"]) == float_bits(
        rows["factorize.theta_eigenvalues"][0])
    assert float_bits(rows["table.Hd_Theta_eq_Theta_H"]) == float_bits(
        rows["factorize.qh_residual_rel"])


@pytest.mark.parametrize("n", range(1, 10))
def test_program_built_pseudometric_equals_validated_one(n):
    data = matrix_data(np.eye(n))
    for choice, matrix in (("parity", parity_matrix(n)),
                           ("identity", np.eye(n))):
        spec = parse_model({"kind": "matrix", "data": data,
                            "pseudometric": choice})
        built = models._Analysis(spec, {}, models.DEFAULT_TOL).pseudometric
        validated = as_pseudometric(matrix)
        assert built.matrix.tobytes() == validated.matrix.tobytes()
        assert built.signature == validated.signature


@pytest.mark.parametrize("task", models.OPERATOR_TASKS + models.FAMILY_TASKS)
def test_task_of_the_other_kind_is_a_schema_row(task):
    # an operator task reads H, which a family model has not; a family
    # task reads the ansatz, which an operator model has not
    family = task in models.FAMILY_TASKS
    spec = parse_model(MODEL_2X2 if family else MODEL_FAMILY)
    need = "a family" if family else "an operator"
    assert [(r.name, r.value, r.passed) for r in run_scenario(
        spec, task).rows] == [("SchemaError", f"task needs {need} model, got "
                               f"kind {spec.kind!r}", False)]


@pytest.mark.parametrize("scale", [1e-20, 1e-11, 1e5, 1e11, 1e20])
def test_scaled_dense_p_gives_the_verdicts_of_p(scale):
    # C = P^-1 Theta does not depend on the scale of P: every verdict is
    # that of P itself, and the charge agrees within roundoff
    def battery(s):
        return rows_by_name(run_battery(parse_model(
            dict(MODEL_2X2, pseudometric=[[0, s], [s, 0]]))))
    base, scaled = battery(1), battery(scale)
    assert [(r.name, r.passed) for r in scaled.values()] == [
        (r.name, r.passed) for r in base.values()]
    assert all(r.passed is not False for r in scaled.values())
    c, c_base = (np.array(rows["factorize.charge"].value) @ [1, 1j]
                 for rows in (scaled, base))
    assert np.linalg.norm(c - c_base) <= 1e-15 * np.linalg.norm(c_base)


REAL_DENSE_P_MODELS = [
    # H = P^-1 M, M = [[2, 1], [1, 3]]: a real H and an indefinite dense P
    {"kind": "matrix", "data": [[2, 1], [-1, -3]],
     "pseudometric": [[1, 0], [0, -1]]},
    # real symmetric H that commute with the flip, under the flip and the
    # identity given as dense matrices
    {"kind": "lattice", "n": 4, "gamma": 0.0,
     "pseudometric": np.fliplr(np.eye(4)).tolist()},
    {"kind": "schroedinger", "grid": {"L": 8, "N": 21}, "V_real": "x^2",
     "pseudometric": np.eye(21).tolist()},
]


def test_real_matrix_stays_real_under_a_dense_p():
    for doc in REAL_DENSE_P_MODELS:
        spec = parse_model(doc)
        h = spec.payload["h"]
        assert h.dtype == np.float64 and h.flags.c_contiguous
        assert parse_model(dict(doc, pseudometric="parity")).payload[
            "h"].dtype == np.float64
        # the run on the same H held complex has the same rows and verdicts
        held_complex = replace(spec, payload=dict(spec.payload,
                                                  h=h.astype(complex)))
        real, cplx = run_battery(spec), run_battery(held_complex)
        assert real.all_passed and cplx.all_passed
        assert [(r.name, r.passed) for r in real.rows] == [
            (r.name, r.passed) for r in cplx.rows]


@pytest.mark.parametrize("doc", [
    {"kind": "lattice", "n": 7, "gamma": 0.4, "coupling": 1.3},
    {"kind": "lattice", "n": 8, "gamma": -0.3, "pattern": "alternating"},
    {"kind": "lattice", "n": 2, "gamma": 0.0},
], ids=["endpoints", "alternating", "two-sites"])
def test_lattice_matches_literal_construction(doc):
    # the assembly through family.tridiagonal is bit-identical to writing
    # the entries of H one by one, and the frame is its real form; an H
    # with no gain or loss is parsed as its real part
    literal = lattice_h(doc)
    if not literal.imag.any():
        literal = np.ascontiguousarray(literal.real)
    assert parsed_h(doc).tobytes() == literal.tobytes()
    spec = parse_model(doc)
    assert spec.payload["h"].tobytes() == real_form(lattice_h(doc))[0].tobytes()


def scalar_parse(data) -> np.ndarray:
    """The entry-by-entry definition of a matrix document."""
    n = len(data)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            out[i, j] = models._as_complex_entry(entry, f"data[{i}][{j}]")
    return out


@pytest.mark.parametrize("data", [
    [[1]],
    [[0, 1], [1, 0]],
    [[-0.0, 2 ** 63 + 1], [10 ** 300, -3]],
    [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]],
    [[[-0.0, -0.0], [1e-310, 2 ** 70 + 1]], [[3, -0.0], [0.1, 7]]],
    matrix_data(M_HPD),
    [[1, [0, -0.5]], [[2, 0.25], -0.0]],
], ids=["1x1", "ints", "signed-zero-big-ints", "readme-pairs",
        "pairs-subnormal", "hpd-4x4", "scalars-and-pairs"])
def test_array_wise_parse_equals_the_scalar_loop(data):
    parsed = models._parse_matrix(data, "data")
    assert parsed.tobytes() == scalar_parse(data).tobytes()
    assert parsed.flags.c_contiguous


@pytest.mark.parametrize("data,path", [
    ([[True, 0], [0, 1]], "data[0][0]"),
    ([[1, "2"], [0, 1]], "data[0][1]"),
    ([[1, 0], [np.int64(3), 1]], "data[1][0]"),
    ([[1, [0, 1]], [0, [1, 2, 3]]], "data[1][1]"),
    ([[1, 0], [0, 10 ** 400]], "data[1][1]"),
    ([[1, 0], [0, float("nan")]], "data[1][1]"),
    ([[1, 0], [0]], "data[1]"),
], ids=["bool", "string", "numpy-int", "triple", "huge-int", "nan",
        "short-row"])
def test_array_wise_parse_leaves_errors_to_the_scalar_loop(data, path):
    with pytest.raises(SchemaError) as err:
        models._parse_matrix(data, "data")
    assert err.value.path == path


SERIES_TASKS = {
    "evolve": (MODEL_2X2, ["identity", "theta"]),
    "family-forward": (MODEL_FAMILY, ["sigma", "alpha", "S", "Lambda",
                                      "real_odd", "imag_even"]),
    "family-inverse": (MODEL_FAMILY, ["sigma_recovered", "alpha_recovered"]),
    "family-check": (MODEL_FAMILY, ["d1_abs", "d0_abs"]),
}


@pytest.mark.parametrize("task", SERIES_TASKS)
def test_series_are_the_task_arrays(task):
    doc, names = SERIES_TASKS[task]
    report = run_scenario(parse_model(doc), task)
    x, named = report.series
    assert isinstance(x, np.ndarray) and x.ndim == 1
    assert [name for name, _ in named] == names
    for _, column in named:
        assert isinstance(column, np.ndarray) and column.shape == x.shape
        assert column.dtype == float


@pytest.mark.parametrize("task", SERIES_TASKS)
def test_series_csv_is_point_major(task):
    doc, _ = SERIES_TASKS[task]
    report = run_scenario(parse_model(doc), task)
    assert report.to_csv() == ("t_or_x,series,value\n"
                               + point_major_csv(*report.series))


def test_json_evolve_keeps_only_its_arrays():
    spec = parse_model(MODEL_2X2)
    steps = 2 ** 18
    trajectory_bytes = steps * 2 * 16  # complex states of the 2x2 model
    tracemalloc.start()
    try:
        report = run_scenario(spec, "evolve", {"steps": steps})
        report.to_json()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_passed
    # the times and the two trace columns, no per-sample Python objects
    assert kept < 2 * trajectory_bytes
    assert peak < 6 * trajectory_bytes


# --- the operator path against the public functions ------------------------

def seeded_pt_matrix(seed: int, dim: int) -> np.ndarray:
    """A + i g B with A symmetric and centrosymmetric and B symmetric and
    anti-centrosymmetric: complex symmetric and PT-symmetric, and dense."""
    rng = np.random.default_rng(seed)
    flip = np.arange(dim)[::-1]
    a, b = rng.normal(size=(2, dim, dim))
    a, b = a + a.T, b + b.T
    return (a + a[flip][:, flip]) + 0.05j * (b - b[flip][:, flip])


ORACLE_MODELS = {
    "lattice-endpoints": {"kind": "lattice", "n": 6, "gamma": 0.3},
    "lattice-alternating": {"kind": "lattice", "n": 8, "gamma": 0.2,
                            "pattern": "alternating"},
    "pt-schroedinger": {"kind": "schroedinger", "grid": {"L": 2, "N": 41},
                        "V_imag": "0.1*x^3"},
    "harmonic": {"kind": "schroedinger", "grid": {"L": 8, "N": 41},
                 "V_real": "x^2"},
    "broken": MODEL_BROKEN,
    "pt-matrix": {"kind": "matrix", "data": matrix_data(seeded_pt_matrix(5, 7))},
    "dense-P": MODEL_DENSE_P,
}


def public_task_rows(spec, task, tol=models.DEFAULT_TOL):
    """(name, value) of each row of an operator task, and its series, from
    the public functions on the operator the task analyzes; a domain error
    is one row, as in a report."""
    doc = spec.document
    h = document_h(doc)
    if "pseudometric" in doc:  # an explicit P: H in its own frame
        b, rotated = h, False
        pm = as_pseudometric(document_matrix(doc["pseudometric"]))
    else:
        b, rotated = real_form(h)
        pm = PseudoMetric.structured("parity", len(b))
    n = len(b)

    def frame(x):
        return matrix_from_real_form(x) if rotated else x.astype(complex)

    def matrices(**named):
        return list(named.items()) if n <= models.MATRIX_ROW_DIM_CAP else []

    try:
        s = eigendecompose(b)
        real, max_imag = is_real_spectrum(s, tol)
        if task == "spectrum":
            recon = frobenius_residual(b - s.reconstruction(),
                                       np.linalg.norm(b))[1]
            pairing = float(np.linalg.norm(s.pairing() - np.eye(n)))
            return [("dim", n), ("eigenvalues", s.eigenvalues),
                    ("spectrum_real", real), ("max_imag", max_imag),
                    ("min_gap", s.min_gap), ("reconstruction_rel", recon),
                    ("biorthonormality_dev", pairing)], None
        if task == "metric":
            cand = spectral_metric(s, reality_tol=tol)
            qh_abs, qh_rel = qh_residual(b, cand.theta)
            return [("qh_residual_rel", qh_rel), ("qh_residual_abs", qh_abs),
                    ("theta_min_eig", cand.min_eig),
                    ("theta_max_eig", cand.max_eig),
                    ("theta_positive", cand.positive),
                    ("theta_condition", cand.condition),
                    *matrices(theta=frame(cand.theta))], None
        if task in ("factorize", "table"):
            require_pseudo_hermitian(pt_symmetry_residual(b, pm)[1], tol)
            charge, cand = charge_from_spectrum(s, pm, reality_tol=tol)
        if task == "factorize":
            c = np.ascontiguousarray(charge)
            c2 = frobenius_residual(c @ c - np.eye(n),
                                    np.linalg.norm(c) ** 2)[1]
            qh_abs, qh_rel = qh_residual(b, cand.theta)
            return [("pt_residual_rel", pt_symmetry_residual(b, pm)[1]),
                    ("charge_involution_rel", c2), ("qh_residual_rel", qh_rel),
                    ("qh_residual_abs", qh_abs),
                    ("theta_positive", cand.positive),
                    ("theta_eigenvalues", cand.eigenvalues),
                    ("p_signature", list(pm.signature)),
                    *matrices(charge=frame(charge),
                              theta=frame(cand.theta))], None
        if task == "table":
            rows = verify_table(SpaceTriple(pm, charge, cand), b, rtol=tol)
            return [("mode", "hilbert" if pm.positive else "krein")] + [
                (r.name, r.abs_residual if r.rel_residual is None
                 else r.rel_residual) for r in rows], None
        psi0 = np.eye(n, dtype=complex)[0]
        traj = propagate_spectrum(s, state_to_real_form(psi0) if rotated
                                  else psi0, np.linspace(0.0, 20.0, 200))
        metrics = {"identity": None}
        if real:
            metrics["theta"] = spectral_metric(s, reality_tol=tol).theta
        traces = norm_trace_columns(traj, metrics)
        ident = traces["identity"]
        rows = [("spectrum_real", real),
                ("fnorm_ratio", float(ident.max() / ident.min()))]
        if real:
            theta = traces["theta"]
            rows.append(("theta_drift_rel", float(
                np.abs(theta - theta[0]).max() / abs(theta[0]))))
        else:
            rate = np.log(ident[-1] / ident[100]) / (traj.times[-1]
                                                     - traj.times[100])
            rows += [("fnorm_growth_rate", float(rate)),
                     ("max_imag", max_imag)]
        return rows, (traj.times, list(traces.items()))
    except QuasihermError as exc:
        return [(exc.code, exc.max_imag if isinstance(exc, BrokenPhase)
                 else str(exc))], None


def jsonable_rows(rows):
    return [(name, models.jsonable(value)) for name, value in rows]


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_operator_rows_equal_the_public_functions(model):
    # the model path runs the private cores on an operator checked once,
    # with its bands and norm taken once; every row of each task and of a
    # report must be what the checking public functions give, bit for bit
    spec = parse_model(ORACLE_MODELS[model])
    battery = []
    for task in models.OPERATOR_TASKS:
        rows, series = public_task_rows(spec, task)
        battery += [(f"{task}.{name}", value) for name, value in rows]
        report = run_scenario(spec, task)
        assert exact((r.name, r.value) for r in report.rows) == exact(
            jsonable_rows(rows))
        if series is None:
            assert report.series is None
        else:
            assert report.series[0].tobytes() == series[0].tobytes()
            assert [(name, v.tobytes()) for name, v in report.series[1]] == [
                (name, v.tobytes()) for name, v in series[1]]
    assert exact((r.name, r.value) for r in run_battery(spec).rows) == exact(
        jsonable_rows(battery))


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_operator_functions_give_a_record_what_they_give_its_array(model):
    # H, and the real form the analysis holds, each as an array and as a
    # CheckedOperator: every operator function returns the same bytes
    doc = ORACLE_MODELS[model]
    h = document_h(doc)
    n = len(h)
    pm = (as_pseudometric(document_matrix(doc["pseudometric"]))
          if "pseudometric" in doc else PseudoMetric.structured("parity", n))
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    theta = x @ x.conj().T
    # a triple whose relations need not hold: Theta = P C = 1
    triple = SpaceTriple(pm, pm.inverse, certify_metric(np.eye(n)))

    def results(a):
        s = eigendecompose(a)
        return [s.eigenvalues.tobytes(), s.right_vectors.tobytes(),
                s.left_vectors.tobytes(), repr(s.min_gap),
                repr(qh_residual(a, theta)),
                repr(pt_symmetry_residual(a, pm)),
                repr(verify_table(triple, a)),
                adjoint_product(a, x).tobytes(),
                right_product(x, a).tobytes()]
    for a in (h, real_form(h)[0]):
        assert results(checked_operator(a)) == results(a)
