import json

import numpy as np
import pytest

import quasiherm.errors as errors_module
from quasiherm import (ParityViolation, QuasihermError, SchemaError,
                       parse_model, pt_symmetry_residual, parity_matrix,
                       run_battery, run_scenario)

MODEL_2X2 = {"kind": "matrix", "data": [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]]}
MODEL_BROKEN = {"kind": "matrix", "data": [[[0, 1.2], [1, 0]], [[1, 0], [0, -1.2]]]}
MODEL_FAMILY = {"kind": "family", "grid": {"L": 4, "N": 201},
                "sigma": "1+0.5*exp(-x^2)", "alpha": "x*exp(-x^2)",
                "omega": 0.7}


def rows_by_name(report):
    return {r.name: r for r in report.rows}


def test_parse_matrix_model():
    spec = parse_model(json.dumps(MODEL_2X2))
    h = spec.payload["matrix"]
    assert np.array_equal(h, np.array([[0.6j, 1.0], [1.0, -0.6j]]))
    assert spec.kind == "matrix"
    assert len(spec.digest) == 64


def test_parse_schroedinger_model():
    spec = parse_model({"kind": "schroedinger", "grid": {"L": 8, "N": 401},
                        "V_real": "x^2", "V_imag": "0"})
    grid = spec.payload["grid"]
    assert grid.npoints == 401
    assert grid.spacing == pytest.approx(0.04)
    v = spec.payload["potential"]
    assert np.abs(v - grid.points ** 2).max() <= 1e-12


def test_parse_family_model():
    spec = parse_model(MODEL_FAMILY)
    ansatz = spec.payload["ansatz"]
    assert np.array_equal(ansatz.sigma, ansatz.sigma[::-1])
    assert np.array_equal(ansatz.alpha, -ansatz.alpha[::-1])
    assert ansatz.omega == 0.7


def test_parse_lattice_model():
    spec = parse_model({"kind": "lattice", "n": 5, "gamma": 0.5})
    h = spec.payload["matrix"]
    assert h[0, 0] == 0.5j and h[4, 4] == -0.5j
    assert h[0, 1] == 1.0
    _, rel = pt_symmetry_residual(h, parity_matrix(5))
    assert rel <= 1e-14


def test_lattice_alternating_parity():
    spec = parse_model({"kind": "lattice", "n": 4, "gamma": 0.3,
                        "pattern": "alternating"})
    h = spec.payload["matrix"]
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
    # README harmonic potential on a coarser grid: wall doublets still
    # make the standard charge fail (degenerate clusters, not yet handled)
    (MODEL_HARMONIC, {"factorize.ExceptionalPoint", "table.ExceptionalPoint"}),
    ({"kind": "lattice", "n": 4, "gamma": 0.0, "pseudometric": "identity"},
     set()),
    (dict(MODEL_2X2, pseudometric="identity"),
     {"factorize.NotPTSymmetric", "table.NotPTSymmetric"}),
    (MODEL_FAMILY, set()),
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


def test_spectrum_scenario_builds_nothing_else(monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    report = run_scenario(parse_model(MODEL_LATTICE), "spectrum")
    assert report.all_passed
    assert calls == []


def test_errors_are_raised_again_not_cached(monkeypatch):
    # every task needing the eigensystem reports the failure, and each
    # one retries the eigensolve, since only successes are memoized
    calls = count_calls(monkeypatch, np.linalg, "eig")
    doc = {"kind": "matrix", "data": [[1, 0], [0, 1]]}
    report = run_battery(parse_model(doc))
    names = [r.name for r in report.rows]
    assert names == ["spectrum.DegenerateSpectrum", "metric.DegenerateSpectrum",
                     "factorize.DegenerateSpectrum", "table.DegenerateSpectrum",
                     "evolve.DegenerateSpectrum"]
    assert len(calls) == 5


def test_factorize_gates_before_the_eigensolve(monkeypatch):
    # the pseudometric checks precede the eigensolve, with the same
    # messages as before the shared analysis
    calls = count_calls(monkeypatch, np.linalg, "eig")
    wrong_dim = dict(MODEL_2X2, pseudometric=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    spec = parse_model(wrong_dim)
    factorize = run_scenario(spec, "factorize").rows
    table = run_scenario(spec, "table").rows
    assert [r.name for r in factorize] == ["DimensionMismatch"]
    assert factorize[0].value == "operator (2, 2) incompatible with metric (3, 3)"
    assert [r.name for r in table] == ["DimensionMismatch"]
    assert table[0].value == (
        "operator (2, 2) incompatible with pseudometric (3, 3)")
    not_pt = run_scenario(parse_model(dict(MODEL_2X2, pseudometric="identity")),
                          "factorize").rows
    assert [r.name for r in not_pt] == ["NotPTSymmetric"]
    assert calls == []


def test_operator_report_certifies_each_matrix_once(monkeypatch):
    # the signature of P, the default Theta, the charge's Theta and the
    # table's Theta; factorize reads theta_eigenvalues from the certificate
    calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
    report = run_battery(parse_model(MODEL_LATTICE))
    assert report.all_passed
    assert len(calls) == 4


@pytest.mark.parametrize("doc", [
    {"kind": "lattice", "n": 7, "gamma": 0.4, "coupling": 1.3},
    {"kind": "lattice", "n": 8, "gamma": -0.3, "pattern": "alternating"},
    {"kind": "lattice", "n": 2, "gamma": 0.0},
], ids=["endpoints", "alternating", "two-sites"])
def test_lattice_matches_literal_construction(doc):
    # the assembly through family.tridiagonal is bit-identical to writing
    # the entries of H one by one
    n = doc["n"]
    gamma = doc["gamma"]
    coupling = doc.get("coupling", 1.0)
    h = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        h[k, k + 1] = coupling
        h[k + 1, k] = coupling
    if doc.get("pattern") == "alternating":
        for k in range(n):
            h[k, k] += 1j * gamma * (-1.0) ** k
    else:
        h[0, 0] = 1j * gamma
        h[n - 1, n - 1] = -1j * gamma
    assert parse_model(doc).payload["matrix"].tobytes() == h.tobytes()
