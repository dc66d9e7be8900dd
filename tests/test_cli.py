import argparse
import csv
import io
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

from conftest import point_major_csv
from quasiherm import models
from quasiherm.cli import build_parser, main
from quasiherm.models import (MAX_DENSE_DIM, MAX_EVOLVE_ENTRIES,
                              MAX_REFINED_POINTS, parse_model, run_battery,
                              run_scenario)

MODEL_2X2 = {"kind": "matrix", "data": [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]]}
MODEL_BROKEN = {"kind": "matrix", "data": [[[0, 1.2], [1, 0]], [[1, 0], [0, -1.2]]]}
MODEL_FAMILY = {"kind": "family", "grid": {"L": 4, "N": 101},
                "sigma": "1+0.5*exp(-x^2)", "alpha": "x*exp(-x^2)",
                "omega": 0.7}


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_factorize_golden(model_file, capsys):
    code, doc = run_json(capsys, ["factorize", "--model",
                                  model_file(MODEL_2X2)])
    assert code == 0
    assert doc["scenario"] == "matrix/factorize"
    rows = {r["name"]: r for r in doc["rows"]}
    charge = np.array([[complex(re, im) for re, im in row]
                       for row in rows["charge"]["value"]])
    assert np.abs(charge - np.array([[0.75j, 1.25], [1.25, -0.75j]])
                  ).max() <= 1e-12
    assert np.abs(np.array(rows["theta_eigenvalues"]["value"])
                  - np.array([0.5, 2.0])).max() <= 1e-12


def test_metric_broken_phase_exit_one(model_file, capsys):
    code, doc = run_json(capsys, ["metric", "--model",
                                  model_file(MODEL_BROKEN)])
    assert code == 1
    row = doc["rows"][0]
    assert row["name"] == "BrokenPhase"
    assert row["pass"] is False
    assert abs(row["value"] - np.sqrt(0.44)) <= 1e-9


def test_schema_error_exit_two(model_file, capsys):
    path = model_file({"kind": "matrix", "data": [[1, 2], [3]]})
    assert main(["spectrum", "--model", path]) == 2
    err = capsys.readouterr().err
    assert "data[1]" in err


def test_pseudometric_of_the_wrong_size_exit_two(model_file, capsys):
    path = model_file(dict(MODEL_2X2, pseudometric=np.eye(3).tolist()))
    for task in (["factorize"], ["table"], ["report"]):
        assert main(task + ["--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pseudometric: expected a 2 x 2 matrix" in captured.err


def test_family_pseudometric_exit_two(model_file, capsys):
    path = model_file(dict(MODEL_FAMILY, pseudometric="parity"))
    for task in (["family", "forward"], ["family", "check"], ["report"]):
        assert main(task + ["--model", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pseudometric: a family model takes no pseudometric" in (
            captured.err)


def test_unreadable_model_exit_two(tmp_path, capsys):
    assert main(["spectrum", "--model", str(tmp_path / "missing.json")]) == 2


def test_invalid_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["spectrum", "--model", str(path)]) == 2


LATTICE_4 = {"kind": "lattice", "n": 4, "gamma": 0.3}
BOX = {"kind": "schroedinger", "grid": {"L": 4, "N": 5}}


# a fault of the model exits 2 with its message on stderr; a fault of an
# evolve option is one failed SchemaError row, exit 1
@pytest.mark.parametrize("argv,doc,code,message", [
    (["report"], {"kind": "lattice", "n": 1}, 2,
     "n: need at least two sites"),
    (["report"], dict(LATTICE_4, pattern="zigzag"), 2,
     "pattern: unknown pattern 'zigzag'"),
    (["report"], [1, 2], 2, "model document must be an object"),
    (["report"], dict(MODEL_2X2, pseudometric=5), 2,
     "pseudometric: pseudometric must be 'parity', 'identity', or a matrix"),
    (["report"], dict(BOX, grid={"L": "4", "N": 5}), 2,
     "grid.L: expected a number, got '4'"),
    (["report"], dict(BOX, grid={"L": 4, "N": 5.0}), 2,
     "grid.N: expected an integer, got 5.0"),
    (["report"], dict(BOX, grid=5), 2, "grid: expected an object with L and N"),
    (["report"], dict(BOX, V_real=3), 2,
     "V_real: expected an expression string, got 3"),
    (["report"], {"kind": "matrix", "data": []}, 2,
     "data: expected a non-empty list of rows"),
    (["evolve", "--psi0", "9"], LATTICE_4, 1,
     "psi0: psi0 index out of range for dim 4"),
    (["evolve", "--psi0", "psi0.json"], LATTICE_4, 1,
     "psi0: psi0 must have dimension 4"),
    (["evolve", "--t-max", "-1"], LATTICE_4, 1,
     "evolve: need t_max > 0 and steps >= 2"),
], ids=["n-1", "pattern", "document-list", "pseudometric-number", "L-string",
        "N-float", "grid-number", "V_real-number", "data-empty",
        "psi0-index", "psi0-length", "t_max-negative"])
def test_intake_error_exit_code_and_message(model_file, tmp_path, capsys,
                                            argv, doc, code, message):
    (tmp_path / "psi0.json").write_text("[1, 0]")
    argv = [str(tmp_path / arg) if arg == "psi0.json" else arg
            for arg in argv]
    assert main([*argv, "--model", model_file(doc)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert (captured.out, captured.err) == ("", f"quasiherm: {message}\n")
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["rows"] == [
            {"name": "SchemaError", "value": message, "pass": False,
             "tol": None}]


def test_reports_are_byte_identical(model_file, tmp_path):
    path = model_file(MODEL_2X2)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["table", "--model", path, "--out", str(out1)]) == 0
    assert main(["table", "--model", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_and_table_pass(model_file, capsys):
    path = model_file(MODEL_2X2)
    code, doc = run_json(capsys, ["spectrum", "--model", path])
    assert code == 0
    code, doc = run_json(capsys, ["table", "--model", path])
    assert code == 0
    names = [r["name"] for r in doc["rows"]]
    assert "H_sharp_eq_H" in names and "P_signature_minus" in names


def test_evolve_csv_series(model_file, capsys):
    code = main(["evolve", "--model", model_file(MODEL_2X2), "--format",
                 "csv", "--t-max", "5", "--steps", "20"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t_or_x,series,value"
    # 20 time samples, two monitored metrics
    assert len(lines) == 1 + 20 * 2


def test_evolve_psi0_vector_file(model_file, tmp_path, capsys):
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps([[0.0, 1.0], [1.0, 0.0]]))
    code, doc = run_json(capsys, ["evolve", "--model", model_file(MODEL_2X2),
                                  "--psi0", str(psi_path)])
    assert code == 0
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows["theta_drift_rel"]["pass"] is True


def test_family_subcommands(model_file, capsys):
    path = model_file(MODEL_FAMILY)
    assert main(["family", "forward", "--model", path]) == 0
    capsys.readouterr()
    assert main(["family", "inverse", "--model", path, "--branch", "-1"]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["family", "check", "--model", path,
                                  "--refine", "1"])
    assert code == 0
    names = [r["name"] for r in doc["rows"]]
    assert "ode_ratio_S_level1" in names


def test_report_battery(model_file, capsys):
    code, doc = run_json(capsys, ["report", "--model", model_file(MODEL_2X2)])
    assert code == 0
    assert doc["scenario"] == "matrix/report"
    assert any(r["name"].startswith("factorize.") for r in doc["rows"])


def test_broken_report_battery_fails(model_file, capsys):
    code, doc = run_json(capsys, ["report", "--model",
                                  model_file(MODEL_BROKEN)])
    assert code == 1
    failing = [r for r in doc["rows"] if r["pass"] is False]
    assert any(r["name"] == "metric.BrokenPhase" for r in failing)


def test_tolerance_flag_tightens_rows(model_file, capsys):
    # an absurd tolerance of 0 makes residual rows fail
    code, doc = run_json(capsys, ["factorize", "--model",
                                  model_file(MODEL_2X2), "--tol", "0"])
    assert code == 1


def test_row_mode_csv_is_parseable(model_file, capsys):
    import csv as csv_module
    import io
    code = main(["spectrum", "--model", model_file(MODEL_2X2), "--format",
                 "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv_module.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value", "pass", "tol"]
    assert all(len(r) == 4 for r in rows[1:])
    by_name = {r[0]: r for r in rows[1:]}
    # list-valued rows stay a single quoted CSV field
    assert json.loads(by_name["eigenvalues"][1])


@pytest.mark.parametrize("doc", [
    {"kind": "schroedinger", "grid": {"L": 2, "N": 11},
     "V_real": "1e200*1e200*x^2"},
    {"kind": "family", "grid": {"L": 2, "N": 11},
     "sigma": "1e200*1e200+x^2", "alpha": "x"},
])
def test_overflowing_expression_exit_two(model_file, capsys, recwarn, doc):
    assert main(["report", "--model", model_file(doc)]) == 2
    err = capsys.readouterr().err
    assert "non-finite value inf (at x = -2.0)" in err
    assert len(recwarn) == 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_overflowing_evolve_is_a_failed_row(model_file, capsys, recwarn, fmt):
    # a broken phase with max |Im lambda| ~ 40 overflows exp(-i lambda t),
    # and its eigensystem passes its own checks
    doc = {"kind": "lattice", "n": 6, "gamma": 40, "pattern": "alternating"}
    code = main(["evolve", "--model", model_file(doc), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert "NonFiniteResult" in captured.out
    assert "nan" not in captured.out and "inf" not in captured.out
    assert captured.err == ""
    assert len(recwarn) == 0


@pytest.mark.parametrize("argv", [[], ["--steps", "7", "--t-max", "3"]])
def test_evolve_on_an_inaccurate_eigensystem_is_a_failed_row(model_file,
                                                             capsys, argv):
    # cond(V) ~ 1e9: the spectrum task fails reconstruction_rel, so no norm
    # row of the expansion is reported (it gave fnorm_ratio 5.19e74, exit 0)
    doc = {"kind": "schroedinger", "grid": {"L": 8, "N": 201},
           "V_real": "0", "V_imag": "0.1*x^3"}
    path = model_file(doc)
    code = main(["evolve", "--model", path] + argv)
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert code == 1
    assert [r["name"] for r in rows] == ["InaccurateEigensystem"]
    assert main(["spectrum", "--model", path]) == 1
    failed = [r["name"] for r in json.loads(capsys.readouterr().out)["rows"]
              if r["pass"] is False]
    assert failed == ["reconstruction_rel", "biorthonormality_dev"]


def test_main_reuses_one_parser(model_file, capsys, monkeypatch):
    from quasiherm import cli
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    path = model_file(MODEL_2X2)
    main(["evolve", "--model", path, "--steps", "3", "--format", "csv"])
    short = capsys.readouterr().out
    main(["evolve", "--model", path, "--format", "csv"])
    default = capsys.readouterr().out
    # options of one call do not stick to the next
    assert len(short.splitlines()) == 1 + 2 * 3
    assert len(default.splitlines()) == 1 + 2 * 200
    assert built == [1]
    assert original() is not original()


HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("text,path", [
    ('{"kind": "matrix", "data": [[1e400, 0], [0, 1]]}', "data[0][0]"),
    ('{"kind": "matrix", "data": [[1, [0, NaN]], [0, 1]]}', "data[0][1]"),
    ('{"kind": "matrix", "data": [[1, 0], [0, -Infinity]]}', "data[1][1]"),
    ('{"kind": "matrix", "data": [[%s, 0], [0, 1]]}' % HUGE_INT, "data[0][0]"),
    ('{"kind": "matrix", "data": [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]],'
     ' "pseudometric": [[0, 1], [1, Infinity]]}', "pseudometric[1][1]"),
    ('{"kind": "lattice", "n": 4, "gamma": 1e400}', "gamma"),
    ('{"kind": "lattice", "n": 4, "coupling": NaN}', "coupling"),
    ('{"kind": "family", "grid": {"L": 4, "N": 21}, "sigma": "1",'
     ' "alpha": "x", "omega": Infinity}', "omega"),
], ids=["data-1e400", "data-pair-NaN", "data-minus-Infinity", "data-huge-int",
        "pseudometric-Infinity", "gamma-1e400", "coupling-NaN",
        "omega-Infinity"])
@pytest.mark.parametrize("task", ["spectrum", "report"])
def test_non_finite_model_number_exit_two(tmp_path, capsys, recwarn, text,
                                          path, task):
    model = tmp_path / "model.json"
    model.write_text(text)
    assert main([task, "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: expected a finite number" in err
    assert len(recwarn) == 0


def test_integer_beyond_conversion_limit_exit_two(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"kind": "matrix", "data": [[1%s, 0], [0, 1]]}'
                     % ("0" * 5000))
    assert main(["spectrum", "--model", str(model)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["[0, 1e400]", "NaN", HUGE_INT],
                         ids=["pair-1e400", "NaN", "huge-int"])
def test_non_finite_psi0_entry_is_a_schema_row(model_file, tmp_path, capsys,
                                               entry):
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(f"[[1, 0], {entry}]")
    code, doc = run_json(capsys, ["evolve", "--model", model_file(MODEL_2X2),
                                  "--psi0", str(psi_path)])
    assert code == 1
    assert [r["name"] for r in doc["rows"]] == ["SchemaError"]
    assert "psi0: expected a finite number" in doc["rows"][0]["value"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--tol", "-1"],
    ["spectrum", "--tol", "nan"],
    ["spectrum", "--tol", "inf"],
    ["spectrum", "--gap-floor", "-1"],
    ["spectrum", "--gap-floor", "nan"],
    ["evolve", "--t-max", "inf"],
    ["evolve", "--t-max", "nan"],
], ids=" ".join)
def test_bad_float_option_exit_two(model_file, capsys, recwarn, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--model", model_file(MODEL_2X2)])
    assert exit_info.value.code == 2
    assert "expected a" in capsys.readouterr().err
    assert len(recwarn) == 0


def test_zero_gap_floor_is_accepted(model_file, capsys):
    code, _ = run_json(capsys, ["spectrum", "--model", model_file(MODEL_2X2),
                                "--gap-floor", "0"])
    assert code == 0


BROKEN_SCHROEDINGER = {"kind": "schroedinger", "grid": {"L": 8, "N": 201},
                       "V_real": "0", "V_imag": "0.1*x^3"}


def test_failed_numpy_verdict_rows_exit_one(model_file, capsys):
    # reconstruction_rel and biorthonormality_dev fail on this model; their
    # verdicts come from numpy comparisons
    code, doc = run_json(capsys, ["spectrum", "--model",
                                  model_file(BROKEN_SCHROEDINGER)])
    failing = [r["name"] for r in doc["rows"] if r["pass"] is False]
    assert failing == ["reconstruction_rel", "biorthonormality_dev"]
    assert code == 1


@pytest.mark.parametrize("content", [b"[[1, 0], [0, 1", b"\xff\xfe[1]"],
                         ids=["truncated", "not-utf8"])
def test_bad_psi0_file_exit_two(model_file, tmp_path, capsys, content):
    psi_path = tmp_path / "psi.json"
    psi_path.write_bytes(content)
    assert main(["evolve", "--model", model_file(MODEL_2X2),
                 "--psi0", str(psi_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "psi0: invalid JSON" in captured.err


@pytest.mark.parametrize("doc,path", [
    ({"kind": "lattice", "n": 10 ** 30}, "n"),
    ({"kind": "lattice", "n": MAX_DENSE_DIM + 1}, "n"),
    ({"kind": "schroedinger", "grid": {"L": 8, "N": 10 ** 30 + 1}}, "grid.N"),
    ({"kind": "schroedinger", "grid": {"L": 8, "N": MAX_DENSE_DIM + 1}},
     "grid.N"),
], ids=["lattice-1e30", "lattice-cap+1", "schroedinger-1e30+1",
        "schroedinger-cap+1"])
def test_oversize_dense_model_exit_two(model_file, capsys, doc, path):
    tracemalloc.start()
    try:
        code = main(["spectrum", "--model", model_file(doc)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"{path}: " in capsys.readouterr().err
    # a dense matrix at the cap alone would take 16 * 2048^2 bytes = 67 MB
    assert peak < 2 ** 20


@pytest.mark.parametrize("npoints", [201, 301, 401, 801])
def test_readme_harmonic_report_passes(model_file, capsys, npoints):
    # H is real symmetric and commutes with the flip; its wall doublets are
    # solved by parity sector, so the charge is P and every row passes
    doc = {"kind": "schroedinger", "grid": {"L": 8, "N": npoints},
           "V_real": "x^2", "V_imag": "0"}
    code = main(["report", "--model", model_file(doc)])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["name"] for r in rows if r["pass"] is False] == []
    assert code == 0


def test_dense_model_at_the_cap_is_accepted():
    spec = parse_model({"kind": "lattice", "n": MAX_DENSE_DIM})
    assert spec.payload["h"].shape == (MAX_DENSE_DIM, MAX_DENSE_DIM)


def test_non_utf8_model_file_exit_two(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(MODEL_2X2).encode("utf-16-le"))
    assert main(["spectrum", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "model file is not UTF-8" in captured.err


# MODEL_FAMILY has N = 101, so its finest grid is 100 * 2^k + 1 points
@pytest.mark.parametrize("argv,path", [
    (["evolve", "--steps", "1000000000000"], "evolve"),
    (["evolve", "--steps", str(MAX_EVOLVE_ENTRIES // 2 + 1)], "evolve"),
    (["family", "check", "--refine", "40"], "refine"),
    (["family", "check", "--refine", "14"], "refine"),
    (["family", "check", "--refine", "-2"], "refine"),
], ids=["steps-1e12", "steps-cap+1", "refine-40", "refine-cap+1",
        "refine-negative"])
def test_oversize_task_option_is_a_schema_row(model_file, capsys, argv, path):
    assert (100 * 2 ** 13 + 1 <= MAX_REFINED_POINTS < 100 * 2 ** 14 + 1)
    doc = MODEL_FAMILY if argv[0] == "family" else MODEL_2X2
    tracemalloc.start()
    try:
        code = main([*argv, "--model", model_file(doc)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    rows = json.loads(captured.out)["rows"]
    assert [(r["name"], r["pass"]) for r in rows] == [("SchemaError", False)]
    assert rows[0]["value"].startswith(f"{path}: need ")
    assert peak < 2 ** 20


def test_refinement_of_the_benchmark_family_runs(model_file, capsys):
    doc = dict(MODEL_FAMILY, grid={"L": 4, "N": 1201})
    code, out = run_json(capsys, ["family", "check", "--refine", "2",
                                  "--model", model_file(doc)])
    assert code == 0
    names = {r["name"] for r in out["rows"]}
    assert {"ode_ratio_S_level2", "ode_ratio_Lambda_level2"} <= names


@pytest.mark.parametrize("sigma,error,value", [
    ("1+1/(x^2-0.25)^2", "EvalError", "division by zero (at x = -0.5)"),
    ("1+0.1*x*sin(3.141592653589793*x)^2", "ParityViolation",
     "sigma: function tagged even has asymmetry 3.500e-01"),
], ids=["eval-error", "parity-violation"])
def test_sample_failing_only_on_a_refined_grid_is_a_failed_row(
        model_file, capsys, sigma, error, value):
    path = model_file(dict(MODEL_FAMILY, grid={"L": 4, "N": 9}, sigma=sigma))
    code, _ = run_json(capsys, ["family", "check", "--model", path])
    assert code == 0
    code, out = run_json(capsys, ["family", "check", "--refine", "1",
                                  "--model", path])
    assert code == 1
    assert [(r["name"], r["value"], r["pass"]) for r in out["rows"]] == [
        (error, value, False)]


COMMON_FLAGS = {"-h", "--help", "--model", "--tol", "--out", "--format",
                "--gap-floor"}
CLI_SURFACE = {
    ("spectrum",): COMMON_FLAGS,
    ("metric",): COMMON_FLAGS,
    ("factorize",): COMMON_FLAGS,
    ("table",): COMMON_FLAGS,
    ("evolve",): COMMON_FLAGS | {"--t-max", "--steps", "--psi0"},
    ("report",): COMMON_FLAGS,
    ("family", "forward"): COMMON_FLAGS,
    ("family", "inverse"): COMMON_FLAGS | {"--branch"},
    ("family", "check"): COMMON_FLAGS | {"--refine"},
}


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) of every runnable subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_cli_lists_every_subcommand():
    assert {path for path, _ in _leaf_parsers(build_parser())} \
        == set(CLI_SURFACE)


@pytest.mark.parametrize("command", sorted(CLI_SURFACE), ids=" ".join)
def test_cli_surface_and_task_defaults(model_file, capsys, command):
    leaves = dict(_leaf_parsers(build_parser()))
    flags = {s for a in leaves[command]._actions for s in a.option_strings}
    assert flags == CLI_SURFACE[command]

    # with no task flag given, the output is the task's own default run
    doc = MODEL_FAMILY if command[0] == "family" else MODEL_2X2
    path = model_file(doc)
    assert main([*command, "--model", path]) == 0
    out = capsys.readouterr().out
    spec = parse_model(json.dumps(doc))
    task = "-".join(command)
    expected = (run_battery(spec) if task == "report"
                else run_scenario(spec, task))
    assert out == expected.to_json()
    rows = {r["name"]: r["value"] for r in json.loads(out)["rows"]}
    if task == "family-inverse":
        assert rows["branch"] == 1
    if task == "family-check":
        assert not any("_level" in name for name in rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vector", [[[0, 0], [0, 0]], [[1e-200, 0], [0, 0]]],
                         ids=["zero", "underflowing"])
def test_zero_psi0_is_a_schema_row(model_file, tmp_path, capsys, vector):
    # a state whose squared norm is 0 would make every norm ratio 0/0
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps(vector))
    code, doc = run_json(capsys, ["evolve", "--model", model_file(MODEL_2X2),
                                  "--psi0", str(psi_path)])
    assert code == 1
    assert [r["name"] for r in doc["rows"]] == ["SchemaError"]
    assert "psi0: psi0 must be nonzero" in doc["rows"][0]["value"]


# finite entries whose squared Frobenius norm overflows: the real form,
# the degeneracy floor and every residual row would overflow with it
OVERFLOWING_NORM = {
    "lattice-gamma": ({"kind": "lattice", "n": 4, "gamma": 1e308}, ""),
    "lattice-coupling": ({"kind": "lattice", "n": 4, "coupling": 1e308}, ""),
    "pt-matrix": ({"kind": "matrix",
                   "data": [[[1e308, 1e308], [1e308, 0]],
                            [[1e308, 0], [1e308, -1e308]]]}, "data: "),
    "real-matrix": ({"kind": "matrix",
                     "data": [[1e308, 2e307], [0, -1e308]]}, "data: "),
    "schroedinger": ({"kind": "schroedinger", "grid": {"L": 1, "N": 5},
                      "V_real": "1e308"}, ""),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", OVERFLOWING_NORM)
@pytest.mark.parametrize("task", ["spectrum", "evolve", "report"])
def test_overflowing_operator_norm_exit_two(model_file, capsys, case, task):
    doc, path = OVERFLOWING_NORM[case]
    assert main([task, "--model", model_file(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"quasiherm: {path}the squared Frobenius norm "
                            "of H is not finite\n")


def test_largest_finite_norm_is_accepted():
    # a squared norm just below the largest double passes the intake check
    spec = parse_model({"kind": "matrix", "data": [[1.3e154, 0], [0, 0]]})
    assert spec.payload["h"][0, 0] == 1.3e154
    spec = parse_model(dict(MODEL_2X2, pseudometric=[[0, 9e153],
                                                      [9e153, 0]]))
    assert spec.payload["pseudometric"][0, 1] == 9e153


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task", ["spectrum", "report"])
def test_overflowing_degeneracy_floor_is_inf(model_file, capsys, task):
    # a Jordan block that passes the intake check, whose (kappa_i +
    # kappa_j) N eps ||H||_F overflows: the floor reads inf, with no warning
    path = model_file({"kind": "matrix", "data": [[1, 1.3e154], [0, 1]]})
    code, report = run_json(capsys, [task, "--model", path])
    assert code == 1
    assert capsys.readouterr().err == ""
    prefix = "spectrum." if task == "report" else ""
    assert {"name": f"{prefix}DegenerateSpectrum",
            "value": "eigenvalues 0 and 1: gap 0.000e+00 below floor inf",
            "pass": False, "tol": None} in report["rows"]
    assert not any(r["pass"] for r in report["rows"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task", ["factorize", "table", "report"])
def test_overflowing_theta_norm_is_one_failed_row(model_file, capsys, task):
    # P passes the intake check, but the triple's Theta = P C scales with
    # P and its squared Frobenius norm overflows: its residuals would read 0
    doc = dict(MODEL_2X2, pseudometric=[[0, 9e153], [9e153, 0]])
    code, report = run_json(capsys, [task, "--model", model_file(doc)])
    assert code == 1
    failed = [r for r in report["rows"] if r["pass"] is False]
    prefixes = ["factorize.", "table."] if task == "report" else [""]
    assert failed == [
        {"name": f"{prefix}NonFiniteResult",
         "value": "the squared Frobenius norm of the metric is not finite",
         "pass": False, "tol": None} for prefix in prefixes]
    if task != "report":
        assert len(report["rows"]) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task", ["spectrum", "factorize", "report"])
def test_overflowing_pseudometric_norm_exit_two(model_file, capsys, task):
    # finite entries of P whose squared Frobenius norm overflows
    doc = {"kind": "matrix", "data": [[1, 0], [0, 2]],
           "pseudometric": [[0, 1e300], [1e300, 0]]}
    assert main([task, "--model", model_file(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("quasiherm: pseudometric: the squared Frobenius "
                            "norm of P is not finite\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [0, 1e-300, -2.5])
@pytest.mark.parametrize("task", ["spectrum", "report"])
def test_one_state_spectrum_has_no_gap(model_file, capsys, entry, task):
    # one eigenvalue makes no pair: min_gap is null, not inf
    path = model_file({"kind": "matrix", "data": [[entry]]})
    code, doc = run_json(capsys, [task, "--model", path])
    assert code == 0
    prefix = "spectrum." if task == "report" else ""
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows[prefix + "min_gap"] == {"name": prefix + "min_gap",
                                        "value": None, "pass": None,
                                        "tol": None}
    assert rows[prefix + "eigenvalues"]["value"] == [[entry, 0]]
    assert main([task, "--model", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"{prefix}min_gap,null,," in lines
    assert not any("inf" in line or "nan" in line for line in lines)


@pytest.mark.filterwarnings("error")
def test_overflowing_psi0_is_a_schema_row(model_file, tmp_path, capsys):
    # finite entries whose squared norm overflows, on a rotated lattice
    psi_path = tmp_path / "psi.json"
    psi_path.write_text("[[1.5e308, 0], [0, 0], [0, 0], [0, 1.5e308]]")
    code, doc = run_json(capsys, [
        "evolve", "--model",
        model_file({"kind": "lattice", "n": 4, "gamma": 0.3}),
        "--psi0", str(psi_path)])
    assert code == 1
    assert doc["rows"] == [{"name": "SchemaError", "value": (
        "psi0: the squared norm of psi0 is not finite"), "pass": False,
        "tol": None}]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_max,steps,code", [
    ("5e-324", "3", 1), ("3e-323", "5", 1), ("1e-320", "5", 0),
    ("1e-310", "200", 0)])
def test_subnormal_time_step(model_file, capsys, t_max, steps, code):
    # a subnormal step gives a strictly increasing grid or a schema row
    argv = ["evolve", "--model", model_file(MODEL_2X2), "--t-max", t_max,
            "--steps", steps]
    assert run_json(capsys, argv)[0] == code
    if code:
        rows = run_json(capsys, argv)[1]["rows"]
        assert rows == [{"name": "SchemaError", "value": (
            f"evolve: the times of t_max = {float(t_max)!r} in {steps} "
            "steps are not strictly increasing"), "pass": False,
            "tol": None}]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content", ["1.5", "null", "true"])
def test_scalar_psi0_file_is_a_schema_row(model_file, tmp_path, capsys,
                                          content):
    # only an integer index or a list of entries names a state; true is not
    # the index 1
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(content)
    code, doc = run_json(capsys, ["evolve", "--model", model_file(MODEL_2X2),
                                  "--psi0", str(psi_path)])
    assert code == 1
    assert [r["name"] for r in doc["rows"]] == ["SchemaError"]
    assert "psi0: expected a basis index or a list" in doc["rows"][0]["value"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,name", [
    (["family", "inverse"], "SigmaVanishes"),
    (["report"], "family-inverse.SigmaVanishes"),
])
def test_vanishing_sigma_roundtrip_is_a_failed_row(model_file, capsys, argv,
                                                   name):
    # S = -x^2 and Lambda = 0 give sigma = 0 everywhere: alpha is lost
    model = {"kind": "family", "grid": {"L": 1, "N": 5}, "sigma": "0",
             "alpha": "x"}
    code, doc = run_json(capsys, argv + ["--model", model_file(model)])
    assert code == 1
    failed = [r for r in doc["rows"] if r["pass"] is False]
    assert [r["name"] for r in failed] == [name]
    assert failed[0]["value"] == [0, 1, 2, 3, 4]


FAMILY_TASK_ARGV = [["family", "forward"], ["family", "inverse"],
                    ["family", "check"], ["report"]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", FAMILY_TASK_ARGV, ids=" ".join)
@pytest.mark.parametrize("model", [
    {"kind": "family", "grid": {"L": 1, "N": 5}, "sigma": "1e200",
     "alpha": "x"},
    {"kind": "family", "grid": {"L": 1e155, "N": 1001}, "sigma": "1",
     "alpha": "x"},
], ids=["sigma-1e200", "alpha-1e155"])
def test_overflowing_family_potential_is_a_failed_row(model_file, capsys,
                                                      argv, model):
    # S = sigma^2 - alpha^2 + omega overflows a double
    code, doc = run_json(capsys, argv + ["--model", model_file(model)])
    assert code == 1
    failed = [r for r in doc["rows"] if r["pass"] is False]
    assert failed and all(r["name"].endswith("NonFiniteResult")
                          for r in failed)


@pytest.mark.filterwarnings("error")
def test_overflowing_inverse_root_is_a_failed_row(model_file, capsys):
    # S = 1e200 is finite, (S - omega)^2 in the inverse map is not
    model = {"kind": "family", "grid": {"L": 1, "N": 5}, "sigma": "1e100",
             "alpha": "x"}
    code, doc = run_json(capsys, ["family", "inverse", "--model",
                                  model_file(model)])
    assert code == 1
    assert [r["name"] for r in doc["rows"]] == ["NonFiniteResult"]


OVERFLOWING_CHECK = {"kind": "family", "grid": {"L": 4, "N": 201},
                     "sigma": "1+0.5*exp(-x^2)",
                     "alpha": "1e105*x*exp(-x^2)", "omega": 0.7}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [["family", "check"],
                                  ["family", "check", "--refine", "2"],
                                  ["report"]], ids=" ".join)
def test_overflowing_family_check_is_one_failed_row(model_file, capsys,
                                                    argv, fmt):
    # S and Lambda are finite (|alpha| stays below 1e105), but the order-0
    # coefficient residual and the composed products overflow
    code = main(argv + ["--model", model_file(OVERFLOWING_CHECK),
                        "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    if fmt == "json":
        rows = json.loads(captured.out)["rows"]
        fields = [r["value"] for r in rows]
    else:
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        fields = [v for r in rows for v in r.values()]
    assert not {"nan", "inf", "-inf"} & set(map(str, fields))
    prefix = "family-check." if argv == ["report"] else ""
    check = [r for r in rows if r["name"].startswith(prefix)]
    assert [r["name"] for r in check] == [prefix + "NonFiniteResult"]
    assert "the order-0 coefficient residual is not finite" in str(
        check[0]["value"])
    assert check[0]["pass"] in (False, "false")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["schroedinger", "family"])
@pytest.mark.parametrize("length", [1e-300, 1e-160, 1e160, 1e300])
def test_grid_without_finite_inverse_square_spacing_exit_two(
        model_file, capsys, kind, length):
    # h = L / 2 here, and the second difference scales by 1/h^2
    model = {"kind": kind, "grid": {"L": length, "N": 5}}
    if kind == "family":
        model.update(sigma="1", alpha="x")
    assert main(["report", "--model", model_file(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid.L: 1/h^2" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["schroedinger", "family"])
def test_grid_whose_stencil_norm_overflows_exit_two(model_file, capsys, kind):
    # 1/h^2 = 4e300 is finite, but H products and ||H||_F^2 are not
    model = {"kind": kind, "grid": {"L": 1e-150, "N": 5}}
    if kind == "family":
        model.update(sigma="1", alpha="x")
    assert main(["report", "--model", model_file(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid.L: 1/h^2" in captured.err


@pytest.mark.filterwarnings("error")
def test_grid_at_the_stencil_norm_bound_reports_finite_rows(model_file,
                                                            capsys):
    # h = 5.2e-77: (6N - 2)/h^4 = 1.6e308, just below the largest double
    model = {"kind": "schroedinger", "grid": {"L": 5.2e-75, "N": 201}}
    code, doc = run_json(capsys, ["report", "--model", model_file(model)])
    assert code == 0
    numbers = [r["value"] for r in doc["rows"]
               if isinstance(r["value"], (int, float))]
    assert numbers and all(np.isfinite(numbers))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["family", "forward"], ["family", "check"]],
                         ids=" ".join)
def test_constant_large_sigma_keeps_exact_parity(model_file, capsys, argv):
    # sigma' = 0; the one-sided end stencils once left |sigma| eps / h of
    # roundoff that was not odd
    model = {"kind": "family", "grid": {"L": 1, "N": 5}, "sigma": "1e100",
             "alpha": "x"}
    code, doc = run_json(capsys, argv + ["--model", model_file(model)])
    assert code == 0
    values = [r["value"] for r in doc["rows"]]
    assert all(np.isfinite(v) for v in values if isinstance(v, float))


def test_csv_written_in_chunks_has_the_same_bytes(model_file, tmp_path,
                                                  monkeypatch):
    path = model_file(MODEL_2X2)
    argv = ["evolve", "--model", path, "--format", "csv", "--steps", "50"]
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    assert main(argv + ["--out", str(whole)]) == 0
    monkeypatch.setattr(models, "CSV_CHUNK_POINTS", 7)
    assert main(argv + ["--out", str(chunked)]) == 0
    assert chunked.read_bytes() == whole.read_bytes()
    expected = run_scenario(parse_model(MODEL_2X2), "evolve",
                            {"steps": 50}).to_csv()
    assert whole.read_bytes() == expected.encode()


def test_evolve_csv_at_the_chunk_size_reads_back(model_file, tmp_path):
    # one whole chunk of CSV_CHUNK_POINTS points and a short one after it
    steps = 65539
    assert models.CSV_CHUNK_POINTS < steps < 2 * models.CSV_CHUNK_POINTS
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--model", model_file(MODEL_2X2), "--format",
                 "csv", "--steps", str(steps), "--out", str(out)]) == 0
    x, named = run_scenario(parse_model(MODEL_2X2), "evolve",
                            {"steps": steps}).series
    text = out.read_bytes().decode("utf-8")
    assert text == "t_or_x,series,value\n" + point_major_csv(x, named)
    # read back by csv and float alone, sharing no code with the renderer
    lines = list(csv.reader(io.StringIO(text, newline="")))
    assert lines[0] == ["t_or_x", "series", "value"]
    assert len(lines) == 1 + steps * len(named)
    expected = ((t, name, v) for j, t in enumerate(x.tolist())
                for name, column in named for v in [column[j]])
    for (t_text, name_text, v_text), (t, name, v) in zip(lines[1:], expected):
        assert (float(t_text), name_text, float(v_text)) == (t, name, v)


# --out is written in place and cut to the report's length

OUT_ARGV = [["report"], ["report", "--format", "csv"],
            ["evolve", "--format", "csv", "--steps", "20"]]


def stdout_bytes(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("argv", OUT_ARGV, ids=" ".join)
@pytest.mark.parametrize("old_size", [5, 4000])
def test_out_over_an_existing_file_equals_stdout(model_file, tmp_path, capsys,
                                                 argv, old_size):
    argv = argv + ["--model", model_file(MODEL_2X2)]
    code, expected = stdout_bytes(capsys, argv)
    assert code == 0 and 5 < len(expected) < 4000
    out = tmp_path / "out"
    out.write_bytes(b"x" * old_size)
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected


def test_out_over_the_model_file_leaves_the_report(tmp_path, capsys):
    # the model, padded to be longer than its report, is read before the
    # report is written over it
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_2X2) + " " * 8000)
    argv = ["report", "--model", str(path)]
    code, expected = stdout_bytes(capsys, argv)
    assert code == 0 and len(expected) < 8000
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == expected


@pytest.mark.skipif(not os.path.exists(os.devnull),
                    reason="no null device")
def test_out_to_the_null_device(model_file, capsys):
    assert main(["report", "--model", model_file(MODEL_2X2),
                 "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_new_out_file_has_the_mode_of_open(model_file, tmp_path):
    with open(tmp_path / "reference", "w"):
        pass
    out = tmp_path / "out.json"
    assert main(["report", "--model", model_file(MODEL_2X2),
                 "--out", str(out)]) == 0
    assert (stat.S_IMODE(out.stat().st_mode)
            == stat.S_IMODE((tmp_path / "reference").stat().st_mode))


def test_failed_write_leaves_what_it_wrote(model_file, tmp_path, capsys,
                                           monkeypatch):
    def write_csv(self, out):
        out.write("name,value")
        raise RuntimeError("disk on fire")
    monkeypatch.setattr(models.Report, "write_csv", write_csv)
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 100)
    assert main(["report", "--format", "csv", "--model",
                 model_file(MODEL_2X2), "--out", str(out)]) == 3
    assert "disk on fire" in capsys.readouterr().err
    assert out.read_bytes() == b"name,value"


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_out_that_cannot_be_opened_exit_two(model_file, tmp_path, capsys,
                                            target):
    # the same message as opening the path with open(path, "w")
    path = str(tmp_path / target)
    with pytest.raises(OSError) as expected:
        open(path, "w")
    assert main(["report", "--model", model_file(MODEL_2X2),
                 "--out", path]) == 2
    assert capsys.readouterr().err == f"quasiherm: {expected.value}\n"
