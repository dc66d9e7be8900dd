"""The value comparison of tools/report_digests.py, on hand-made outputs."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def load_tool(monkeypatch):
    # the tool puts src/ and bench/ first on sys.path; the test's path is
    # restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_values(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")


def test_compare_prints_the_largest_move_over_tol(tmp_path, capsys,
                                                   monkeypatch):
    tool = load_tool(monkeypatch)
    call = ["m", "report --format json"]
    a = [call + ["x", 1e-12, 1e-10, True],
         call + ["eigs", [1.0, 2.0], 1e-10, True],
         call + ["broken", 50.0, 1e-9, False],
         call + ["flag", True, None, True],
         call + ["x", 3e-12, 1e-10, True]]
    b = [call + ["x", 2e-12, 1e-10, True],
         call + ["eigs", [1.0, 2.0 + 4e-11], 1e-10, True],
         call + ["broken", 52.5, 1e-9, False],
         call + ["flag", False, None, True],
         call + ["x", 3e-12, 1e-10, True]]
    write_values(tmp_path / "a.txt", a)
    write_values(tmp_path / "b.txt", b)
    assert tool.compare_values(tmp_path / "a.txt", tmp_path / "b.txt") == 0
    out = capsys.readouterr().out.splitlines()
    # the repeated row name is matched by its position among its namesakes
    assert out[0] == ("4 rows with a tol compared, 3 moved; "
                      "0 rows in one output only")
    assert out[1] == "largest |delta value|/tol over all rows: 2.5e+09"
    assert out[2].endswith("broken: 50.0 against 52.5")
    assert out[3] == ("largest |delta value|/tol over rows passing on "
                      "either side: 0.4")
    assert out[4].endswith("eigs: [1.0, 2.0] against [1.0, 2.00000000004]")


def test_compare_names_the_rows_that_one_output_has(tmp_path, capsys,
                                                    monkeypatch):
    tool = load_tool(monkeypatch)
    check, report = ["f", "family check --format json"], ["f", "report"]
    a = [check + ["d3_sup", 0.0, 1e-13, True],
         check + ["d1_sup", 1e-15, None, None],
         report + ["family-check.d3_sup", 0.0, 1e-13, True],
         ["g", "family check --format json", "d3_sup", 0.0, 1e-13, True]]
    b = [check + ["d1_sup", 1e-15, None, None],
         report + ["extra", 1.0, None, None]]
    write_values(tmp_path / "a.txt", a)
    write_values(tmp_path / "b.txt", b)
    assert tool.compare_values(tmp_path / "a.txt", tmp_path / "b.txt") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["0 rows with a tol compared, 0 moved; "
                       "4 rows in one output only",
                       "  d3_sup: 2 in A only, 0 in B only",
                       "  extra: 0 in A only, 1 in B only",
                       "  family-check.d3_sup: 1 in A only, 0 in B only"]
