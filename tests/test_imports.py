import ast
import inspect
from pathlib import Path

import quasiherm
from quasiherm import cli, factorization, metrics, models, spectral

PACKAGE = Path(quasiherm.__file__).parent


def private_imports(path: Path) -> list[str]:
    """The names that start with one underscore, not dunder names, which
    the module imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("quasiherm")):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {path.name: private_imports(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_every_default_tolerance_is_the_one_constant():
    # one source for the default relative tolerance: spectral's, which the
    # other modules import; models.DEFAULT_TOL is the same object
    assert models.DEFAULT_TOL is spectral.DEFAULT_TOL == 1e-10
    defaults = [inspect.signature(fn).parameters[name].default
                for fn, name in ((metrics.spectral_metric, "reality_tol"),
                                 (factorization.standard_charge, "reality_tol"),
                                 (factorization.charge_from_spectrum,
                                  "reality_tol"),
                                 (factorization.verify_table, "rtol"),
                                 (models.run_scenario, "tol"),
                                 (models.run_battery, "tol"))]
    assert all(d is spectral.DEFAULT_TOL for d in defaults)
    args = cli.build_parser().parse_args(["spectrum", "--model", "m.json"])
    assert args.tol is spectral.DEFAULT_TOL
