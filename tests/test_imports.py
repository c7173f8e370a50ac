import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import antizeno


def test_import_does_not_load_scipy():
    # the package depends on numpy alone; scipy would also add import time
    # to every CLI run. Jitter comes from the package's own PCG64 stream, so
    # a jittered run does not load numpy.random (about 5.7 MB of RSS) either.
    src = str(Path(antizeno.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    jittered_run = ("from antizeno.runner import build_tables; build_tables("
                    "antizeno.ExperimentConfig(g_values=(0.3,), n_max=20, n_measurements=3, runs=2))")
    for then, package in (("pass", "scipy"), (jittered_run, "numpy.random")):
        code = (f"import sys, antizeno; {then}; "
                f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "[]", package


def _readme_section(heading: str) -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_table(heading: str, header: str) -> list[list[str]]:
    """The cells of each row of the section's table under ``header``."""
    table = _readme_section(heading).split(f"{header}\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in table.splitlines()]


def _library_use_block() -> str:
    return _readme_section("Library use").split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_block_runs(capsys):
    exec(compile(_library_use_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") >= 4


def test_readme_states_the_cutoff_rules():
    # the Configuration paragraph quotes model's cutoff numbers, so a cap
    # restated in model cannot leave the docs behind
    from antizeno import model

    section = " ".join(_readme_section("Configuration").split())
    tol = f"{model.CUTOFF_TOL:.0e}".replace("e-0", "e-")
    for phrase in (
        f"stepping by {model.CUTOFF_STEP}", f"stable to {tol}", f"n_max = {model.CUTOFF_CAP}",
        f"at most {model.N_MAX_CAP}", f"`n_max + {model.CUTOFF_STEP}`", "Gershgorin bound",
    ):
        assert phrase in section, phrase


def test_readme_states_the_input_rules():
    # the Configuration table is config.INPUT_RULES, row for row
    from antizeno.config import INPUT_RULES

    rows = {experiment.strip("`"): needs
            for experiment, needs in _readme_table("Configuration", "| experiment | needs |")}
    assert rows == {
        experiment: "; ".join(f"`{field}`: {what}" for field, what, _ in rules)
        for experiment, rules in INPUT_RULES.items()
    }


def test_readme_states_the_field_rules():
    # the "field | must be" table is config.FIELD_RULES, row for row and in order
    from antizeno.config import FIELD_RULES

    rows = [(field.strip("`"), what)
            for field, what in _readme_table("Configuration", "| field | must be |")]
    assert rows == [(field, what) for field, what, _ in FIELD_RULES]


def test_readme_states_the_read_sets():
    # the "experiment | also reads" table is config.READ_SETS, row for row
    from antizeno.config import ALWAYS_READ, READ_SETS

    rows = {experiment: tuple(re.findall(r"`(\w+)`", reads)) if reads != "none" else ()
            for experiment, reads in _readme_table("Configuration", "| experiment | also reads |")}
    assert rows == READ_SETS
    prose = " ".join(_readme_section("Configuration").split())
    always = ", ".join(f"`{name}`" for name in ALWAYS_READ[:-1]) + f" and `{ALWAYS_READ[-1]}`"
    assert f"Every experiment reads {always}" in prose
    assert "`--seed` is accepted everywhere" in prose


def test_readme_column_schemas_are_the_written_columns(built):
    # each "Fixed column schemas" bullet names one written table: a preset's
    # (fig4's three panels apart) or a survival run's; fig2's coupling
    # columns follow the bullet's pattern
    from antizeno.config import EXPERIMENTS, preset

    bullets = _readme_section("Output format").split("Fixed column schemas:\n\n", 1)[1]
    documented = {name: columns.split(", ") for name, columns in re.findall(
        r"^- `(\w+)`[^:\n]*: `([^`]+)`", bullets.split("\n\n", 1)[0], re.MULTILINE)}
    written = {}
    for name in EXPERIMENTS:
        tables = built(name).tables
        written.update({name if table == "data" else f"{name}_{table}": list(columns)
                        for table, columns in tables.items()})
    time, pattern = documented.pop("fig2")
    assert written.pop("fig2") == [time, *(pattern.removesuffix("...").replace("<g>", f"{g:.6g}")
                                           for g in preset("fig2").g_values)]
    assert documented == written


def test_readme_lists_every_config_field():
    # the Configuration key list is the ExperimentConfig fields, in order
    from antizeno.config import ExperimentConfig

    section = " ".join(_readme_section("Configuration").split())
    keys = section.split("`ExperimentConfig` fields (", 1)[1].split(")", 1)[0]
    assert re.findall(r"`(\w+)`", keys) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_top_level_api_is_what_the_readme_documents():
    # the "Library use" imports plus the names the README lists after it
    tree = ast.parse(_library_use_block())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "antizeno"
        for alias in node.names
    }
    documented = imported | {"ExperimentConfig", "preset", "run", "NumericalError", "__version__"}
    assert set(antizeno.__all__) == documented
    assert all(hasattr(antizeno, name) for name in antizeno.__all__)


def test_every_module_export_resolves():
    # a name deleted from a module but left in its __all__ fails here, not
    # in the first caller that imports it
    for info in pkgutil.iter_modules(antizeno.__path__):
        module = importlib.import_module(f"antizeno.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"antizeno.{info.name}.__all__ names {missing}"


def _package_imports(name: str) -> set[str]:
    """The package modules that ``antizeno.<name>`` imports anywhere in its
    source, imports under ``if TYPE_CHECKING:`` included."""
    source = (Path(antizeno.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package, which has no subpackages
                module = f"antizeno.{module}".rstrip(".")
            names = [f"{module}.{alias.name}" for alias in node.names]
            targets = names if module == "antizeno" else [module]
        else:
            continue
        found |= {target.split(".")[1] for target in targets if target.startswith("antizeno.")}
    return found


# the lowest layers and everything each may import from the package
LAYER_IMPORTS = {"model": {"numkit", "errors"}, "numkit": {"errors"}, "analysis": {"errors"}}


@pytest.mark.parametrize("name", sorted(LAYER_IMPORTS))
def test_low_layers_import_no_higher_layer(name):
    assert _package_imports(name) <= LAYER_IMPORTS[name]


def test_numkit_only_solves():
    # free evolution belongs to dynamics.evolve; numkit exports the solve
    from antizeno import numkit

    assert set(numkit.__all__) == {"HermitianOperator", "SpectralDecomposition", "hermitian_eig"}


def test_analysis_only_fits():
    # each fitted column is a fit of cells written beside it, made by the
    # builder that writes them; analysis exports the fits alone
    from antizeno import analysis

    assert set(analysis.__all__) == {"FitResult", "fit_quadratic_origin", "fit_exponential"}


def test_import_scan_sees_every_import_form():
    # the guard is only as good as its parser
    assert _package_imports("runner") >= {"analysis", "config", "dynamics", "protocol", "__version__"}
    assert _package_imports("dynamics") >= {"model", "numkit"}  # "from . import model"


def _public_functions(name: str):
    """The public top-level functions of ``antizeno.<name>`` and the public
    methods of its public classes, as parsed from its source."""
    source = (Path(antizeno.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            yield from (node for node in top.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
        elif isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
            yield top


def test_protocol_takes_times_in_units_of_omega():
    # the library works in units of omega: the model holds no frequency
    # scale, every time and jitter window enters protocol in 1/omega, and
    # no public function takes omega; neither the source of model, protocol
    # and dynamics nor the README's library text names another unit
    from antizeno.model import ModelParams

    assert [f.name for f in dataclasses.fields(ModelParams)] == ["omega0", "g", "n_max", "kind"]
    functions = list(_public_functions("protocol"))
    takes_omega = [
        node.name for node in functions
        if "omega" in {arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                           *node.args.kwonlyargs)}
    ]
    assert takes_omega == []
    other_units = re.compile(r"\b(GHz|ns)\b")
    for name in ("model", "protocol", "dynamics"):
        assert not other_units.search((Path(antizeno.__file__).parent / f"{name}.py").read_text()), name
    assert not other_units.search(_readme_section("Library use"))
    assert {"jitter_schedule", "jitter_times", "chain_ground"} <= {node.name for node in functions}
