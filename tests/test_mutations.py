"""The mutation catalogue: one-line edits of ``src/`` that Tier-1 must kill.

``data/mutations.json`` lists each edit as the file, its old text (which
must occur there exactly once), the new text, why the edit is wrong and
``first_kill``, the node id of the test that failed first when Tier-1 last
ran on the edit with ``-x``. A change that moves or rewrites an edit's code
restates the edit; it does not drop it.

The opt-in test applies each edit in turn to a copy of ``src/``,
``tests/``, ``bench/``, ``README.md`` and ``pyproject.toml`` in a temporary
directory (``pythonpath = ["src"]`` would otherwise load the unmutated
package) and runs Tier-1 there, this module aside, with ``-x`` and
``OPENBLAS_NUM_THREADS=1``, one subprocess at a time. It runs the edit's
``first_kill`` alone first, with the same options: if that exits 1, so
would the full run, and the edit is killed; if it exits 0, the full run
decides. Either run must exit 1: an exit of 0 means the edit survived, and
any other exit (a stale ``first_kill`` too) is an internal or usage error.
Run it with ``PYTHONPATH=src python -m pytest -m slow tests/test_mutations.py``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "tests" / "data" / "mutations.json").read_text(encoding="utf-8"))
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
IDS = [edit["name"] for edit in CATALOGUE]


@pytest.mark.parametrize("edit", CATALOGUE, ids=IDS)
def test_the_old_text_occurs_once(edit):
    assert (ROOT / edit["file"]).read_text(encoding="utf-8").count(edit["old"]) == 1


@pytest.mark.slow
@pytest.mark.parametrize("edit", CATALOGUE, ids=IDS)
def test_tier1_kills_the_edit(tmp_path, edit):
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tmp_path / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".out"))
        else:
            shutil.copy(ROOT / name, tmp_path / name)
    path = tmp_path / edit["file"]
    text = path.read_text(encoding="utf-8")
    assert text.count(edit["old"]) == 1, f"the old text must occur once in {edit['file']}"
    path.write_text(text.replace(edit["old"], edit["new"]), encoding="utf-8")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tmp_path / "src")}
    tier1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore", "tests/test_mutations.py"]
    for args in ([edit["first_kill"]], []):  # the known killer alone, then all of Tier-1
        result = subprocess.run(tier1 + args, cwd=tmp_path, env=env, capture_output=True,
                                text=True, timeout=900)
        if result.returncode != 0:
            break
    where = args[0] if args else "Tier-1"
    assert result.returncode == 1, (
        f"{edit['name']} ({edit['why']}): {where} exited {result.returncode}\n{result.stdout[-3000:]}")
