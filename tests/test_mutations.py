"""The mutation catalogue: one-line edits of ``src/`` that Tier-1 must kill.

``data/mutations.json`` lists each edit as the file, its old text (which
must occur there exactly once), the new text and why the edit is wrong.
A change that moves or rewrites an edit's code restates the edit; it does
not drop it.

The opt-in test applies each edit in turn to a copy of ``src/``,
``tests/``, ``bench/``, ``README.md`` and ``pyproject.toml`` in a temporary
directory (``pythonpath = ["src"]`` would otherwise load the unmutated
package) and runs Tier-1 there, this module aside, with ``-x`` and
``OPENBLAS_NUM_THREADS=1``, one subprocess at a time. The run must exit 1:
an exit of 0 means the edit survived, and any other exit is an internal or
usage error. It takes about 5 minutes; run it with
``PYTHONPATH=src python -m pytest -m slow tests/test_mutations.py``.
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
    result = subprocess.run(tier1, cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=900)
    assert result.returncode == 1, (
        f"{edit['why']}: Tier-1 exited {result.returncode}\n{result.stdout[-3000:]}")
