import os
import subprocess
import sys
from pathlib import Path

import antizeno


def test_import_does_not_load_scipy():
    # the package depends on numpy alone; scipy would also add import time
    # to every CLI run
    src = str(Path(antizeno.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, antizeno; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"
