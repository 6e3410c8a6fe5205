import os
import subprocess
import sys
from pathlib import Path

import laneemden


def test_all_names_resolve():
    assert len(set(laneemden.__all__)) == len(laneemden.__all__)
    assert [name for name in laneemden.__all__ if not hasattr(laneemden, name)] == []


def test_import_does_not_load_sparse_linalg():
    # scipy.sparse.linalg costs every entry point ~0.05 s of start-up; only
    # the factorizations need it, and they import it when called.
    src = str(Path(laneemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, laneemden; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
