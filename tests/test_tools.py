import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_study_footprint_prints_one_json_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "study_footprint.py"), "--p", "4", "--levels", "3"],
        capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["p"] == 4.0 and record["levels"] == 3
    assert record["wall_s"] > 0.0
    assert 0.0 < record["setup_maxrss_mb"] <= record["maxrss_mb"]
    assert math.isfinite(record["rate_l2"]) and math.isfinite(record["rate_h1"])
