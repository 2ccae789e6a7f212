"""``tools/fingerprint.py`` runs end to end.

A change that must keep every estimator and oracle output bit for bit is
checked by diffing this tool's output between two source trees, so the
tool itself has to keep working.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_tool_prints_every_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 25 AC-5 states, 25 grid cells, 3 restart runs, 40 probes, one
    # select_action line, five point-evaluation lines on each of two nets,
    # two lines per oracle state, then 10 two-action probes, one two-action
    # estimate and 10 moment probes on the two-action net
    assert len(lines) == 25 + 25 + 3 + 40 + 1 + 2 * 5 + 2 * 25 + 10 + 1 + 10
    assert lines[0].startswith("ac5[0] ")
    assert lines[-22].startswith("oracle[24] capacity ")
    assert lines[-11].startswith("mixed_estimate ")
    assert lines[-1].startswith("mixed_moments[9] ")
