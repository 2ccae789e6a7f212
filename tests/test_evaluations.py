"""``tools/evaluations.py`` runs end to end.

The evaluation counts of two source trees are compared by diffing this
tool's output, so the tool itself has to keep working.  The estimator's
counts are bounded too: from the ascent's start at log-std 1 a pendulum
state costs two objective calls, the start and one step onto the
log-std clamp, and from a narrow start at log-std -1 about six, spent
walking the log-std up to its clamp.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_evaluations_tool_prints_every_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "evaluations.py"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # 25 AC-5 states, their mean, the oracle's evaluations on them, the
    # grid's calls, the rollout's calls per step, the calls on the random
    # nets and Blahut-Arimoto on the random channels
    assert len(lines) == 25 + 1 + 1 + 1 + 1 + 1 + 1
    assert lines[0].startswith("ac5[0] calls ")
    assert lines[25].startswith("ac5 mean calls ")
    assert lines[26].startswith("ac5 oracle evaluations mean ")
    assert lines[-4].startswith("grid 41x41 calls mean ")
    assert lines[-3].startswith("rollout 50 steps calls per step mean ")
    assert lines[-2].startswith("random 24 nets x 5 states calls mean ")
    assert lines[-1].startswith("random 600 channels unconverged ")
    # the estimator's objective calls: per AC-5 state, per grid cell and
    # per select_action step over its three candidate torques
    assert float(lines[25].split()[-1]) <= 2.0
    assert int(lines[-4].split()[-1]) <= 2
    assert int(lines[-3].split()[-1]) <= 6
