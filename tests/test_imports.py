"""scipy and numpy.polynomial stay out of the estimator's path.

``import empkit``, the ``landscape`` and ``rollout`` commands and an
estimate with a two-dimensional action need numpy only, and not
numpy.polynomial: the estimator's 20-point Gauss-Hermite rule, which the
tensor rule of one or two action dimensions uses, is stored, not computed.  scipy.special is imported by the oracle's binning
step on first use, and ``compare-oracle`` needs no scipy.stats.  The checks
run in a fresh interpreter, because the test process itself has long since
imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """\
import json, sys
out = sys.argv[1]
import empkit, empkit.cli
from empkit import PendulumParams, build_pendulum_dynamics, oracle_empowerment
from empkit import DynamicsModel, FeedforwardNet, LayerSpec, OptimizerOptions
model = build_pendulum_dynamics(PendulumParams())
# x' = x + J a + noise with two actions
layer = LayerSpec(
    [[1, 0, 1, 0.5], [0, 1, 0.3, -0.7], [0, 0, 0, 0], [0, 0, 0, 0]],
    [0, 0, -1.2, -1.6],
)
two = DynamicsModel(FeedforwardNet((layer,)), state_dim=2, action_dim=2)
assert empkit.maximize_empowerment(two, [0, 0], OptimizerOptions()).value > 0
cfg = out + "/config.json"
with open(cfg, "w") as fh:
    json.dump({"angle_count": 3, "velocity_count": 3, "out_dir": out}, fh)
assert empkit.cli.main(["landscape", "--config", cfg]) == 0
assert empkit.cli.main(
    ["rollout", "--config", cfg, "--start", "3.0,0.0", "--steps", "2"]
) == 0
before = sorted(m for m in sys.modules if m.startswith("scipy"))
polynomial = "numpy.polynomial" in sys.modules
res = oracle_empowerment(model, [0.0, 0.0])
print(json.dumps({
    "before": before,
    "polynomial": polynomial,
    "after": "scipy.special" in sys.modules,
    "converged": res.converged,
}))
"""


def test_estimator_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["before"] == []
    assert not result["polynomial"]
    assert result["after"] and result["converged"]
    assert (tmp_path / "landscape.csv").exists()
    assert (tmp_path / "rollout.csv").exists()


COMPARE_SCRIPT = """\
import json, sys
out = sys.argv[1]
import empkit.cli
cfg = out + "/config.json"
with open(cfg, "w") as fh:
    json.dump({"angle_count": 3, "velocity_count": 3, "max_iter": 5,
               "restarts": 1, "oracle_actions": 8,
               "oracle_bins": 5, "oracle_tol": 1e-1, "out_dir": out}, fh)
assert empkit.cli.main(["compare-oracle", "--config", cfg, "--states", "3"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy.stats"))))
"""


def test_compare_oracle_ranks_without_scipy_stats(tmp_path):
    # scipy.stats costs ~1 s and ~45 MB to import; numpy ranks 25 pairs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", COMPARE_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "spearman_rank_correlation" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1]) == []
