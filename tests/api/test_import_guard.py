"""``import repro`` and building a spec leave numpy unimported.

numpy is optional and imported on first use (``repro.hashing.batch.
_numpy``), never at module level: the packet engine's spec builds need
none of it, so a run's set-up does not pay for ``import numpy`` and its
wall time does.  A fresh interpreter is the only place to see that, so
the check runs in a subprocess.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")

PROGRAM = """
import sys

import repro, repro.api
from repro.api import build, specs

build(
    specs.random_overlay(
        num_peers=40, target=40, seed=0, with_physical=False,
        strategy_name="Random", max_ticks=60,
    ).with_override("reconfig.policy", "informed")
)
build(
    specs.congested_swarm(
        num_peers=24, target=30, waves=4, initial_seeded=4,
        bottleneck_rate=16, bottleneck_buffer=16, transport_policy="aimd",
        reconfig_policy="static", seed=29, max_ticks=2_000,
    )
)
print("numpy" in sys.modules)
"""


def test_building_the_packet_specs_imports_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
