"""CLI surface of the fidelity axis: --fidelity.  ``--engine`` is gone
(``measurement.engine`` selects nothing); the field is still echoed."""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def _cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.api", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        **kwargs,
    )


class TestSingleRunFlags:
    def test_print_spec_carries_both_selections(self):
        proc = _cli(
            "--scenario", "population_flash_crowd",
            "--fidelity", "packet",
            "--print-spec",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["measurement"]["engine"] == "reference"
        assert payload["measurement"]["fidelity"] == "packet"

    def test_fidelity_flag_runs_the_packet_path(self):
        proc = _cli("--scenario", "population_flash_crowd", "--fidelity", "packet")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["completed"]
        assert payload["spec"]["measurement"]["fidelity"] == "packet"

    def test_unknown_fidelity_is_a_usage_error(self):
        proc = _cli("--scenario", "population_flash_crowd", "--fidelity", "warp")
        assert proc.returncode == 2
        assert "fidelity" in proc.stderr

    def test_unknown_engine_is_a_usage_error(self):
        # argparse's refusal now: the flag itself is unknown.
        proc = _cli("--scenario", "flash_crowd", "--engine", "warp")
        assert proc.returncode == 2
        assert "engine" in proc.stderr

    def test_flow_fidelity_on_packet_scenario_is_a_usage_error(self):
        proc = _cli("--scenario", "flash_crowd", "--fidelity", "flow")
        assert proc.returncode == 2
        assert "population" in proc.stderr


class TestCampaignFlags:
    def test_campaign_scenario_base_takes_the_overrides(self):
        proc = _cli(
            "--campaign-scenario", "population_flash_crowd",
            "--fidelity", "flow",
            "--print-spec",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["base"]["measurement"]["fidelity"] == "flow"
        assert payload["base"]["measurement"]["engine"] == "reference"

    def test_campaign_unknown_fidelity_is_a_usage_error(self):
        proc = _cli(
            "--campaign-scenario", "population_flash_crowd", "--fidelity", "warp"
        )
        assert proc.returncode == 2
        assert "fidelity" in proc.stderr

    def test_listing_shows_the_population_scenario_with_grid(self):
        proc = _cli("--list")
        assert proc.returncode == 0
        line = next(
            l for l in proc.stdout.splitlines()
            if l.startswith("population_flash_crowd")
        )
        assert "spec+grid" in line
