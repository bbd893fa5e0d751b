"""SummarySpec on the spec layer: validation, round trips, one-knob runs,
the summary_tradeoff scenario, the --summary CLI flag, and the
asymmetric_bandwidth alias cleanup."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.api import ExperimentSpec, SpecError, StrategySpec, SummarySpec, run, specs
from repro.api.__main__ import parse_component_arg

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


class TestSummarySpec:
    def test_defaults_and_params(self):
        s = SummarySpec()
        assert s.kind == "bloom"
        assert s.params == ()
        s = SummarySpec(kind="art", params={"bits_per_element": 16, "correction": 2})
        assert s.param("correction") == 2
        assert s.params_dict() == {"bits_per_element": 16, "correction": 2}

    def test_unknown_kind_is_a_spec_error(self):
        with pytest.raises(SpecError, match="registered kinds"):
            SummarySpec(kind="nope")

    def test_empty_kind_rejected(self):
        with pytest.raises(SpecError):
            SummarySpec(kind="")

    def test_policy_resolution(self):
        policy = SummarySpec(kind="modk", params={"modulus": 8}).policy()
        assert policy.kind == "modk"
        assert policy.params_dict() == {"modulus": 8}

    # JSON round-trip (set and unset) lives in the shared contract
    # (test_spec_roundtrip_property.py), not per-spec copies.

    def test_bad_nested_summary_folds_into_spec_error(self):
        data = json.loads(specs.pair_transfer(target=120, seed=1).to_json())
        data["strategy"]["summary"] = {"kind": "bloom", "bogus_key": 1}
        with pytest.raises(SpecError, match="bogus_key"):
            ExperimentSpec.from_dict(data)


class TestOneKnobAcceptance:
    """One spec JSON, differing only in SummarySpec.kind, runs every
    major summary family end-to-end through run()."""

    KINDS = {
        "minwise": {},
        "bloom": {},
        "art": {"correction": 2},
        "cpi": {"max_discrepancy": 250},
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_pair_transfer_by_summary_kind(self, kind):
        base = specs.pair_transfer(
            target=150, multiplier=1.5, correlation=0.2, seed=5,
            strategy_name="Recode/BF",
        )
        data = json.loads(base.to_json())
        data["strategy"]["summary"] = {"kind": kind, "params": self.KINDS[kind]}
        spec = ExperimentSpec.from_json(json.dumps(data))
        # The spec differs from the base only in its summary selection.
        assert dataclasses.replace(
            spec, strategy=dataclasses.replace(spec.strategy, summary=None)
        ) == base
        result = run(spec)
        assert result.completed
        assert result.metrics["overhead"] >= 1.0

    def test_cpi_bound_too_small_degrades_not_crashes(self):
        """An undersized CPI bound recodes blind instead of raising."""
        spec = specs.pair_transfer(
            target=150, multiplier=1.5, correlation=0.2, seed=5,
            strategy_name="Recode/BF",
        ).with_summary("cpi", max_discrepancy=8)
        result = run(spec)
        assert result.completed

    def test_random_bf_with_sketch_summary_degrades_to_blind(self):
        """Random selection cannot act on an estimate-only summary."""
        spec = specs.pair_transfer(
            target=150, multiplier=1.5, correlation=0.2, seed=5,
            strategy_name="Random/BF",
        ).with_summary("minwise")
        result = run(spec)
        assert result.completed

    def test_swarm_scenarios_honor_summary_spec(self):
        """The overlay simulator reconciles through the policy too."""
        from repro.api import registry

        base = registry.small_spec("flash_crowd")
        blind = run(base)
        informed = run(base.with_summary("wholeset"))
        assert informed.completed
        # Exact reconciliation changes the packet economy vs hardcoded Bloom.
        assert informed.metrics["packets_sent"] != blind.metrics["packets_sent"]

    def test_summary_choice_changes_the_run(self):
        base = specs.pair_transfer(
            target=150, multiplier=1.5, correlation=0.2, seed=5
        )
        bloom = run(base.with_summary("bloom"))
        sketch = run(base.with_summary("minwise"))
        # A searchable summary purges the domain; a sketch can only
        # shift degrees — the transfers genuinely differ.
        assert (
            bloom.metrics["packets_sent"] != sketch.metrics["packets_sent"]
        )


class TestSummaryTradeoff:
    def test_sweep_reports_wire_bytes_vs_useful_symbols(self):
        spec = specs.summary_tradeoff(
            target=100, correlation=0.25, kinds="minwise,bloom", budgets="4,8",
            seed=3,
        )
        result = run(spec)
        for kind in ("minwise", "bloom"):
            for budget in (4, 8):
                assert f"wire_bytes[{kind}@{budget}]" in result.metrics
                assert f"useful_symbols[{kind}@{budget}]" in result.metrics
                assert f"overhead[{kind}@{budget}]" in result.metrics
        # Bigger budgets cost more wire.
        assert (
            result.metrics["wire_bytes[bloom@8]"]
            > result.metrics["wire_bytes[bloom@4]"]
        )
        # The series rows carry (kind, metric, budget, value).
        rows = result.stats.to_rows()
        assert ("bloom", "wire_bytes", 8.0, result.metrics["wire_bytes[bloom@8]"]) in rows
        # And the whole thing serialises through the standard schema.
        payload = json.loads(result.to_json(include_series=True))
        assert payload["schema"] == "repro.run_result/1"
        assert payload["series"]

    def test_budget_free_kinds_run_once_and_replicate(self):
        spec = specs.summary_tradeoff(
            target=80, correlation=0.25, kinds="wholeset", budgets="4,8", seed=2
        )
        result = run(spec)
        assert (
            result.metrics["wire_bytes[wholeset@4]"]
            == result.metrics["wire_bytes[wholeset@8]"]
        )
        assert (
            result.metrics["packets[wholeset@4]"]
            == result.metrics["packets[wholeset@8]"]
        )
        # The replicated cell is re-keyed to its own budget.
        assert result.extras["cells"][("wholeset", 8)]["budget"] == 8

    def test_oversized_cpi_cell_reported_not_run(self):
        spec = specs.summary_tradeoff(
            target=100, correlation=0.25, kinds="cpi", budgets="8", seed=3,
            cpi_cap=10,
        )
        result = run(spec)
        assert "overhead[cpi@8]" not in result.metrics
        assert result.metrics["wire_bytes[cpi@8]"] > 0
        assert any("cpi_cap" in e for e in result.events)

    def test_invalid_sweeps_are_spec_errors(self):
        with pytest.raises(SpecError, match="unknown summary kinds"):
            specs.summary_tradeoff(kinds="bloom,nope")
        with pytest.raises(SpecError, match="positive"):
            specs.summary_tradeoff(budgets="0,8")
        with pytest.raises(SpecError, match="duplicate"):
            specs.summary_tradeoff(budgets="8,8")


class TestAsymmetricBandwidthAlias:
    def test_canonical_name_matches_registry_key(self):
        spec = specs.asymmetric_bandwidth(num_fast=2, num_slow=2, seed=1)
        assert spec.scenario == "asymmetric_bandwidth"


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


class TestSummaryCliFlag:
    def test_parse_summary_arg(self):
        s = parse_component_arg("summary", "art:bits_per_element=16,correction=2")
        assert s == SummarySpec(
            kind="art", params={"bits_per_element": 16, "correction": 2}
        )
        assert parse_component_arg("summary", "bloom") == SummarySpec(kind="bloom")

    def test_parse_errors_are_spec_errors(self):
        with pytest.raises(SpecError):
            parse_component_arg("summary", ":k=1")
        with pytest.raises(SpecError):
            parse_component_arg("summary", "bloom:oops")
        with pytest.raises(SpecError):
            parse_component_arg("summary", "nope")

    def test_cli_summary_override_runs(self):
        proc = _cli("--scenario", "pair_transfer", "--summary", "bloom")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["spec"]["strategy"]["summary"] == {
            "kind": "bloom",
            "params": {},
        }

    def test_cli_summary_bad_kind_exits_2(self):
        proc = _cli("--scenario", "pair_transfer", "--summary", "nope")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_cli_summary_bad_param_exits_2(self):
        proc = _cli("--scenario", "pair_transfer", "--summary", "bloom:oops")
        assert proc.returncode == 2
        assert "param=val" in proc.stderr
