"""One summary path: a spec that names no summary *is* the Bloom policy.

There is no policy-less branch behind ``strategy.summary = None`` — it
is ``SummarySpec("bloom", bits_per_element=strategy.bloom_bits_per_element)``
spelled shorter, in every scenario that reads a summary and under every
strategy name.
"""

import pytest

from repro.api import SummarySpec, registry, run
from repro.delivery import STRATEGY_NAMES

SUMMARY_SCENARIOS = sorted(
    name for name in registry.names() if "summary" in registry.get(name).supports
)
TRANSFER_SCENARIOS = ("pair_transfer", "multi_sender_transfer")


def _small_spec(name):
    spec = registry.small_spec(name)
    if "population" in registry.get(name).supports:
        # Flow fidelity models reconciliation in aggregate and refuses
        # a strategy summary; the packet arm is the one that reads it.
        spec = spec.with_override("measurement.fidelity", "packet")
    return spec


def _spelled_out(spec, bits_per_element):
    return spec.with_component_spec(
        "summary", SummarySpec("bloom", {"bits_per_element": bits_per_element})
    )


def test_every_summary_reading_scenario_is_covered():
    assert set(TRANSFER_SCENARIOS) | {"session_swarm", "flash_crowd"} <= set(
        SUMMARY_SCENARIOS
    )


@pytest.mark.parametrize("name", SUMMARY_SCENARIOS)
def test_unset_summary_is_the_bloom_policy(name):
    spec = _small_spec(name)
    assert spec.strategy.summary is None
    assert run(spec).metrics == run(_spelled_out(spec, 8)).metrics


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("name", TRANSFER_SCENARIOS)
def test_unset_summary_is_the_bloom_policy_under_every_strategy(name, strategy):
    spec = registry.small_spec(name).with_override("strategy.name", strategy)
    assert run(spec).metrics == run(_spelled_out(spec, 8)).metrics


class TestSwarmsHonourBloomBits:
    """``strategy.bloom_bits_per_element`` reaches the overlay refresh.

    The swarm builders used to size every receiver filter with a
    hard-coded 8 whatever the spec said; the one policy now carries it.
    """

    @pytest.mark.parametrize("name", ["flash_crowd", "congested_swarm"])
    def test_budget_changes_the_run_and_equals_its_spelling(self, name):
        base = registry.small_spec(name)
        metrics = {}
        for bits in (2, 16):
            spec = base.with_override("strategy.bloom_bits_per_element", bits)
            metrics[bits] = run(spec).metrics
            assert metrics[bits] == run(_spelled_out(base, bits)).metrics
        assert metrics[2] != metrics[16]

    def test_a_coarser_filter_hides_more_useful_symbols(self):
        from repro.api import build

        def filtered_out(bits):
            spec = registry.small_spec("flash_crowd").with_override(
                "strategy.bloom_bits_per_element", bits
            )
            sim = build(spec).scenario.simulator
            sim.run(20)  # past the join waves: peers serve peers
            return sum(
                conn.strategy.filtered_out
                for conn in sim.connections.values()
                if conn.strategy is not None
            )

        # 2 bits/element false-positives far more useful ids away.
        assert filtered_out(2) > filtered_out(16) > 0


class TestSwarmsRunUnderAMinwiseSummary:
    """``--summary minwise`` on a swarm: a source's fresh ids start at
    2**40, beyond the min-wise universe.  Cards always folded them; the
    strategy-side receiver summary did not, so these specs — which the
    consumption gate accepts — were refused with "key outside the
    family's universe".  The adapter now folds for both."""

    #: (ticks, packets_sent, packets_useful, packets_lost, reconfigurations)
    PINS = {
        "asymmetric_bandwidth": (28.0, 432.0, 176.0, 2.0, 7.0),
        "congested_swarm": (74.0, 675.0, 180.0, 164.0, 18.0),
        "correlated_regional_loss": (33.0, 328.0, 179.0, 1.0, 6.0),
        "figure1": (94.0, 998.0, 199.0, 0.0, 0.0),
        "flash_crowd": (53.0, 699.0, 236.0, 0.0, 9.0),
        "random_overlay": (38.0, 795.0, 444.0, 11.0, 10.0),
        "source_departure": (28.0, 289.0, 83.0, 0.0, 12.0),
    }

    @staticmethod
    def _spec(name):
        return registry.small_spec(name).with_component_spec(
            "summary", SummarySpec("minwise")
        )

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_runs_to_completion(self, name):
        result = run(self._spec(name))
        assert result.completed
        metrics = result.metrics
        assert (
            metrics["ticks"],
            metrics["packets_sent"],
            metrics["packets_useful"],
            metrics["packets_lost"],
            metrics["reconfigurations"],
        ) == self.PINS[name]

    def test_peer_connections_recode_on_the_estimate(self):
        from repro.api import build

        sim = build(self._spec("flash_crowd")).scenario.simulator
        sim.run(20)  # past the join waves: peers serve peers
        labels = {
            conn.strategy.name
            for conn in sim.connections.values()
            if conn.strategy is not None
        }
        # A sketch cannot purge a domain; Recode/BF shifts degrees by
        # the correlation it estimates instead.
        assert labels == {"Recode/minwise-est"}
