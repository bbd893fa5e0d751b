"""The Section 4 join decisions as a pin.

``RunResult.to_json()`` leaves ``extras`` out and the bench digest
hashes only ``metrics``, so what each informed joiner planned — its
chosen and rejected senders, the estimated gains and coverage, the
replica groups and the demand split — is pinned here: the sha256 of
every plan in ``extras["join_plans"]``, floats by ``float.hex``, with
and without numpy.  The population cell at packet fidelity admits its
joiners from the source and plans nothing; its row pins that.
"""

import hashlib

import pytest

import repro.hashing.batch as batch
from repro.api import registry, run, specs


def _population_packet():
    return (
        registry.small_spec("population_flash_crowd")
        .with_override("measurement.fidelity", "packet")
        .with_override("population.objects", 1)
    )


def _congested_96():
    # Two waves of seeded joiners: later joiners plan over earlier ones.
    return specs.congested_swarm(
        num_peers=96, target=60, initial_seeded=6, waves=2,
        reconfig_policy="static", seed=11, max_ticks=30,
    )


SPECS = {
    "flash_crowd": lambda: registry.small_spec("flash_crowd"),
    "congested_swarm": lambda: registry.small_spec("congested_swarm"),
    "population_packet": _population_packet,
    "congested_96": _congested_96,
}

#: spec -> (number of plans, sha256 of their text).
PINS = {
    "flash_crowd": (
        8,
        "116aa035f39c1c6ca29abada1af94078ab86046dc8f1286edfc17905dffeacc1",
    ),
    "congested_swarm": (
        8,
        "5d29a26f1e9f3e4eb68d807136e47dc2704393d646642d443475a37ff81a0831",
    ),
    "population_packet": (
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "congested_96": (
        90,
        "914add7c65c7c39646fa1f4e2e9a8a8b85d0babf351c4f12f1d3433421b8d512",
    ),
}


def _plans_text(plans) -> str:
    lines = []
    for pid, plan in plans.items():
        sel = plan.selection
        lines.append(
            repr(
                (
                    pid,
                    sel.chosen,
                    sel.rejected_identical,
                    sel.estimated_coverage.hex(),
                    [(k, v.hex()) for k, v in sel.estimated_gains.items()],
                    plan.groups,
                    list(plan.demand.items()),
                    plan.decided_at,
                )
            )
        )
    return "\n".join(lines)


@pytest.mark.parametrize("numpy", ["numpy", "no-numpy"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_join_plans(name, numpy, monkeypatch):
    if numpy == "no-numpy":
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    plans = run(SPECS[name]()).extras.get("join_plans", {})
    text = _plans_text(plans)
    assert (len(plans), hashlib.sha256(text.encode("utf-8")).hexdigest()) == PINS[name]
