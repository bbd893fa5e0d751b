"""Tick-parity regression: the event engine reproduces the legacy tick loop.

The legacy simulator iterated connections once per tick with
credit-carried fractional bandwidth and one Bernoulli loss draw per
packet.  The event-driven engine expresses the same pass as a periodic
event on the heap, so a seeded run must reproduce the legacy delivery
metrics *exactly* — same tick counts, same packets sent/lost/useful,
same reconfiguration count.  Any drift in RNG consumption order,
credit arithmetic, or connection iteration order trips this test.

Both pins run ``random_overlay`` over its physical network, so they
also pin that network: the ``scale_free`` router core, the link
property stream, and the id-ordered shortest paths of
:mod:`repro.topology.paths`.  They were re-recorded once, when that
module replaced a third-party graph library whose generator and path
tie-breaks came from whichever version was installed; the runs without a
physical net (``tests/api/test_api_parity.py`` and the catalog pins)
did not move.
"""

from repro.api import build, specs

#: (scenario kwargs, seeded metrics).
PINNED = [
    (
        dict(num_peers=15, target=120, num_sources=1, seed=42),
        dict(ticks=38, sent=1429, lost=36, useful=1152, reconf=18),
    ),
    (
        dict(
            num_peers=15,
            target=250,
            num_sources=1,
            seed=7,
            initial_fraction_lo=0.0,
            initial_fraction_hi=0.3,
        ),
        dict(ticks=73, sent=4989, lost=77, useful=2165, reconf=42),
    ),
]


def _simulator(**kwargs):
    return build(specs.random_overlay(**kwargs)).scenario.simulator


class TestTickParity:
    def test_event_engine_matches_legacy_metrics(self):
        for kwargs, want in PINNED:
            report = _simulator(**kwargs).run(max_ticks=3000)
            got = dict(
                ticks=report.ticks,
                sent=report.packets_sent,
                lost=report.packets_lost,
                useful=report.packets_useful,
                reconf=report.reconfigurations,
            )
            assert report.all_complete, kwargs
            assert got == want, f"parity drift for {kwargs}: {got} != {want}"

    def test_tick_clock_alignment(self):
        # The scheduler clock and the tick counter stay in lock step
        # when only the periodic delivery event is scheduled.
        sim = _simulator(num_peers=4, target=60, seed=3)
        for _ in range(5):
            sim.tick()
        assert sim.tick_count == 5
        assert sim.scheduler.now == 5.0

    def test_rerun_is_deterministic(self):
        runs = [
            _simulator(num_peers=8, target=80, seed=19).run(max_ticks=2000)
            for _ in range(2)
        ]
        assert runs[0].packets_sent == runs[1].packets_sent
        assert runs[0].completion_ticks == runs[1].completion_ticks
