"""``bench compare`` on synthetic pairs: ok / regressed / unresolved."""

from bench.compare import (
    OK, REGRESSED, UNRESOLVED, classify, compare, format_rows, regressed,
)
from bench.harness import summary
from bench.metrics import END_TO_END, FAIL_SHARE

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END + (FAIL_SHARE,)}

WALL = END_TO_END_BY_NAME["wall_s"]  # lower is better, bound 0.25
EFFICIENCY = END_TO_END_BY_NAME["sim_efficiency"]  # higher is better
FAIL = END_TO_END_BY_NAME["fail_share"]


def _s(values, unit="s"):
    return summary(values, unit)


def test_same_distribution_is_ok():
    row = classify(WALL, _s([10.0, 10.1, 9.9, 10.2, 10.0]), _s([10.1, 10.0, 9.8, 10.3, 10.1]))
    assert row["verdict"] == OK
    assert abs(row["ratio_new_over_base"] - 1.01) < 0.02


def test_tight_runs_beyond_the_bound_regress():
    row = classify(WALL, _s([10.0, 10.1, 9.9, 10.2, 10.0]), _s([13.0, 13.1, 12.9, 13.2, 13.0]))
    assert row["verdict"] == REGRESSED
    faster = classify(WALL, _s([13.0, 13.1, 12.9]), _s([10.0, 10.1, 9.9]))
    assert faster["verdict"] == OK


def test_spread_wider_than_the_bound_is_unresolved():
    noisy_a = _s([6.0, 10.0, 14.0, 8.0, 12.0])
    noisy_b = _s([7.0, 11.0, 15.0, 9.0, 13.5])
    assert classify(WALL, noisy_a, noisy_b)["verdict"] == UNRESOLVED
    # ... unless every run of one side beats every run of the other.
    assert classify(WALL, noisy_a, _s([1.0, 2.0, 3.0, 4.0, 5.0]))["verdict"] == OK
    assert classify(WALL, noisy_a, _s([20.0, 30.0, 40.0, 25.0, 35.0]))["verdict"] == REGRESSED


def test_direction_and_zero_bound():
    assert classify(EFFICIENCY, _s([0.8] * 3, "ratio"), _s([0.7] * 3, "ratio"))["verdict"] == REGRESSED
    assert classify(EFFICIENCY, _s([0.8] * 3, "ratio"), _s([0.9] * 3, "ratio"))["verdict"] == OK
    assert classify(FAIL, _s([0.0], "ratio"), _s([0.0], "ratio"))["verdict"] == OK
    assert classify(FAIL, _s([0.0], "ratio"), _s([0.2], "ratio"))["verdict"] == REGRESSED


def _ledger(wall, digest="d1", seed=0):
    metrics = {
        name: _s(values, END_TO_END_BY_NAME[name].unit)
        for name, values in {
            "wall_s": wall,
            "us_per_unit": [w * 10 for w in wall],
            "setup_s": [0.5, 0.5, 0.5],
            "peak_rss_mb": [100.0, 100.0, 100.0],
            "sim_efficiency": [0.9, 0.9, 0.9],
            "fail_share": [0.0],
        }.items()
    }
    return {"workloads": {"w": {"seed": seed, "sim_digest": digest, "metrics": metrics}}}


def test_compare_walks_every_metric_and_checks_the_digest():
    rows = compare(_ledger([10.0, 10.1, 9.9]), _ledger([10.0, 10.2, 9.8]))
    assert [r["metric"] for r in rows] == [
        "wall_s", "us_per_unit", "setup_s", "peak_rss_mb", "sim_efficiency",
        "fail_share", "sim_digest",
    ]
    assert not regressed(rows)
    table = format_rows(rows).splitlines()
    assert len(table) == 2 + len(rows)
    assert all(line.rstrip().endswith(OK) for line in table[2:])
    changed = compare(_ledger([10.0, 10.1, 9.9]), _ledger([10.0, 10.1, 9.9], digest="d2"))
    assert regressed(changed) and changed[-1]["verdict"] == REGRESSED
    # Different seeds simulate different things: no digest row.
    other = compare(_ledger([10.0, 10.1, 9.9]), _ledger([10.0, 10.1, 9.9], "d2", seed=1))
    assert "sim_digest" not in [r["metric"] for r in other]
    slow = compare(_ledger([10.0, 10.1, 9.9]), _ledger([14.0, 14.1, 13.9]))
    assert {r["metric"] for r in slow if r["verdict"] == REGRESSED} == {"wall_s", "us_per_unit"}
