"""The harness at smoke scale: declared output, fail_share, null probes."""

import json
import os
import subprocess
import sys

import pytest

from bench import ROOT, harness, phases, probes, repetition
from bench.metrics import END_TO_END, PER_LAYER
from bench.tracing import Tracer
from bench.workloads import BY_NAME, WORKLOADS

DECLARED_END_TO_END = [m.name for m in END_TO_END] + ["fail_share"]


@pytest.fixture(scope="module")
def smoke_ledger():
    return harness.run_all(seed=None, reps=1, scale="smoke", log=lambda line: None)


def test_run_reports_every_declared_metric_for_every_workload(smoke_ledger):
    assert list(smoke_ledger["workloads"]) == [w.name for w in WORKLOADS]
    for name, entry in smoke_ledger["workloads"].items():
        assert list(entry["metrics"]) == DECLARED_END_TO_END, name
        for metric in END_TO_END:
            stats = entry["metrics"][metric.name]
            assert stats["unit"] == metric.unit
            assert stats["n"] >= 1 and stats["median"] > 0
        assert entry["metrics"]["fail_share"]["median"] == 0.0
        assert entry["failed"] == 0 and entry["failures"] == []
        assert entry["attempted"] == BY_NAME[name].operations
        assert len(entry["sim_digest"]) == 64
    assert harness.correct(smoke_ledger["workloads"])
    env = smoke_ledger["environment"]
    assert {"python", "numpy", "nproc", "loadavg_at_start"} <= set(env)


def test_measure_line_carries_every_declared_layer_metric():
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "flow_1m",
         "--seed", "3", "--seconds", "0", "--trace", "1", "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in PER_LAYER]
    for metric in PER_LAYER:
        item = line["metrics"][metric.name]
        assert item["unit"] == metric.unit
        assert isinstance(item["value"], (int, float)), metric.name
    # Nothing was filled with the null stand-in: every layer was measured.
    assert "is null" not in proc.stderr, proc.stderr


def _rep(digest="a" * 64, **over):
    record = {
        "mode": "run", "workload": "flow_1m", "seed": 9, "scale": "full", "ok": True,
        "error": None, "calib_ms": 25.0, "setup_s": 0.3, "wall_s": 2.0, "units": 100,
        "peak_rss_mb": 50.0, "sim_efficiency": 0.7, "sim_digest": digest,
        "setup_host_factor": 1.0, "wall_host_factor": 1.0,
        "attempted": 1, "failed": 0, "failures": [],
    }
    record.update(over)
    return record


def test_digest_mismatch_raises_fail_share():
    flow = BY_NAME["flow_1m"]
    good = harness.reduce_workload(flow, 9, "full", [_rep(), _rep()])
    assert good["failed"] == 0 and good["metrics"]["fail_share"]["median"] == 0.0
    # Two repetitions of one seed that disagree.
    drift = harness.reduce_workload(flow, 9, "full", [_rep(), _rep("b" * 64)])
    assert (drift["attempted"], drift["failed"]) == (2, 1)
    assert drift["metrics"]["fail_share"]["median"] == 0.5
    assert "differs from the first repetition" in drift["failures"][0]
    # A digest recorded in expected.json that the run no longer matches.
    expected = {"flow_1m": {"9": "c" * 64}}
    stale = harness.reduce_workload(flow, 9, "full", [_rep(), _rep()], expected=expected)
    assert stale["metrics"]["fail_share"]["median"] == 1.0
    assert "differs from expected.json" in stale["failures"][0]
    assert not harness.correct({"flow_1m": stale})
    # Unrecorded seeds and the smoke scale are checked between repetitions only.
    assert harness.reduce_workload(flow, 10, "full", [_rep()], expected=expected)["failed"] == 0
    assert harness.reduce_workload(flow, 9, "smoke", [_rep()], expected=expected)["failed"] == 0


def test_broken_invariant_and_failed_cells_count_as_failed_operations():
    campaign = BY_NAME["fig5_campaign"]
    rep = _rep(attempted=32, failed=3, failures=["cell-0001: boom"] * 3)
    entry = harness.reduce_workload(campaign, 7, "full", [rep])
    assert (entry["attempted"], entry["failed"]) == (32, 3)
    assert entry["metrics"]["fail_share"]["median"] == 3 / 32
    # A repetition with a broken invariant contributes no timing sample.
    assert "wall_s" not in entry["metrics"]


def test_raising_workload_raises_fail_share(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(repetition, "execute", boom)
    record = repetition.run_child("run", "congested_384", 29, "smoke")
    assert record["ok"] is False and record["error"] == "RuntimeError: simulated crash"
    entry = harness.reduce_workload(BY_NAME["congested_384"], 29, "smoke", [record])
    assert (entry["attempted"], entry["failed"]) == (1, 1)
    assert entry["metrics"]["fail_share"]["median"] == 1.0
    assert not harness.correct({"congested_384": entry})


def test_unknown_workload_is_a_failed_repetition():
    record = harness.spawn("run", "no_such_workload", 0, "smoke")
    assert record["ok"] is False and "no_such_workload" in record["error"]


def test_missing_probe_target_is_null_with_a_reason(monkeypatch):
    def gone(out):
        probes.resolve("repro.no_such_layer", "Thing")

    def renamed(out):
        out.record("layer.first", 1.0)
        probes.resolve("repro.coding", "NoSuchClass")

    monkeypatch.setattr(
        probes, "_PROBES",
        [("gone", ("layer.gone",), gone), ("renamed", ("layer.first", "layer.second"), renamed)],
    )
    report = probes.run_probes(Tracer("probes"))
    assert report.values == {"layer.gone": None, "layer.first": 1.0, "layer.second": None}
    assert "cannot import repro.no_such_layer" in report.reasons["layer.gone"]
    assert report.reasons["layer.second"] == "repro.coding has no NoSuchClass"


def test_flow_trace_survives_a_renamed_engine(monkeypatch):
    from repro.api import build

    from bench.workloads import make_input, summarise

    flow = BY_NAME["flow_1m"]
    monkeypatch.setattr(probes, "FLOW_SIMULATOR", ("repro.flow.engine", "RenamedSimulator"))
    spec = make_input(flow, 9, "smoke")
    result, wall, layer, reasons = phases.run_traced(
        flow, spec, build(spec), os.path.join(ROOT, "bench", ".tmp"), Tracer("flow_1m")
    )
    assert summarise(flow, "smoke", result).failed == 0
    assert layer["flow.ms_per_tick"] is None
    assert "RenamedSimulator" in reasons["flow.ms_per_tick"]
    assert layer["flow.ticks"] > 0 and wall > 0


def test_times_are_divided_by_the_host_factor():
    from bench import calibration

    once = calibration.measure()
    assert once["factor"] > 0 and once["seconds"] == once["python_s"] + once["numpy_s"]
    slow = _rep(wall_s=3.0, setup_s=0.6, wall_host_factor=1.5, setup_host_factor=1.2)
    entry = harness.reduce_workload(BY_NAME["flow_1m"], 9, "smoke", [slow])
    assert entry["metrics"]["wall_s"]["median"] == 2.0
    assert entry["metrics"]["us_per_unit"]["median"] == 2.0e6 / 100
    assert entry["metrics"]["setup_s"]["median"] == 0.5
    assert entry["raw"]["wall_s"]["median"] == 3.0
    assert entry["raw"]["wall_host_factor"]["median"] == 1.5
