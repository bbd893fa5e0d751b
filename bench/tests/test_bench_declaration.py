"""BENCHMARK.json is the contract file; bench/metrics.py is its source."""

import json
import os
import re

from bench import ROOT
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_declaration_has_exactly_the_contract_keys():
    decl = _declaration()
    assert set(decl) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert decl["paths"] == ["bench"]
    assert decl["command"][:3] == ["python3", "-m", "bench"]
    assert isinstance(decl["run_seconds"], int) and 1 <= decl["run_seconds"] <= 60


def test_workloads_match_the_harness():
    decl = _declaration()
    assert [w["name"] for w in decl["workloads"]] == [w.name for w in WORKLOADS]
    for declared, workload in zip(decl["workloads"], WORKLOADS):
        assert set(declared) == {"name", "why"}
        assert declared["why"] == workload.why
        assert len(declared["why"]) <= 200 and "\n" not in declared["why"]


def test_metrics_match_the_harness_tables():
    decl = _declaration()
    assert decl["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert decl["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_names_units_and_limits():
    decl = _declaration()
    assert 2 <= len(decl["workloads"]) <= 8
    assert 1 <= len(decl["end_to_end"]) <= 16
    assert 1 <= len(decl["per_layer"]) <= 128
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in decl[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for item in decl["end_to_end"] + decl["per_layer"]:
        assert UNIT.match(item["unit"]), item
        assert item["better"] in ("lower", "higher")
    for item in decl["end_to_end"]:
        assert 0 <= item["bound"] <= 0.25
    setup = [m for m in decl["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in decl["end_to_end"])}]
