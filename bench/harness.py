"""The measuring side: start repetitions, check them, reduce to a ledger.

One generator process (this one) starts one repetition at a time — a
closed loop — so at most the repetition's own processes are busy (one,
or the campaign's two workers).  Workloads are interleaved round-robin
so that slow drift of the shared host lands on all of them alike.
"""

import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from bench import ROOT
from bench.metrics import END_TO_END, LAYER_UNITS
from bench.workloads import BY_NAME, WORKLOADS, Workload

LEDGER_SCHEMA = "bench.ledger/1"
#: No repetition takes a fifth of this on the reference box.
CHILD_TIMEOUT_S = 150.0
#: Set-up samples a time-boxed measurement collects before it reports.
SETUP_SAMPLES = 5
EXPECTED_FILE = os.path.join(ROOT, "bench", "expected.json")

Record = Dict[str, Any]


# -- starting repetitions -----------------------------------------------------


def spawn(mode: str, name: str, seed: int, scale: str) -> Record:
    """Run one child repetition to its end and return its record.

    A child that crashes, prints nothing parseable or outlives
    :data:`CHILD_TIMEOUT_S` yields a failed record; the whole process
    group is killed on timeout so campaign workers never linger.
    """
    cmd = [
        sys.executable, "-m", "bench", "child",
        "--mode", mode, "--workload", name, "--seed", str(seed), "--scale", scale,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _failed(mode, name, seed, scale, f"timeout after {CHILD_TIMEOUT_S:g}s")
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if not isinstance(record, dict):
        return _failed(
            mode, name, seed, scale, f"no result line (exit code {proc.returncode})"
        )
    return record


def _failed(mode: str, name: str, seed: int, scale: str, error: str) -> Record:
    return {
        "mode": mode, "workload": name, "seed": seed, "scale": scale,
        "ok": False, "error": error,
    }


# -- statistics ---------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summary(values: Sequence[float], unit: str) -> Dict[str, Any]:
    return {"unit": unit, **quartiles(values), "n": len(values), "samples": list(values)}


def environment() -> Dict[str, Any]:
    """The block every ledger carries: where the numbers were taken."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def load_expected() -> Dict[str, Dict[str, str]]:
    """``{workload: {seed: sim_digest}}`` recorded for the full scale."""
    with open(EXPECTED_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)["sim_digest"]


# -- reducing repetitions to a ledger entry -----------------------------------


def reduce_workload(
    workload: Workload,
    seed: int,
    scale: str,
    reps: Iterable[Record],
    setups: Iterable[Record] = (),
    expected: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> Dict[str, Any]:
    """Check a workload's repetitions and reduce them to its ledger entry.

    An operation fails on: an exception or timeout in the child, a
    broken invariant, a run that did not complete, a ``sim_digest``
    that differs between repetitions of the same seed, or one that
    differs from the digest recorded for that seed.  Campaign cells
    count individually; a failed repetition fails all of its operations.
    """
    reps = list(reps)
    failures: List[str] = []
    attempted = failed = 0
    want = None
    if expected is not None and scale == "full":
        want = expected.get(workload.name, {}).get(str(seed))
    digest = want
    good: List[Record] = []
    for index, rep in enumerate(reps):
        operations = rep.get("attempted", workload.operations)
        attempted += operations
        problems = list(rep.get("failures", ()))
        whole = False
        if not rep.get("ok"):
            problems.append(rep.get("error") or "repetition failed")
            whole = True
        else:
            if digest is None:
                digest = rep["sim_digest"]
            if rep["sim_digest"] != digest:
                source = "expected.json" if digest == want else "the first repetition"
                problems.append(
                    f"sim_digest {rep['sim_digest'][:12]} differs from "
                    f"{source} ({digest[:12]})"
                )
                whole = True
        failed += operations if whole else rep.get("failed", 0)
        failures.extend(f"rep {index} [{rep.get('mode')}]: {p}" for p in problems)
        if rep.get("ok") and not problems and rep.get("mode") == "run":
            good.append(rep)

    entry: Dict[str, Any] = {
        "seed": seed,
        "unit": workload.unit,
        "units": good[0]["units"] if good else None,
        "sim_digest": digest,
        "digest_checked_against": "expected.json" if want else "repetitions only",
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "calib_ms": [rep["calib_ms"] for rep in reps if "calib_ms" in rep],
        "metrics": {},
    }
    # Times are divided by the host factor of the calibrations around
    # them (bench/calibration.py); the raw samples stay beside them.
    setup_reps = [r for r in list(setups) + good if r.get("ok") and "setup_s" in r]
    if good:
        walls = [_wall(r) for r in good]
        values = {
            "wall_s": walls,
            "us_per_unit": [1e6 * w / r["units"] for w, r in zip(walls, good)],
            "setup_s": [r["setup_s"] / r["setup_host_factor"] for r in setup_reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
            "sim_efficiency": [r["sim_efficiency"] for r in good],
        }
        for metric in END_TO_END:
            entry["metrics"][metric.name] = summary(values[metric.name], metric.unit)
        entry["raw"] = {
            "wall_s": summary([r["wall_s"] for r in good], "s"),
            "setup_s": summary([r["setup_s"] for r in setup_reps], "s"),
            "wall_host_factor": summary([r["wall_host_factor"] for r in good], "ratio"),
        }
    share = failed / attempted if attempted else 1.0
    entry["metrics"]["fail_share"] = summary([share], "ratio")
    return entry


def _wall(record: Record) -> float:
    """A repetition's host-normalised wall time."""
    return record["wall_s"] / record["wall_host_factor"]


def ledger(verb: str, scale: str, workloads: Dict[str, Any], env: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "schema": LEDGER_SCHEMA,
        "verb": verb,
        "scale": scale,
        "environment": env,
        "workloads": workloads,
    }


def correct(entries: Mapping[str, Mapping[str, Any]]) -> bool:
    return all(e["failed"] == 0 and e["attempted"] > 0 for e in entries.values())


# -- the three ways of measuring ----------------------------------------------


def seed_for(workload: Workload, seed: Optional[int]) -> int:
    return workload.default_seed if seed is None else seed


def _rounds(
    modes: Sequence[str], seed: Optional[int], reps: int, scale: str, log
) -> Dict[str, List[Record]]:
    """``reps`` measured rounds of every workload, round-robin.

    One extra leading round is discarded: it compiles ``.pyc`` files and
    warms the page cache, which the measured rounds must not pay.
    """
    records: Dict[str, List[Record]] = {w.name: [] for w in WORKLOADS}
    for round_index in range(reps + 1):
        for workload in WORKLOADS:
            for mode in modes:
                record = spawn(mode, workload.name, seed_for(workload, seed), scale)
                log(_progress(round_index, record))
                if round_index:
                    records[workload.name].append(record)
    return records


def run_all(seed: Optional[int], reps: int, scale: str, log=print) -> Dict[str, Any]:
    """``bench run``: every workload, tracing off."""
    env = environment()
    expected = load_expected()
    records = _rounds(("run",), seed, reps, scale, log)
    entries = {
        w.name: reduce_workload(
            w, seed_for(w, seed), scale, records[w.name], expected=expected
        )
        for w in WORKLOADS
    }
    return ledger("run", scale, entries, env)


def trace_all(seed: Optional[int], reps: int, scale: str, log=print) -> Dict[str, Any]:
    """``bench trace``: untraced/traced pairs per workload, then probes."""
    env = environment()
    expected = load_expected()
    pairs = _rounds(("run", "trace"), seed, reps, scale, log)
    probes = spawn("probes", "probes", 0, scale)
    log(_progress(1, probes))
    entries = {}
    spans: List[Dict[str, Any]] = list(probes.get("spans", ()))
    for workload in WORKLOADS:
        records = pairs[workload.name]
        entry = reduce_workload(
            workload, seed_for(workload, seed), scale, records, expected=expected
        )
        entry["layer"] = layer_summary(records)
        entries[workload.name] = entry
        traced = [r for r in records if "spans" in r]
        if traced:
            spans.extend(traced[-1]["spans"])
    out = ledger("trace", scale, entries, env)
    out["probes"] = layer_summary([probes])
    if not probes.get("ok"):
        out["probes_error"] = probes.get("error")
    out["spans"] = spans
    return out


def layer_summary(records: Sequence[Record]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics over the traced records: median, or null + reason.

    ``records`` are repetitions in the order they ran; when untraced
    ones are among them, adjacent untraced/traced pairs also give
    ``trace.overhead_share``.
    """
    traced = [r for r in records if r.get("ok") and "layer" in r]
    out: Dict[str, Dict[str, Any]] = {}
    names: List[str] = []
    for record in traced:
        names.extend(n for n in record["layer"] if n not in names)
    for name in names:
        values = [r["layer"][name] for r in traced if r["layer"].get(name) is not None]
        item: Dict[str, Any] = {"unit": LAYER_UNITS.get(name, "")}
        if values:
            item.update(value=statistics.median(values), samples=values)
        else:
            reasons = [r["reasons"].get(name) for r in traced if r["reasons"].get(name)]
            item.update(value=None, reason=reasons[0] if reasons else "not measured")
        out[name] = item
    if any(r["mode"] == "run" for r in records):
        out["trace.overhead_share"] = _overhead(records)
    return out


def _overhead(records: Sequence[Record]) -> Dict[str, Any]:
    """Tracing overhead: median over adjacent pairs of traced/untraced - 1.

    Pairing neighbours in time cancels the slow drift of the shared
    host, which is larger than the overhead being measured.
    """
    shares = [
        _wall(traced) / _wall(untraced) - 1.0
        for untraced, traced in zip(records, records[1:])
        if untraced["mode"] == "run" and traced["mode"] == "trace"
        and untraced.get("ok") and traced.get("ok")
    ]
    if shares:
        return {"unit": "ratio", "value": statistics.median(shares), "samples": shares}
    return {"unit": "ratio", "value": None, "reason": "no untraced/traced pair succeeded"}


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full", log=print
) -> Dict[str, Any]:
    """One workload, time-boxed: the form the driver's contract runs.

    Starts with a discarded set-up-only child (``.pyc`` and page-cache
    warm-up), then repeats until ``seconds`` have been measured.  With
    ``trace`` each repetition is an untraced/traced pair, followed by
    the probes, and the layers this workload never enters are measured
    on the smoke-scale variant of the workloads that do, so that every
    declared per-layer name carries a real measurement.
    """
    workload = BY_NAME[name]
    env = environment()
    expected = load_expected()
    log(_progress(0, spawn("setup", name, seed, scale)))
    records: List[Record] = []
    start = time.perf_counter()
    while True:
        for mode in ("run", "trace") if trace else ("run",):
            record = spawn(mode, name, seed, scale)
            log(_progress(1, record))
            records.append(record)
        if time.perf_counter() - start >= seconds:
            break
    setups: List[Record] = []
    if not trace:
        have = sum(1 for r in records if r.get("ok"))
        for _ in range(max(0, SETUP_SAMPLES - have)):
            setups.append(spawn("setup", name, seed, scale))
            log(_progress(1, setups[-1]))
    entry = reduce_workload(workload, seed, scale, records, setups, expected)
    out = ledger("measure", scale, {name: entry}, env)
    if trace:
        layer = layer_summary(records)
        for other in WORKLOADS:
            if other.name == name:
                continue
            record = spawn("trace", other.name, other.default_seed, "smoke")
            log(_progress(1, record))
            for key, item in layer_summary([record]).items():
                if layer.get(key, {}).get("value") is None and item["value"] is not None:
                    layer[key] = dict(item, measured_on=f"{other.name} (smoke)")
        probes = spawn("probes", "probes", 0, scale)
        log(_progress(1, probes))
        layer.update(layer_summary([probes]))
        entry["layer"] = layer
    return out


def _progress(round_index: int, record: Record) -> str:
    """One log line per repetition; round 0 is the discarded warm-up."""
    tag = f"round {round_index}" if round_index else "warm-up"
    if not record.get("ok"):
        return f"[{tag}] {record['workload']} {record['mode']}: FAILED {record.get('error')}"
    parts = [f"[{tag}] {record['workload']} {record['mode']}"]
    for key, fmt in (("setup_s", "setup {:.2f}s"), ("wall_s", "wall {:.2f}s"),
                     ("calib_ms", "calib {:.1f}ms")):
        if key in record:
            parts.append(fmt.format(record[key]))
    return " ".join(parts)
