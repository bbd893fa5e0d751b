"""One repetition, in a fresh interpreter.

The harness starts ``python -m bench child ...`` for every repetition
(in-process repetition drifts upward as the heap fragments), with
``PYTHONHASHSEED=0``.  The child times its own set-up and timed region,
runs the host calibration before, between and after them, checks what
it simulated, and prints one JSON record as its last line.

Modes: ``run`` (untraced repetition), ``setup`` (set-up only, for more
``setup_s`` samples), ``trace`` (repetition under phase spans) and
``probes`` (the fixed-input layer probes, no workload).
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from typing import Any, Dict

from bench import ROOT, add_src_to_path, calibration
from bench.workloads import BY_NAME, execute, make_input, prepare, summarise

MODES = ("run", "setup", "trace", "probes")
TMP_ROOT = os.path.join(ROOT, "bench", ".tmp")


def _bracket(before: Dict[str, float], after: Dict[str, float]) -> float:
    """Host factor of a region: mean of the calibrations around it."""
    return (before["factor"] + after["factor"]) / 2.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child.

    Exact for the single-process workloads; for the campaign it is the
    parent plus the larger of its two workers, which moves when either
    side grows.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_child(mode: str, name: str, seed: int, scale: str) -> Dict[str, Any]:
    first = calibration.measure()
    record: Dict[str, Any] = {
        "mode": mode, "workload": name, "seed": seed, "scale": scale,
        "ok": False, "error": None, "calib_ms": 1e3 * first["seconds"],
    }
    tmp_dir = None
    try:
        add_src_to_path()
        if mode == "probes":
            _probes(record)
        else:
            os.makedirs(TMP_ROOT, exist_ok=True)
            tmp_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT)
            _repetition(record, first, mode, name, seed, scale, tmp_dir)
        record["ok"] = True
    except Exception as exc:  # noqa: BLE001 - the repetition boundary
        traceback.print_exc(file=sys.stderr)
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            try:
                os.rmdir(TMP_ROOT)  # leave nothing behind once it is empty
            except OSError:
                pass
    return record


def _repetition(
    record: Dict[str, Any], first: Dict[str, float],
    mode: str, name: str, seed: int, scale: str, tmp_dir: str,
) -> None:
    workload = BY_NAME[name]
    clock = time.perf_counter

    t0 = clock()
    import repro.api  # noqa: F401 - timed: users pay it on every run
    import repro.campaign  # noqa: F401

    record["import_s"] = clock() - t0
    inp = make_input(workload, seed, scale)
    t1 = clock()
    prepared = prepare(workload, inp)
    record["build_s"] = clock() - t1
    record["setup_s"] = clock() - t0
    second = calibration.measure()
    record["setup_host_factor"] = _bracket(first, second)
    if mode == "setup":
        return

    cpu0 = time.process_time()
    if mode == "trace":
        from bench.phases import run_traced
        from bench.tracing import Tracer

        tracer = Tracer(name)
        result, wall, layer, reasons = run_traced(
            workload, inp, prepared, tmp_dir, tracer
        )
        layer["api.import_s"] = record["import_s"]
        layer["api.build_s"] = record["build_s"]
        layer["host.calib_ms"] = record["calib_ms"]
        layer["host.cpu_s"] = time.process_time() - cpu0
        record.update(layer=layer, reasons=reasons, spans=tracer.spans())
    else:
        t2 = clock()
        result = execute(workload, inp, prepared, tmp_dir)
        wall = clock() - t2
    record["wall_s"] = wall
    record["cpu_s"] = time.process_time() - cpu0
    # Read before the closing calibration, whose numpy temporaries would
    # otherwise sit on top of the workload's own peak.
    record["peak_rss_mb"] = peak_rss_mb()
    record["wall_host_factor"] = _bracket(second, calibration.measure())
    record.update(vars(summarise(workload, scale, result)))


def _probes(record: Dict[str, Any]) -> None:
    from bench.probes import run_probes
    from bench.tracing import Tracer

    tracer = Tracer("probes")
    report = run_probes(tracer)
    record.update(layer=report.values, reasons=report.reasons, spans=tracer.spans())


def main(mode: str, name: str, seed: int, scale: str) -> int:
    record = run_child(mode, name, seed, scale)
    sys.stdout.flush()
    print(json.dumps(record))
    return 0
