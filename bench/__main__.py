"""``python -m bench`` — run / trace / compare, plus the driver's entry.

    python -m bench run     [--seed N] [--reps R] [--out FILE]
    python -m bench trace   [--seed N] [--reps R] [--out FILE]
    python -m bench compare A.json B.json [--out FILE]

``measure`` is the time-boxed single-workload form that
``BENCHMARK.json`` names (``--workload --seed --seconds --trace``); it
ends with the one-line JSON result the driver's contract asks for.
``child`` is internal: one repetition in a fresh interpreter.

Every verb exits non-zero on a correctness failure.
"""

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from bench import ROOT
from bench.metrics import END_TO_END, PER_LAYER
from bench.repetition import MODES, main as child_main
from bench.workloads import BY_NAME, SCALES


def _write(path: Optional[str], data: Any) -> None:
    """Write a ledger (or a table) to ``--out``.

    Spans go one per line: a traced ledger holds a few thousand.
    """
    if not path:
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if isinstance(data, str):
        text = data
    else:
        spans = data.get("spans")
        body = {k: v for k, v in data.items() if k != "spans"}
        text = json.dumps(body, indent=1, sort_keys=True) + "\n"
        if spans is not None:
            rows = ",\n".join("  " + json.dumps(s, sort_keys=True) for s in spans)
            text = text[: text.rindex("}")].rstrip() + f',\n "spans": [\n{rows}\n ]\n}}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _print_environment(env: Dict[str, Any]) -> None:
    print(
        f"environment: python {env['python']}, numpy {env['numpy'] or 'absent'}, "
        f"nproc {env['nproc']}, load average at start "
        f"{', '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}, {env['platform']}"
    )


def _print_end_to_end(ledger: Dict[str, Any]) -> None:
    for name, entry in ledger["workloads"].items():
        print(
            f"\n== {name}  seed {entry['seed']}  {entry['units']} {entry['unit']}s  "
            f"sim_digest {str(entry['sim_digest'])[:16]} "
            f"({entry['digest_checked_against']})"
        )
        calib = ", ".join(f"{c:.1f}" for c in entry["calib_ms"])
        print(f"   host.calib_ms per repetition: {calib}")
        print(f"   {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
        for metric, stats in entry["metrics"].items():
            print(
                f"   {metric:16s} {stats['unit']:6s} {stats['median']:12.6g} "
                f"{stats['q1']:12.6g} {stats['q3']:12.6g} {stats['n']:3d}"
            )
        if "raw" in entry:
            raw = entry["raw"]
            print(
                f"   before host normalisation: wall_s {raw['wall_s']['median']:.4g}, "
                f"setup_s {raw['setup_s']['median']:.4g}, "
                f"host factor {raw['wall_host_factor']['median']:.3f}"
            )
        print(f"   operations: {entry['attempted']} attempted, {entry['failed']} failed")
        for line in entry["failures"]:
            print(f"   FAILED {line}")


def _print_layers(title: str, layer: Dict[str, Dict[str, Any]]) -> None:
    print(f"\n== {title}")
    for name, item in layer.items():
        if item["value"] is None:
            print(f"   {name:42s} {item['unit']:6s} {'null':>14s}  ({item['reason']})")
        else:
            where = f"  [{item['measured_on']}]" if "measured_on" in item else ""
            print(f"   {name:42s} {item['unit']:6s} {item['value']:14.6g}{where}")


def _finish(ledger: Dict[str, Any]) -> int:
    from bench.harness import correct

    if correct(ledger["workloads"]):
        return 0
    print("correctness check FAILED (see FAILED lines above)", file=sys.stderr)
    return 1


def _require_program() -> None:
    """Refuse to measure a checkout that does not hold the program."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"bench: {os.path.join(ROOT, 'src', 'repro')} not found: nothing to measure")


def cmd_run(args: argparse.Namespace) -> int:
    from bench.harness import run_all

    _require_program()
    ledger = run_all(args.seed, args.reps, args.scale)
    _print_environment(ledger["environment"])
    _print_end_to_end(ledger)
    _write(args.out, ledger)
    return _finish(ledger)


def cmd_trace(args: argparse.Namespace) -> int:
    from bench.harness import trace_all

    _require_program()
    ledger = trace_all(args.seed, args.reps, args.scale)
    _print_environment(ledger["environment"])
    _print_end_to_end(ledger)
    for name, entry in ledger["workloads"].items():
        _print_layers(f"{name}: per-layer metrics (traced)", entry["layer"])
    _print_layers("layer probes (fixed inputs)", ledger["probes"])
    if "probes_error" in ledger:
        print(f"   probes FAILED: {ledger['probes_error']}")
    _write(args.out, ledger)
    return _finish(ledger)


def cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare, format_rows, regressed

    ledgers = []
    for path in (args.base, args.new):
        with open(path, "r", encoding="utf-8") as fh:
            ledgers.append(json.load(fh))
    rows = compare(*ledgers)
    table = f"A = {args.base}\nB = {args.new}\n{format_rows(rows)}\n"
    print(table, end="")
    _write(args.out, table)
    return 1 if regressed(rows) else 0


def cmd_measure(args: argparse.Namespace) -> int:
    from bench.harness import measure

    _require_program()
    trace = bool(args.trace)
    ledger = measure(args.workload, args.seed, args.seconds, trace, args.scale)
    entry = ledger["workloads"][args.workload]
    _print_environment(ledger["environment"])
    _print_end_to_end(ledger)
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        _print_layers(f"{args.workload}: per-layer metrics", entry["layer"])
        for metric in PER_LAYER:
            item = entry["layer"].get(metric.name, {"value": None, "reason": "not measured"})
            if item["value"] is None:
                # The contract wants a number under every declared name.
                print(f"bench: {metric.name} is null: {item['reason']}", file=sys.stderr)
            metrics[metric.name] = {"value": item["value"] or 0.0, "unit": metric.unit}
    else:
        for metric in END_TO_END:
            if metric.name not in entry["metrics"]:
                print("bench: no repetition succeeded; no result", file=sys.stderr)
                return 1
            metrics[metric.name] = {
                "value": entry["metrics"][metric.name]["median"], "unit": metric.unit,
            }
    _write(args.out, ledger)
    sys.stdout.flush()
    print(json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }))
    return _finish(ledger)


def cmd_child(args: argparse.Namespace) -> int:
    return child_main(args.mode, args.workload, args.seed, args.scale)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, reps: int) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="seed for every workload (default: each workload's own)")
        p.add_argument("--reps", type=int, default=reps,
                       help="measured repetitions per workload, after one discarded")
        p.add_argument("--out", help="write the ledger JSON here")
        p.add_argument("--scale", choices=SCALES, default="full", help=argparse.SUPPRESS)

    run = sub.add_parser("run", help="end-to-end metrics, tracing off")
    common(run, reps=7)
    run.set_defaults(fn=cmd_run)

    trace = sub.add_parser("trace", help="per-layer metrics: phase spans + probes")
    common(trace, reps=3)
    trace.set_defaults(fn=cmd_trace)

    cmp_ = sub.add_parser("compare", help="compare two ledgers")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    cmp_.add_argument("--out", help="write the table here")
    cmp_.set_defaults(fn=cmd_compare)

    measure = sub.add_parser("measure", help="one workload, time-boxed (BENCHMARK.json)")
    measure.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--out", help="write the ledger JSON here")
    measure.add_argument("--scale", choices=SCALES, default="full", help=argparse.SUPPRESS)
    measure.set_defaults(fn=cmd_measure)

    child = sub.add_parser("child")
    child.add_argument("--mode", required=True, choices=MODES)
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--scale", choices=SCALES, default="full")
    child.set_defaults(fn=cmd_child)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
