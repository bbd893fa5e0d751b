#!/usr/bin/env python3
"""Which functions under ``src/repro`` the smoke runs never call.

A ``sys.settrace`` / ``threading.settrace`` hook sees call events only
(it returns ``None``, so no line is traced) and records every code
object that runs while :func:`drive` mirrors CI's smoke steps in this
one process: every registered scenario's miniature spec, each
miniature campaign grid at one worker, every ``examples/*.py`` (the
claims printer at ``--fast``) and, as the no-numpy lane runs them, the
other examples again with numpy gone, the four bench workloads at smoke
scale and the CLI calls CI makes.  An ``ast`` walk then lists every ``def`` under
``src/repro`` (module level and class bodies; nested functions and
lambdas are not counted).  A def is reached when its ``def`` line or
its first decorator's line was hit; its span runs from that first line
to its last, docstring included.

Usage::

    PYTHONPATH=src python scripts/reachability.py          # report
    PYTHONPATH=src python scripts/reachability.py --check  # the CI gate

``--check`` exits 1 when an unreached function matches no row of
:data:`ALLOWED`, when a row excuses nothing on its own (every
function it matches is reached or matched by another row too), so a
row that stops earning its place must go, or when the unreached lines
exceed :data:`CEILING`.  Code nothing runs is deleted, not listed.
One process, well under a minute.
"""

import argparse
import ast
import contextlib
import fnmatch
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple, Union

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


class Allow(NamedTuple):
    """An unreached function that stays, and why."""

    module: str  # glob over dotted module names, e.g. ``repro.sim.*``
    # A glob over qualified names (``*.to_payload``), or a tuple of
    # exact ones, so a new dead function beside them is not excused.
    name: Union[str, Tuple[str, ...]]
    reason: str


#: The most unreached lines ``--check`` passes.  A change that lowers
#: the count lowers this in the same diff, so the number only falls.
CEILING = 626

#: What stays although no smoke step runs it.  At most 30 rows; each
#: must excuse at least one function no other row does.
ALLOWED: Sequence[Allow] = (
    Allow("repro", ("__getattr__", "quickstart_transfer"),
          "the package root's lazy names and quickstart tour, for users "
          "who import repro directly"),
    Allow("repro.*", "*.__repr__", "debug aids"),
    Allow("repro.analysis.coupon", "expected_random_strategy_overhead",
          "test oracle: the coupon-collector bound Random is held to"),
    Allow("repro.api.spec", "*Spec.*",
          "the README-documented with_* builders and summary accessor, and "
          "ParamsSpec.param, the spec's params reader"),
    Allow("repro.art.search",
          ("TreeSummary.matches_internal", "TreeSummary.matches_leaf"),
          "the TreeSummary protocol stubs"),
    Allow("repro.campaign.*", ("_error_text", "CampaignSpec.from_json"),
          "_error_text, which names a worker the OS killed (no smoke run "
          "kills one), and CampaignSpec.from_json, which bench/phases.py's "
          "spec round-trip probe calls (files load through read_json)"),
    Allow("repro.coding.*", "*.*",
          "PeelingDecoder's README-documented counters and content, its "
          "bench-probed add_symbols, DegreeDistribution.probability_of and "
          "Packet.degree, which DataMessage.unpack_recoded reads"),
    Allow("repro.delivery.*",
          ("SenderStrategy.next_packet", "SimReceiver.known_ids",
           "WorkingSet.resemblance_with", "WorkingSet.summary"),
          "the SenderStrategy interface stub, the receiver's O(n) "
          "accessor, summary() and the resemblance_with test oracle"),
    Allow("repro.experiments.*", ("best_leaf_split", "series_by_strategy"),
          "figure helpers tests and the README use (best_leaf_split, "
          "series_by_strategy)"),
    Allow("repro.flow.*", ("_spec_error", "FlowReport.efficiency"),
          "the demand model's refusal of a bad apportion and "
          "FlowReport.efficiency, which the flow tests read"),
    Allow("repro.hashing.batch",
          ("permutation_minima", "permutation_minima_fold"),
          "the bench-probed one-list minima kernels"),
    Allow("repro.hashing.permutations",
          ("LinearPermutation.__call__", "LinearPermutation.invert"),
          "the permutation map and its inverse, test oracles (the cards "
          "read a family's a and b through the kernels)"),
    Allow("repro.overlay.reconfiguration",
          ("AdmissionPolicy.admit", "ReconfigurationPolicy.rewire"),
          "the admission and rewiring interface stubs"),
    Allow("repro.overlay.catalog", ("CatalogScheme.__eq__",),
          "CatalogScheme's value equality, which the catalog tests read"),
    Allow("repro.protocol.messages",
          ("DataMessage.pack", "DataMessage.unpack_encoded",
           "DataMessage.unpack_recoded"),
          "the data message's wire format, which bench/probes.py times "
          "(protocol.data_pack_unpack_us)"),
    Allow("repro.reconcile.adapters", "*.*",
          "the Summary protocol the conformance suite runs for every kind, "
          "and the WIRE layout's price of a CPI bound, which "
          "summary_tradeoff reports for a cell past its cpi_cap"),
    Allow("repro.reconcile.base", "*",
          "the Summary protocol's defaults and the WIRE codec's payload "
          "half (to_payload / from_payload), whose round trip "
          "bench/probes.py times"),
    Allow("repro.reconcile.policy",
          ("SummaryPolicy.__eq__", "SummaryPolicy.__hash__"),
          "value equality and hashing, which the policy tests read (a "
          "session names the one policy, so no run compares two)"),
    Allow("repro.reconcile.registry", "summary_from_payload",
          "the WIRE codec's entry: a payload back to its kind"),
    Allow("repro.sim.engine", ("_stalled",), "the stalled-clock refusal"),
    Allow("repro.sim.links",
          ("GilbertElliottProcess.mean_burst_length",
           "GilbertElliottProcess.empirical_loss_rate"),
          "the Gilbert-Elliott chain's realized rates, which its tests "
          "read as oracles"),
    Allow("repro.topology.generators", "*",
          "the spec-selectable ring, clustered and random generators "
          "(ROADMAP item 5e) and the is_connected test oracle"),
    Allow("repro.topology.paths",
          ("PathModel.links", "PathModel.shared_links", "PathModel.degrade_link"),
          "the README-documented links / shared_links / degrade_link"),
    Allow("repro.transport.*", ("transport_policies",),
          "the policy listing unknown-kind errors print"),
)


class Function(NamedTuple):
    module: str
    qualname: str
    path: str
    first: int  # first decorator's line, else the def line
    def_line: int
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions() -> List[Function]:
    """Every module-level and class-body ``def`` under ``src/repro``."""
    found = []

    def walk(body, module, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, module, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                found.append(Function(
                    module, prefix + node.name, path, first, node.lineno, node.end_lineno,
                ))

    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        walk(tree.body, _module_name(path), str(path), "")
    return found


def names_match(name: Union[str, Tuple[str, ...]], qualname: str) -> bool:
    if isinstance(name, tuple):
        return qualname in name
    return fnmatch.fnmatchcase(qualname, name)


def matching_rows(fn: Function) -> List[int]:
    return [
        i for i, row in enumerate(ALLOWED)
        if fnmatch.fnmatchcase(fn.module, row.module)
        and names_match(row.name, fn.qualname)
    ]


@contextlib.contextmanager
def traced() -> Iterator[Set[Tuple[str, int]]]:
    """Collect ``(co_filename, co_firstlineno)`` of every call made."""
    hits: Set[Tuple[str, int]] = set()

    def hook(frame, event, arg):
        code = frame.f_code
        hits.add((code.co_filename, code.co_firstlineno))
        return None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        yield hits
    finally:
        sys.settrace(None)
        threading.settrace(None)


def _cli(argv: Sequence[str], expect: Sequence[int] = (0,)) -> None:
    from repro.api.__main__ import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            status = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    if status not in expect:
        raise AssertionError(f"{argv}: exit {status}, expected {expect}\n{sink.getvalue()}")


def _load_campaign(path: str) -> None:
    from repro.campaign import CampaignResult

    with open(path, encoding="utf-8") as fh:
        CampaignResult.from_dict(json.load(fh))


#: Arguments an example runs with here; the rest take none.  The claims
#: printer (evaluate("fast"), one line per row) at one worker.
EXAMPLE_ARGS = {"reproduce_paper.py": ["--fast", "--workers", "1"]}


def run_example(path: Path, args: Sequence[str]) -> None:
    """``python path *args``, in this process, its stdout discarded.

    Examples check themselves and exit non-zero on a failure, which is
    raised here."""
    argv = sys.argv
    sys.argv = [str(path), *args]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise RuntimeError(f"{path.name} exited with {exc.code!r}") from exc
    finally:
        sys.argv = argv


def drive(tmp: str) -> None:
    """CI's smoke steps, in this process."""
    from repro.api import registry, run, specs
    from repro.api.result import validate_result_dict
    from repro.campaign import run_campaign, small_campaign
    from repro.delivery.strategies import STRATEGY_NAMES
    from repro.reconcile import summary_kinds

    names = registry.names()
    for name, spec in registry.small_specs().items():
        run(spec.with_override("measurement.record_series", True))
        if registry.small_grid(name):
            run_campaign(small_campaign(name), workers=1)
    run(registry.small_spec("population_flash_crowd")
        .with_override("measurement.fidelity", "packet"))
    for strategy in STRATEGY_NAMES:
        run(specs.pair_transfer(target=120, strategy_name=strategy))
    for example in sorted((ROOT / "examples").glob("*.py")):
        run_example(example, EXAMPLE_ARGS.get(example.name, []))
    # The no-numpy lane's Examples step: the same tours with numpy gone,
    # through the scalar paths (the per-card join greedy among them).
    from repro.hashing import batch

    numpy = batch._numpy
    batch._numpy = lambda: None
    try:
        for example in sorted((ROOT / "examples").glob("*.py")):
            if example.name != "reproduce_paper.py":
                run_example(example, [])
    finally:
        batch._numpy = numpy

    sys.path.insert(0, str(ROOT))
    from bench import workloads

    for workload in workloads.WORKLOADS:
        inp = workloads.make_input(workload, 1, scale="smoke")
        prepared = workloads.prepare(workload, inp)
        if workload.kind == "campaign":
            run_campaign(inp, workers=1, out_dir=os.path.join(tmp, workload.name))
        else:
            prepared.run()

    _cli(["--list"])
    _cli(["--scenario", "flash_crowd", "--print-spec"])
    for name in names:
        out = os.path.join(tmp, f"{name}.json")
        _cli(["--scenario", name, "--series", "--out", out], expect=(0, 1))
        with open(out, encoding="utf-8") as fh:
            validate_result_dict(json.load(fh))
    for kind in summary_kinds():
        _cli(["--scenario", "pair_transfer", "--summary", kind])
    _cli(["--scenario", "flash_crowd", "--reconfig", "informed:summary=bloom,scan_budget=8"])
    _cli(["--scenario", "flash_crowd", "--transport",
          "aimd:beta=0.7,bottleneck_rate=8,bottleneck_buffer=16"])
    _cli(["--scenario", "population_flash_crowd", "--fidelity", "packet"])
    _cli(["--scenario", "scale_free_swarm", "--topology", "scale_free:attach=1"])
    _cli(["--scenario", "cdn_catalog", "--catalog", "objects=3,zipf_skew=1.2,priority_tiers=2"])

    spec_file = os.path.join(tmp, "spec.json")
    result_file = os.path.join(tmp, "result.json")
    Path(spec_file).write_text(registry.small_spec("pair_transfer").to_json())
    _cli(["--spec", spec_file, "--out", result_file])
    with open(result_file, encoding="utf-8") as fh:
        validate_result_dict(json.load(fh))

    campaign_file = os.path.join(tmp, "campaign.json")
    campaign_dir = os.path.join(tmp, "campaign-out")
    Path(campaign_file).write_text(small_campaign("pair_transfer").to_json())
    _cli(["--campaign", campaign_file, "--out", campaign_dir])
    _load_campaign(os.path.join(campaign_dir, "campaign.json"))
    _cli(["--campaign", campaign_file, "--out", campaign_dir, "--resume"])
    _load_campaign(os.path.join(campaign_dir, "campaign.json"))
    for name in ("adaptive_overlay", "population_flash_crowd"):
        out = os.path.join(tmp, f"{name}-campaign")
        _cli(["--campaign-scenario", name, "--out", out])
        _load_campaign(os.path.join(out, "campaign.json"))

    # CI's refusals: each is a usage or spec error, exit 2.
    bad_campaign = os.path.join(tmp, "bad-campaign.json")
    Path(bad_campaign).write_text('{"grid": "not-a-grid"}')
    for argv in (
        ["--campaign-scenario", "flash_crowd"],
        ["--scenario", "pair_transfer", "--transport", "open_loop"],
        ["--scenario", "pair_transfer", "--topology", "ring"],
        ["--scenario", "flash_crowd", "--catalog", "objects=2"],
        ["--scenario", "scale_free_swarm", "--topology", "nosuch"],
        ["--scenario", "flash_crowd", "--reconfig", "informed:interval=true"],
        ["--scenario", "cdn_catalog", "--catalog", "zipf_skew=Infinity"],
        ["--scenario", "flash_crowd", "--reconfig", "informed:scan_budget=-1"],
        ["--scenario", "pair_transfer", "--reconfig", "informed"],
        ["--scenario", "population_flash_crowd", "--fidelity", "warp"],
        ["--scenario", "nosuch"],
        ["--scenario", "pair_transfer", "--summary", "nosuch"],
        ["--campaign", bad_campaign],
    ):
        _cli(argv, expect=(2,))


def unreached(hits: Set[Tuple[str, int]]) -> List[Function]:
    # Compare real paths: a code object's filename is whatever sys.path
    # entry imported it, which need not be this file's resolved ROOT.
    real = {name: os.path.realpath(name) for name in {name for name, _ in hits}}
    hit = {(real[name], line) for name, line in hits}
    return [
        fn for fn in functions()
        if (os.path.realpath(fn.path), fn.first) not in hit
        and (os.path.realpath(fn.path), fn.def_line) not in hit
    ]


def report(missed: Sequence[Function], out=sys.stdout) -> None:
    by_module: Dict[str, List[Function]] = {}
    for fn in missed:
        by_module.setdefault(fn.module, []).append(fn)
    for module, fns in by_module.items():
        print(f"{module}  ({sum(fn.lines for fn in fns)} lines)", file=out)
        for fn in fns:
            tag = "  [allowed]" if matching_rows(fn) else ""
            print(f"    {fn.first}-{fn.last}  {fn.qualname}{tag}", file=out)
    print(
        f"unreached: {sum(fn.lines for fn in missed)} lines in {len(missed)} functions",
        file=out,
    )


def check(missed: Sequence[Function], out=sys.stderr) -> List[str]:
    """Every finding that fails the gate (empty: it passes)."""
    findings = []
    total = sum(fn.lines for fn in missed)
    if total > CEILING:
        findings.append(
            f"{total} unreached lines exceed CEILING = {CEILING}: delete "
            "code or run it from a smoke step"
        )
    sole: Dict[int, int] = {}
    for fn in missed:
        rows = matching_rows(fn)
        if not rows:
            findings.append(
                f"{fn.module}:{fn.first} {fn.qualname} is unreached and not "
                "allowed: delete it, or run it from a smoke step"
            )
        elif len(rows) == 1:
            sole[rows[0]] = sole.get(rows[0], 0) + 1
    for i, row in enumerate(ALLOWED):
        if i not in sole:
            findings.append(
                f"ALLOWED[{i}] ({row.module} {row.name}) excuses no unreached "
                "function on its own: remove the row"
            )
    for finding in findings:
        print(finding, file=out)
    return findings


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 on an unlisted unreached function, a row that excuses "
        "nothing, or more unreached lines than CEILING",
    )
    args = parser.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp, traced() as hits:
        drive(tmp)
    missed = unreached(hits)
    report(missed)
    if args.check:
        return 1 if check(missed) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
