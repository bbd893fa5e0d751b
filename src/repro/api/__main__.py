"""Command-line experiment runner: ``python -m repro.api``.

Usage::

    python -m repro.api --list
    python -m repro.api --spec flash_crowd.json [--out result.json]
    python -m repro.api --scenario flash_crowd --seed 7
    python -m repro.api --scenario flash_crowd --print-spec > spec.json
    python -m repro.api --campaign sweep.json --workers 4 --out dir
    python -m repro.api --campaign sweep.json --workers 4 --out dir --resume
    python -m repro.api --campaign-scenario pair_transfer --print-spec

``--spec`` runs a JSON :class:`~repro.api.ExperimentSpec` from disk;
``--scenario`` runs a registered scenario's miniature spec (a quick
smoke / template).  ``--campaign`` runs a JSON
:class:`~repro.campaign.CampaignSpec` sweep through the parallel
campaign engine (``--workers`` processes, per-cell results plus
``campaign.json`` under ``--out``, ``--resume`` to pick up an
interrupted sweep).  Results print as the shared
:data:`~repro.api.RESULT_SCHEMA` /
:data:`~repro.campaign.CAMPAIGN_RESULT_SCHEMA` JSON, so CLI output,
benchmark dumps, and ``to_json`` are one format.

``--out`` never silently clobbers: an existing result file (or a
directory with a finished campaign) is refused unless ``--force`` —
or, for campaigns, ``--resume`` — is passed.

``--profile [FILE]`` wraps the run (single or campaign) in cProfile
and dumps pstats next to ``--out`` when no explicit path is given —
feed the dump to ``python -m pstats`` to find the hot path.
"""

import argparse
import cProfile
import dataclasses
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.api import registry, run
from repro.api.output import prepare_out_file
from repro.api.spec import (
    COMPONENTS,
    ExperimentSpec,
    ParamsSpec,
    SpecError,
    component_def,
    contract,
    nested_specs,
    read_json,
)
from repro.reconcile import SummaryError


def _parse_kv_params(tail: str, flag: str) -> dict:
    """``key=val,...`` -> dict.

    Values parse as JSON scalars where possible (``8`` -> int,
    ``0.5`` -> float, ``true`` -> bool) and stay strings otherwise.
    Malformed input raises :class:`SpecError` (CLI exit status 2).
    """
    params = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise SpecError(
                    f"{flag} parameter {item!r} is not of the form param=val"
                )
            value = value.strip()
            try:
                params[key] = read_json(f"{flag} parameter {key!r}", value)
            except SpecError as exc:
                # Not JSON at all: the bare word is the value.  Anything
                # else (nesting past the parser's limit) is refused.
                if not isinstance(exc.__cause__, json.JSONDecodeError):
                    raise
                params[key] = value
    return params


def parse_component_arg(name: str, text: str) -> Any:
    """Parse a component flag's ``KIND[:key=val,...]`` into its spec.

    ``name`` is a registered component (:data:`~repro.api.spec.
    COMPONENTS`): ``KIND`` fills its selector field (a component with no
    selector, the catalog, takes only ``key=val,...``).  Each key is
    routed by one rule: a scalar field of the component's spec class
    sets that field; a nested spec field (reconfig's ``summary=``)
    names the nested spec's kind and ``summary.x`` its params; any other
    key is a param when the class has ``params``, and a
    :class:`SpecError` (CLI exit status 2) when it has not.  Examples::

        --reconfig informed:summary=bloom,summary.bits_per_element=8,scan_budget=16
        --catalog objects=6,zipf_skew=1.2,priority_tiers=3
    """
    comp = component_def(name)
    flag = f"--{name}"
    fields: Dict[str, Any] = {}
    if comp.kind_field:
        kind, _, text = text.partition(":")
        if not kind.strip():
            raise SpecError(f"{flag} needs a {comp.kind_field} before ':'")
        fields[comp.kind_field] = kind.strip()
    scalars = {row.name for row in contract(comp.cls)
               if row.type in (int, float, str, bool)} - {comp.kind_field}
    nested = nested_specs(comp.cls)
    inner: Dict[str, Dict[str, Any]] = {key: {} for key in nested}
    params: Dict[str, Any] = {}
    for key, value in _parse_kv_params(text, flag).items():
        head, dot, sub = key.partition(".")
        if key in scalars:
            fields[key] = value
        elif head in nested:
            inner[head][sub if dot else "kind"] = value
        elif issubclass(comp.cls, ParamsSpec):
            params[key] = value
        else:
            raise SpecError(
                f"{flag}: {comp.cls.__name__} has no field {key!r} "
                f"(fields: {sorted(scalars | set(nested))})"
            )
    for head, given in inner.items():
        if given:
            if "kind" not in given:
                raise SpecError(f"{flag} {head}.* parameters need {head}=<kind>")
            kind = given.pop("kind")
            fields[head] = nested[head](kind=kind, params=given)
    if params:
        fields["params"] = params
    return comp.cls(**fields)


#: Help examples for the component flags: one flag per
#: :data:`~repro.api.spec.COMPONENTS` entry, parsed by
#: :func:`parse_component_arg`.
_COMPONENT_EXAMPLES = {
    "summary": "'bloom', 'art:bits_per_element=16,correction=2', 'cpi:max_discrepancy=128'",
    "reconfig": (
        "'static', 'random:interval=10', "
        "'informed:summary=bloom,summary.bits_per_element=8,scan_budget=16'"
    ),
    "transport": (
        "'open_loop', 'aimd:beta=0.7,bottleneck_rate=12,bottleneck_buffer=32'"
    ),
    "topology": (
        "'scale_free:attach=2', 'cdn_tiers:tiers=3,fanout=4', 'ring' "
        "(topology-aware scenarios only)"
    ),
    "catalog": "'objects=4,zipf_skew=1.2,priority_tiers=2' (catalog-aware scenarios only)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="Run a declarative experiment spec through repro.api.run().",
        epilog=(
            "exit status: 0 = ran and completed; 1 = ran but did not reach "
            "completion (a legitimate outcome for some sweeps — the result "
            "is still printed/written); 2 = usage or spec error"
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--spec", metavar="FILE", help="path to an ExperimentSpec JSON file"
    )
    source.add_argument(
        "--scenario",
        metavar="NAME",
        help="run a registered scenario's miniature spec",
    )
    source.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    source.add_argument(
        "--campaign",
        metavar="FILE",
        help="path to a CampaignSpec JSON file: run the whole sweep",
    )
    source.add_argument(
        "--campaign-scenario",
        metavar="NAME",
        help="run a registered scenario's miniature campaign grid",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the spec's master seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="campaign worker processes (1 = in-process, identical to serial)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="campaigns: reuse valid cell files already in the --out directory",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing --out file / finished campaign directory",
    )
    for name, comp in COMPONENTS.items():
        kind = comp.kind_field.upper()
        parser.add_argument(
            f"--{name}",
            metavar=f"{kind}[:KEY=VAL,...]" if kind else "KEY=VAL[,...]",
            help=f"override the spec's {name} selection, e.g. {_COMPONENT_EXAMPLES[name]}",
        )
    parser.add_argument(
        "--fidelity",
        metavar="NAME",
        help=(
            "override the spec's simulation fidelity: 'packet' (default) or "
            "'flow' (population-scale rate equations; population scenarios)"
        ),
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the result JSON here instead of stdout"
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        nargs="?",
        const="",
        default=None,
        help=(
            "profile the run under cProfile and dump pstats; without a "
            "value the dump lands next to --out (<out>.pstats, or "
            "profile.pstats inside a campaign directory), else "
            "profile.pstats in the working directory.  Campaign cells "
            "are covered when --workers=1 (in-process); worker "
            "subprocesses are not profiled"
        ),
    )
    parser.add_argument(
        "--series",
        action="store_true",
        help="include the full time-series rows in the result JSON",
    )
    parser.add_argument(
        "--print-spec",
        action="store_true",
        help="print the resolved spec JSON and exit without running",
    )
    return parser


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    """``spec`` with the CLI's seed / component / fidelity
    overrides applied (the same object back when none is given)."""
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    for name in COMPONENTS:
        text = getattr(args, name)
        if text:
            spec = spec.with_component_spec(name, parse_component_arg(name, text))
    # with_override validates the value (unknown fidelity -> SpecError
    # -> exit status 2), unlike a bare dataclasses.replace.
    if args.fidelity:
        spec = spec.with_override("measurement.fidelity", args.fidelity)
    return spec


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    if args.spec:
        spec = ExperimentSpec.from_dict(read_json("spec", path=args.spec))
    else:
        spec = registry.small_spec(args.scenario)
    return _apply_overrides(spec, args)


def _load_campaign(args: argparse.Namespace):
    """Resolve the CLI's campaign source, with the overrides on its base."""
    from repro.campaign import campaign_spec_from_file, small_campaign

    if args.campaign:
        campaign = campaign_spec_from_file(args.campaign)
    else:
        # A scenario without a registered miniature grid has no
        # campaign to run — refuse loudly rather than sweep nothing.
        campaign = small_campaign(args.campaign_scenario, require_grid=True)
    base = _apply_overrides(campaign.base, args)
    if base is not campaign.base:
        campaign = dataclasses.replace(campaign, base=base)
    return campaign


def _resolve_profile_path(
    profile: Optional[str], out: Optional[str], campaign: bool
) -> Optional[str]:
    """Where ``--profile`` dumps its pstats, or None when not profiling.

    An explicit path wins; a bare ``--profile`` lands next to ``--out``
    (``<out>.pstats`` for a result file, ``profile.pstats`` inside a
    campaign directory) and falls back to ``profile.pstats`` in the
    working directory when there is no ``--out``.
    """
    if profile is None:
        return None
    if profile:
        return profile
    if out:
        if campaign:
            return os.path.join(out, "profile.pstats")
        root, _ = os.path.splitext(out)
        return root + ".pstats"
    return "profile.pstats"


def _maybe_profiled(call: Callable[[], Any], path: Optional[str]) -> Any:
    """Run ``call`` — under cProfile, dumping to ``path``, when set.

    The dump happens even when the run raises (a profile of the work up
    to the failure is exactly what a hung-run investigation needs).
    """
    if path is None:
        return call()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return call()
    finally:
        profiler.disable()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        profiler.dump_stats(path)
        print(f"wrote profile {path}", file=sys.stderr)


def _campaign_main(args: argparse.Namespace) -> int:
    """The ``--campaign`` / ``--campaign-scenario`` CLI path."""
    from repro.campaign import run_campaign

    try:
        campaign = _load_campaign(args)
        if args.print_spec:
            print(campaign.to_json())
            return 0
        result = _maybe_profiled(
            lambda: run_campaign(
                campaign,
                workers=args.workers,
                out_dir=args.out,
                resume=args.resume,
                force=args.force,
                include_series=args.series,
            ),
            _resolve_profile_path(args.profile, args.out, campaign=True),
        )
    except (SpecError, registry.UnknownScenarioError, SummaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    label = campaign.name or campaign.base.scenario
    for cell in result.failures:
        print(f"cell {cell.cell_id} failed: {cell.error}", file=sys.stderr)
    if args.out:
        print(
            f"campaign {label}: cells={result.n_cells} ok={result.n_ok} "
            f"completed={result.n_completed} failed={result.n_failed}"
            f"\nwrote {args.out}"
        )
    else:
        print(result.to_json())
    return 0 if result.n_failed == 0 and result.n_completed == result.n_cells else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        # The markers say what each entry can drive: [spec] a miniature
        # --scenario run, [spec+grid] additionally a --campaign-scenario
        # sweep, [-] registered but with no miniature spec; the braces
        # hold the declared consumption build() enforces (peer groups |
        # optional spec sections).
        for name in registry.names():
            entry = registry.get(name)
            if entry.small_spec is None:
                tag = "-"
            elif entry.small_grid is not None:
                tag = "spec+grid"
            else:
                tag = "spec"
            groups = ",".join(entry.groups) or "-"
            sections = " ".join(sorted(entry.supports)) or "-"
            print(
                f"{name:26s} [{tag:9s}] {{{groups} | {sections}}} "
                f"{entry.description}"
            )
        return 0
    if args.campaign or args.campaign_scenario:
        return _campaign_main(args)
    if not args.spec and not args.scenario:
        parser.print_usage(sys.stderr)
        print(
            "error: one of --spec, --scenario, --campaign, "
            "--campaign-scenario, or --list is required",
            file=sys.stderr,
        )
        return 2

    try:
        spec = _load_spec(args)
        if args.print_spec:
            print(spec.to_json())
            return 0
        if args.out:
            # Guard before spending the run: parents created, existing
            # results refused unless --force.
            prepare_out_file(args.out, force=args.force)
        result = _maybe_profiled(
            lambda: run(spec),
            _resolve_profile_path(args.profile, args.out, campaign=False),
        )
    except (SpecError, registry.UnknownScenarioError, SummaryError) as exc:
        # SummaryError: a summary operation its structure cannot support
        # (e.g. a kind/strategy combination with no information to act on).
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = result.to_json(include_series=args.series)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        metrics = ", ".join(
            f"{k}={v:g}" for k, v in sorted(result.metrics.items())
        )
        print(
            f"{result.scenario} seed={result.seed} "
            f"completed={result.completed} {metrics}\nwrote {args.out}"
        )
    else:
        print(payload)
    return 0 if result.completed else 1


if __name__ == "__main__":
    sys.exit(main())
