#!/usr/bin/env python3
"""Which of the paper's claims does this repository reproduce?

Evaluates every row of ``repro.experiments.claims.CLAIMS`` and prints
one line per claim: section · id · statement · paper · ours · verdict.
A verdict reads "holds k/n": the Figure 5-8 rows are judged on each of
the campaign's replicate seeds, every other row once.  Pass --fast for
a quick smoke run, --full for publication-scale sizes.

Run:  python examples/reproduce_paper.py [--fast|--full] [--workers N]
"""

import argparse
import math
import os
import sys
import time

from repro.experiments.claims import evaluate


def fmt(value):
    """A measured value as the table prints it."""
    if isinstance(value, tuple):
        return " / ".join(fmt(v) for v in value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float) and not math.isnan(value):
        return f"{value:.3f}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smoke-test sizes")
    parser.add_argument("--full", action="store_true", help="publication sizes")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="campaign worker processes for the figure sweeps "
             "(default: the machine's core count)",
    )
    args = parser.parse_args(argv)
    scale = "full" if args.full else "fast" if args.fast else "default"
    start = time.time()
    verdicts = evaluate(scale, workers=args.workers or (os.cpu_count() or 1))
    for v in verdicts:
        c = v.claim
        verdict = "holds" if v.holds else "FAILS"
        print(f"{c.section:8s} {c.id:42s} {c.statement} · paper {c.paper} · "
              f"ours {fmt(v.ours)} · {verdict} {v.held}/{v.seeds} ({v.seconds:.2f}s)")
    held = sum(v.holds for v in verdicts)
    print(f"\n{held} of {len(verdicts)} claims hold in every seed at {scale} "
          f"scale; evaluated in {time.time() - start:.1f}s.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
