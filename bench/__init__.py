"""bench — the repo's performance ledger.

Four whole-scenario workloads measured end to end with tracing off
(``python -m bench run``), the same workloads re-run under an
outside-in layer trace plus fixed-input layer probes
(``python -m bench trace``), and a comparison of two ledgers
(``python -m bench compare A.json B.json``).  ``BENCHMARK.json`` at the
repo root declares the workloads and metrics; ``bench/README.md``
explains why each was chosen and how they interact.

The end-to-end path imports only ``repro.api`` and ``repro.campaign``;
everything that reaches below that surface lives in
:mod:`bench.probes` and :mod:`bench.phases` and resolves its targets at
run time, so a layer that is renamed or deleted turns into a ``null``
metric with a reason instead of a broken benchmark.
"""

import os
import sys

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def add_src_to_path() -> None:
    """Make the src-layout ``repro`` package importable."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
