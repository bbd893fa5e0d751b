"""Experiment runners regenerating every table and figure in the paper.

Each runner returns plain dataclasses with the same rows/series the paper
reports.  Which of the paper's claims they reproduce, at which scale, is
one table: :data:`repro.experiments.claims.CLAIMS` (printed by
``examples/reproduce_paper.py``).

* :mod:`repro.experiments.claims` — the claims table and its evaluation.
* :mod:`repro.experiments.fig4` — ART accuracy (Figure 4a, 4b, 4c).
* :mod:`repro.experiments.fig5678` — delivery simulations (Figures 5-8).
* :mod:`repro.experiments.coding_stats` — Section 6.1 code parameters.
* :mod:`repro.experiments.sketch_accuracy` — Section 4 sketch quality.
"""

from repro.experiments.fig4 import (
    ARTAccuracyPoint,
    run_fig4a,
    run_fig4b,
    run_fig4c,
)
from repro.experiments.fig5678 import (
    DeliveryPoint,
    fig5_campaigns,
    fig6_campaigns,
    fig78_campaigns,
    run_fig5,
    run_fig6,
    run_fig78,
)
from repro.experiments.coding_stats import CodingStats, run_coding_stats
from repro.experiments.sketch_accuracy import SketchAccuracy, run_sketch_accuracy

__all__ = [
    "ARTAccuracyPoint",
    "run_fig4a",
    "run_fig4b",
    "run_fig4c",
    "DeliveryPoint",
    "fig5_campaigns",
    "fig6_campaigns",
    "fig78_campaigns",
    "run_fig5",
    "run_fig6",
    "run_fig78",
    "CodingStats",
    "run_coding_stats",
    "SketchAccuracy",
    "run_sketch_accuracy",
]
