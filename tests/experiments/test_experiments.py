"""Argument handling of the figure/table regenerators.

What the runners measure is judged by the claims table
(``tests/experiments/test_claims.py``); these tests pin what they refuse.
"""

import pytest

from repro.experiments import (
    fig78_campaigns,
    run_coding_stats,
    run_fig4a,
    run_fig4b,
    run_fig4c,
    run_fig5,
    run_fig6,
    run_fig78,
    run_sketch_accuracy,
)
from repro.experiments.fig4 import best_leaf_split


class TestFig4:
    def test_fig4a_best_split(self):
        pts = run_fig4a(
            set_size=1000, differences=30, trials=1,
            leaf_bit_choices=(2, 6), corrections=(5,),
        )
        assert best_leaf_split(pts, correction=5) in (2, 6)
        with pytest.raises(ValueError):
            best_leaf_split(pts, correction=99)


class TestFig5678:
    def test_fig78_validates_sender_count(self):
        with pytest.raises(ValueError):
            run_fig78(num_senders=0)


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: run_fig5(correlation_points=1), "correlation_points"),
        (lambda: run_fig6(correlation_points=1), "correlation_points"),
        (lambda: fig78_campaigns(2, correlation_points=1), "correlation_points"),
        (lambda: run_fig4a(trials=0), "trials"),
        (lambda: run_fig4b(trials=0), "trials"),
        (lambda: run_fig4c(trials=0), "trials"),
        (lambda: run_coding_stats(trials=0), "trials"),
        (lambda: run_sketch_accuracy(trials=0), "trials"),
        (lambda: run_fig4c(differences=0), "differences"),
        # B would hold only the 50 extra keys: not "same size, d each way".
        (lambda: run_fig4a(set_size=20, differences=50), "differences"),
    ],
    ids=[
        "fig5-one-correlation",
        "fig6-one-correlation",
        "fig78-one-correlation",
        "fig4a-no-trials",
        "fig4b-no-trials",
        "fig4c-no-trials",
        "coding-no-trials",
        "sketches-no-trials",
        "fig4c-no-differences",
        "fig4a-more-differences-than-elements",
    ],
)
def test_degenerate_arguments_are_refused_by_name(call, argument):
    with pytest.raises(ValueError, match=argument):
        call()
