"""Figure 5-8 reproductions: delivery-strategy simulations.

Every figure is now one :class:`~repro.campaign.CampaignSpec` grid
(correlation x strategy, replicated over trial seeds) run through the
parallel campaign engine — the same pipeline the CLI's ``--campaign``
flag drives.  ``run_fig5(workers=4)`` fans the sweep out over worker
processes; a figure's campaign can be recovered with
:func:`fig5_campaigns` / :func:`fig6_campaigns` /
:func:`fig78_campaigns`, serialised with ``campaign.to_json()``, and
replayed bit-identically anywhere (per-cell seeds derive from the
sweep seed via :func:`repro.seeding.derive_seed`, never Python's
randomised ``hash()``).  A single point is the campaign's base spec
with the cell's correlation, strategy and seed set.

Shared conventions (Section 6.3):

* Correlation is ``|A ∩ B| / |B|`` (receiver A, sender B).
* "Compact" systems hold 1.1n distinct symbols, "stretched" 1.5n.
* All senders transmit at equal unit rates.
* The receiver asks each sender for its share of the deficit plus a
  margin covering decoding overhead (Section 6.1: "the receiver may
  specify the number of symbols desired from each sender with
  appropriate allowances for decoding overhead").
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.api import ExperimentSpec, specs
from repro.api.spec import Bound, check_value
from repro.campaign import CampaignSpec, GridAxis, run_campaign
from repro.delivery import STRATEGY_NAMES
from repro.delivery.scenarios import (
    COMPACT_MULTIPLIER,
    STRETCHED_MULTIPLIER,
    max_pair_correlation,
)
from repro.delivery.strategies import DEFAULT_DESIRED_MARGIN

#: Receiver's request margin over an even deficit split (decoding
#: overhead allowance plus slack for sender-domain overlap) — the one
#: constant the spec constructors also default to.
DESIRED_MARGIN = DEFAULT_DESIRED_MARGIN

#: Default experiment scale.  The paper simulates ~24k-block files; the
#: overhead/speedup ratios are scale-free above ~1k symbols, so the
#: default keeps the whole suite fast.  Benchmarks can raise it.
DEFAULT_TARGET = 1_000
DEFAULT_TRIALS = 3


@dataclass
class DeliveryPoint:
    """One (strategy, correlation) sample of a delivery figure."""

    figure: str
    scenario: str  # "compact" or "stretched"
    strategy: str
    correlation: float
    value: float  # overhead (fig 5), speedup (fig 6), relative rate (7/8)
    completed_fraction: float
    #: Each replicate seed's value in trial order (NaN where that cell
    #: did not complete); ``value`` is the mean of the completed ones.
    seeds: Tuple[float, ...] = ()


def _check_points(where: str, correlation_points: int) -> None:
    """A curve needs two correlations: its ends are 0 and the cap."""
    check_value(f"{where}.correlation_points", correlation_points, int, Bound(ge=2))


def _correlations(multiplier: float, count: int) -> List[float]:
    """Evenly spaced achievable correlations for a pair scenario."""
    cap = max_pair_correlation(multiplier) * 0.95
    return [cap * i / (count - 1) for i in range(count)]


def _scenario_name(multiplier: float) -> str:
    return "compact" if multiplier <= 1.2 else "stretched"


#: The grid axes every delivery figure sweeps (x-axis and legend).
_CORR_AXIS = "params.correlation"
_STRATEGY_AXIS = "strategy.name"


def _figure_campaign(
    name: str,
    base: ExperimentSpec,
    correlations: Sequence[float],
    strategies: Sequence[str],
    trials: int,
) -> CampaignSpec:
    """One figure panel as a campaign: correlation x strategy x trials."""
    return CampaignSpec(
        base=base,
        grid=(
            GridAxis(_CORR_AXIS, tuple(correlations)),
            GridAxis(_STRATEGY_AXIS, tuple(strategies)),
        ),
        seeds=trials,
        name=name,
    )


def _campaign_points(
    figure: str, multiplier: float, campaign: CampaignSpec, metric: str, workers: int
) -> List[DeliveryPoint]:
    """Run one panel's campaign and fold its cells into figure points."""
    result = run_campaign(campaign, workers=workers)
    points: List[DeliveryPoint] = []
    groups = result.cell_groups(_CORR_AXIS, _STRATEGY_AXIS)
    for corr in campaign.axis(_CORR_AXIS).values:
        for name in campaign.axis(_STRATEGY_AXIS).values:
            cells = groups[(corr, name)]
            value = result.mean_metric(cells, metric)
            seeds = [
                c.metric(metric) if c.completed else None
                for c in sorted(cells, key=lambda c: c.trial)
            ]
            points.append(
                DeliveryPoint(
                    figure=figure,
                    scenario=_scenario_name(multiplier),
                    strategy=name,
                    correlation=corr,
                    value=value if value is not None else math.nan,
                    completed_fraction=sum(c.completed for c in cells) / len(cells),
                    seeds=tuple(math.nan if v is None else v for v in seeds),
                )
            )
    return points


def fig5_campaigns(
    target: int = DEFAULT_TARGET,
    trials: int = DEFAULT_TRIALS,
    correlation_points: int = 6,
    strategies: Sequence[str] = STRATEGY_NAMES,
    seed: int = 7,
) -> Dict[float, CampaignSpec]:
    """Figure 5's two panels (by distinct-multiplier) as campaign grids."""
    _check_points("fig5_campaigns", correlation_points)
    return {
        multiplier: _figure_campaign(
            f"fig5-{_scenario_name(multiplier)}",
            specs.pair_transfer(target=target, multiplier=multiplier, seed=seed),
            _correlations(multiplier, correlation_points),
            strategies,
            trials,
        )
        for multiplier in (COMPACT_MULTIPLIER, STRETCHED_MULTIPLIER)
    }


def fig6_campaigns(
    target: int = DEFAULT_TARGET,
    trials: int = DEFAULT_TRIALS,
    correlation_points: int = 6,
    strategies: Sequence[str] = STRATEGY_NAMES,
    seed: int = 11,
) -> Dict[float, CampaignSpec]:
    """Figure 6's two panels as campaign grids."""
    _check_points("fig6_campaigns", correlation_points)
    return {
        multiplier: _figure_campaign(
            f"fig6-{_scenario_name(multiplier)}",
            specs.pair_transfer(
                target=target,
                multiplier=multiplier,
                seed=seed,
                full_senders=1,
                desired_margin=DESIRED_MARGIN,
            ),
            _correlations(multiplier, correlation_points),
            strategies,
            trials,
        )
        for multiplier in (COMPACT_MULTIPLIER, STRETCHED_MULTIPLIER)
    }


def fig78_campaigns(
    num_senders: int,
    target: int = DEFAULT_TARGET,
    trials: int = DEFAULT_TRIALS,
    correlation_points: int = 6,
    strategies: Sequence[str] = STRATEGY_NAMES,
    max_correlation: float = 0.5,
    seed: int = 13,
) -> Dict[float, CampaignSpec]:
    """Figure 7/8's two panels (``num_senders`` partial senders) as grids."""
    if num_senders < 1:
        raise ValueError("need at least one sender")
    _check_points("fig78_campaigns", correlation_points)
    corrs = [
        max_correlation * i / (correlation_points - 1)
        for i in range(correlation_points)
    ]
    return {
        multiplier: _figure_campaign(
            f"fig78-{num_senders}s-{_scenario_name(multiplier)}",
            specs.multi_sender_transfer(
                target=target,
                multiplier=multiplier,
                num_senders=num_senders,
                seed=seed,
                desired_margin=DESIRED_MARGIN,
            ),
            corrs,
            strategies,
            trials,
        )
        for multiplier in (COMPACT_MULTIPLIER, STRETCHED_MULTIPLIER)
    }


def run_fig5(
    target: int = DEFAULT_TARGET,
    trials: int = DEFAULT_TRIALS,
    correlation_points: int = 6,
    strategies: Sequence[str] = STRATEGY_NAMES,
    seed: int = 7,
    workers: int = 1,
) -> List[DeliveryPoint]:
    """Figure 5: overhead of peer-to-peer transfers vs correlation."""
    points: List[DeliveryPoint] = []
    campaigns = fig5_campaigns(target, trials, correlation_points, strategies, seed)
    for multiplier, campaign in campaigns.items():
        points += _campaign_points("5", multiplier, campaign, "overhead", workers)
    return points


def run_fig6(
    target: int = DEFAULT_TARGET,
    trials: int = DEFAULT_TRIALS,
    correlation_points: int = 6,
    strategies: Sequence[str] = STRATEGY_NAMES,
    seed: int = 11,
    workers: int = 1,
) -> List[DeliveryPoint]:
    """Figure 6: speedup of full + partial sender over full sender alone."""
    points: List[DeliveryPoint] = []
    campaigns = fig6_campaigns(target, trials, correlation_points, strategies, seed)
    for multiplier, campaign in campaigns.items():
        points += _campaign_points("6", multiplier, campaign, "speedup", workers)
    return points


def run_fig78(
    num_senders: int,
    target: int = DEFAULT_TARGET,
    trials: int = DEFAULT_TRIALS,
    correlation_points: int = 6,
    strategies: Sequence[str] = STRATEGY_NAMES,
    max_correlation: float = 0.5,
    seed: int = 13,
    workers: int = 1,
) -> List[DeliveryPoint]:
    """Figures 7 (2 senders) and 8 (4 senders): parallel partial senders.

    Relative rate is measured against a single full sender (one useful
    symbol per round).
    """
    figure = "7" if num_senders == 2 else "8" if num_senders == 4 else f"7/8({num_senders})"
    points: List[DeliveryPoint] = []
    campaigns = fig78_campaigns(
        num_senders, target, trials, correlation_points, strategies,
        max_correlation, seed,
    )
    for multiplier, campaign in campaigns.items():
        points += _campaign_points(figure, multiplier, campaign, "speedup", workers)
    return points


def series_by_strategy(
    points: Sequence[DeliveryPoint], scenario: str
) -> Dict[str, List[DeliveryPoint]]:
    """Group figure points into per-strategy series for one scenario."""
    out: Dict[str, List[DeliveryPoint]] = {}
    for p in points:
        if p.scenario == scenario:
            out.setdefault(p.strategy, []).append(p)
    for series in out.values():
        series.sort(key=lambda p: p.correlation)
    return out
