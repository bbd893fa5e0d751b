"""``bench compare A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric: both medians and quartiles,
the ratio with its base (B / A), the bound the metric carries and a
verdict.  Following the choosing-metrics guide, a metric whose
run-to-run spread is wider than its bound is ``unresolved`` — neither
"regressed" nor "unchanged" — unless every run of one side beats every
run of the other.
"""

from typing import Any, Dict, List, Mapping, Sequence

from bench.metrics import END_TO_END, FAIL_SHARE, EndToEnd

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"

Row = Dict[str, Any]


def _spread(stats: Mapping[str, Any]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = stats["median"]
    return abs(stats["q3"] - stats["q1"]) / abs(median) if median else 0.0


def _all_better(metric: EndToEnd, winners: Sequence[float], losers: Sequence[float]) -> bool:
    if metric.better == "lower":
        return max(winners) < min(losers)
    return min(winners) > max(losers)


def classify(metric: EndToEnd, base: Mapping[str, Any], new: Mapping[str, Any]) -> Row:
    """The compare row for one metric given both sides' sample summaries."""
    a, b = base["median"], new["median"]
    if metric.better == "lower":
        worsening = (b - a) / abs(a) if a else (1.0 if b > a else 0.0)
    else:
        worsening = (a - b) / abs(a) if a else (1.0 if b < a else 0.0)
    spread = max(_spread(base), _spread(new))
    if spread > metric.bound and metric.bound > 0:
        if _all_better(metric, new["samples"], base["samples"]):
            verdict = OK
        elif _all_better(metric, base["samples"], new["samples"]) and worsening > metric.bound:
            verdict = REGRESSED
        else:
            verdict = UNRESOLVED
    else:
        verdict = REGRESSED if worsening > metric.bound else OK
    return {
        "metric": metric.name,
        "unit": metric.unit,
        "base": {k: base[k] for k in ("median", "q1", "q3", "n")},
        "new": {k: new[k] for k in ("median", "q1", "q3", "n")},
        "ratio_new_over_base": b / a if a else None,
        "spread": spread,
        "bound": metric.bound,
        "verdict": verdict,
    }


def compare(base: Mapping[str, Any], new: Mapping[str, Any]) -> List[Row]:
    """Rows for every workload x metric present in both ledgers."""
    rows: List[Row] = []
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            rows.append({"workload": name, "metric": "(workload)", "verdict": REGRESSED,
                         "note": "missing from the second ledger"})
            continue
        for metric in END_TO_END + (FAIL_SHARE,):
            if metric.name not in a["metrics"] or metric.name not in b["metrics"]:
                rows.append({"workload": name, "metric": metric.name, "verdict": REGRESSED,
                             "note": "not measured on both sides"})
                continue
            row = classify(metric, a["metrics"][metric.name], b["metrics"][metric.name])
            row["workload"] = name
            rows.append(row)
        if a["seed"] == b["seed"]:
            same = a["sim_digest"] == b["sim_digest"]
            rows.append({
                "workload": name, "metric": "sim_digest",
                "verdict": OK if same else REGRESSED,
                "note": "identical" if same else
                f"{str(a['sim_digest'])[:12]} -> {str(b['sim_digest'])[:12]} at seed {a['seed']}",
            })
    return rows


def regressed(rows: Sequence[Row]) -> bool:
    return any(row["verdict"] == REGRESSED for row in rows)


def format_rows(rows: Sequence[Row]) -> str:
    header = (
        f"{'workload':15s} {'metric':15s} {'unit':6s} "
        f"{'A median [q1, q3] n':>34s} {'B median [q1, q3] n':>34s} "
        f"{'B/A':>7s} {'spread':>7s} {'bound':>6s} verdict"
    )
    lines = [header, "-" * len(header)]

    def side(s: Mapping[str, Any]) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}"

    for row in rows:
        if "base" not in row:
            lines.append(
                f"{row['workload']:15s} {row['metric']:15s} {'':6s} "
                f"{row.get('note', ''):>69s} {'':>22s} {row['verdict']}"
            )
            continue
        ratio = row["ratio_new_over_base"]
        lines.append(
            f"{row['workload']:15s} {row['metric']:15s} {row['unit']:6s} "
            f"{side(row['base']):>34s} {side(row['new']):>34s} "
            f"{'-' if ratio is None else format(ratio, '.3f'):>7s} "
            f"{row['spread']:7.3f} {row['bound']:6.2f} {row['verdict']}"
        )
    return "\n".join(lines)
