"""What a simplification PR deleted stays deleted.

One row per guard: a regular expression, the paths under the repo root
it is searched in (``*.py`` files unless the row names other globs, so a
stale ``__pycache__`` never matches), and the PR that removed the last
match.  A row may name files to skip and the number of matching lines
that is right.  Deleted files and directories are listed once, in
``DELETED_PATHS``.  These were per-PR ``grep`` steps in CI; as a tier-1
test they also run locally and in the no-numpy lane.
"""

import inspect
import re
from pathlib import Path
from typing import NamedTuple, Sequence

import pytest

ROOT = Path(__file__).resolve().parents[2]
THIS_FILE = "tests/tooling/test_deleted_forks.py"
EVERYWHERE = ["src", "tests", "bench", "examples", "README.md"]


class Guard(NamedTuple):
    pr: int
    what: str  # ... must not grow back
    pattern: str
    paths: Sequence[str]
    skipped: Sequence[str] = ()
    matches: int = 0
    globs: Sequence[str] = ("*.py",)


GUARDS = [
    Guard(15, "a policy-less summary fork",
     r"summary_policy( is |=)None|receiver_filter|_bloom_missing", ["src"]),
    Guard(16, "a per-packet copy of the known set",
     r"set\([^()]*\.ids\)|len\([^()]*known_ids\)", ["src"]),
    Guard(17, "a second calling-card path or a family coercion",
     r"sketch_family|default_family|from_family|estimated_usefulness_of"
     r"|SummaryScheme\.coerce|minwise_sketch|modk_sketch|random_sample_sketch"
     r"|bloom_summary", ["src"]),
    Guard(17, "a second min-wise or Bloom home beside repro.reconcile",
     r"repro\.sketches|repro\.filters", ["src", "examples"]),
    Guard(19, "a node, simulator or catalog stamp cache",
     r"_StampedCache|_receiver_summaries|receiver_summary|_wanted_cache"
     r"|_card_keys|summary_card", ["src"]),
    Guard(20, "a second substitution-rule ripple",
     r"_ripple|_drop_pending|_pending_neighbours", ["src/repro/coding/decoder.py"]),
    Guard(20, "a receiver holding its ids twice",
     r"known_ids=(node\.working_set|self\.working_set|self\.symbols)", ["src"]),
    Guard(22, "a usefulness memo, card matrix or second epoch loop",
     r"set_memo|card_matrix|_MinwiseCardMatrix|prefill|_rewire_all", ["src"]),
    Guard(22, "array code outside the card",
     r"\bnp\.|_numpy\(",
     ["src/repro/overlay", "src/repro/flow", "src/repro/delivery/orchestrator.py"]),
    Guard(23, "a boxed or second copy of a min-wise card",
     r"_int64_row|int\(v\) for v in", ["src/repro/reconcile", "src/repro/hashing"]),
    Guard(24, "a second transmission type or its field names",
     r"RecodedSymbol|encoded_id|recoded_ids|delivery[./]packets", ["src"]),
    Guard(24, "a second is_recoded dispatch beside RecodedPeeler.receive",
     r"\.is_recoded\b", ["src/repro"],
     ["src/repro/coding/symbol.py", "src/repro/protocol/messages.py"], 1),
    Guard(24, "a hand-rolled send-accounting step or credit meter",
     r"_schedule_ack|_transport_step|packets_this_tick|_legacy_credit", ["src"]),
    Guard(25, "a set-copy ground truth or a kept shuffle in the flow engine",
     r"containment_in|\.difference\(|_object_perms",
     ["src/repro/flow", "src/repro/delivery/working_set.py"]),
    Guard(26, "a per-field check beside the one field contract",
     r"_require_int|_require_finite", ["src"]),
    Guard(26, "a per-component CLI flag parser",
     r"def parse_(summary|reconfig|transport|topology|catalog)_arg|_TRANSPORT_FIELDS",
     ["src/repro/api/__main__.py"]),
    Guard(26, "a scenario param read around its declaration",
     r"(int|float)\(spec\.param\(", ["src/repro/api"]),
    Guard(27, "the second benchmark harness's knobs, schema or JSON writer",
     r"REPRO_BENCH_|bench_meta|write_bench_json",
     ["src", "tests", "bench", "examples", "scripts", ".github"],
     [THIS_FILE], globs=("*.py", "*.yml")),
    Guard(27, "a paper value table beside the claims table",
     r"PAPER_FIG4B|PAPER_TABLE", ["src", "tests", "bench", "examples", "scripts"],
     ["src/repro/experiments/claims.py", THIS_FILE]),
    Guard(28, "a second simulator assembly beside _build_swarm",
     r"_base_simulator", ["src", "tests", "bench"], [THIS_FILE]),
    Guard(28, "a hand-rolled OverlaySimulator (the one is in _build_swarm)",
     r"OverlaySimulator\(", ["src/repro/api"], matches=1),
    Guard(28, "a hand-rolled SimScenario (the one is in _build_swarm)",
     r"SimScenario\(", ["src/repro/api"], matches=1),
    Guard(28, "a copied mirror-halves shuffle (the one is _mirror_halves)",
     r"list\(range\(distinct\)\)", ["src/repro/api"], matches=1),
    Guard(29, "a construction-RNG exception to a fresh strategy (renew() replays)",
     r"construction_drew_rng", ["src", "tests", "bench"], [THIS_FILE]),
    Guard(30, "a delivery pass or refresh that polls every connection",
     r"for (conn|key, conn) in list\(self\.connections\.(values|items)\(\)\)",
     ["src/repro/overlay/simulator.py"]),
    Guard(31, "a memo or per-epoch table stored on a scheme or policy",
     r"self\.\w*(memo|table|epoch)\w*\s*(:[^=]*)?=(?!=)",
     ["src/repro/overlay/reconfiguration.py", "src/repro/overlay/catalog.py"]),
    Guard(32, "a second class beside a summary kind's one",
     r"ModKSketch|RandomSampleSketch|CountingBloomFilter|PartitionedBloomFilter"
     r"|PartitionedSummaryStream|CPISketch|ApproximateReconciliationTree"
     r"|whole_set_difference",
     ["src", "tests", "examples", "bench"], [THIS_FILE]),
    Guard(33, "a second recoding draw (the one is repro.coding.Recoder)",
     r"recoding_soliton\(|DegreeDistribution\.recoding\b|shifted_for_correlation"
     r"|int\([^()]*/\s*\(1(\.0)?\s*-",
     ["src"], ["src/repro/coding/recode.py"], matches=1),
    Guard(35, "a policy's own calling card (the one is CALLING_CARD)",
     r"card_kind|card_params|build_card", ["src"]),
    Guard(36, "an RNG draw beside repro.seeding's (sample, shuffle, randbelow, choice)",
     r"rng\.(sample|shuffle|randrange|randint|choice)\(", ["src"],
     ["src/repro/seeding.py"]),
    Guard(36, "bloom_index_rows (nothing called it; bloom_index_matrix is the kernel)",
     r"bloom_index_rows", ["src", "tests", "bench", "examples"], [THIS_FILE]),
    Guard(41, "the peer's own blend draw (a session sends its strategy's packets)",
     r"\brecoded_data", ["src", "tests", "bench", "examples"], [THIS_FILE]),
    Guard(41, "a scan of the whole domain per packet (the session counts what is unheld)",
     r"_domain_exhausted", ["src", "tests", "bench", "examples"], [THIS_FILE]),
    Guard(41, "a peer RNG (a peer draws nothing it sends)",
     r"self\.rng\b|default_rng", ["src/repro/protocol/peer.py"]),
    Guard(41, "ScheduledSession.duration (tests read session.stats.duration)",
     r"def duration", ["src/repro/sim"]),
    Guard(41, "EventScheduler.pending (tests read pending_oneshot)",
     r"def pending\b", ["src/repro/sim/engine.py"]),
    Guard(41, "EventScheduler.clear (nothing cleared a live scheduler)",
     r"def clear\b", ["src/repro/sim/engine.py"]),
    Guard(41, "RtxManager.inflight (the controller keeps the count)",
     r"def inflight", ["src/repro/transport"]),
] + [
    # What the reachability trace found nothing running: one row per name.
    Guard(40, f"{name} (nothing ran it; scripts/reachability.py)", pattern,
          ["src", "tests", "bench", "examples", "README.md"], [THIS_FILE], *matches)
    for name, pattern, *matches in [
        ("ChurnProcess", r"ChurnProcess"),
        ("ChurnEventLog", r"ChurnEventLog"),
        ("run_with_churn", r"run_with_churn"),
        ("sim_reroute", r"sim_reroute|REROUTE_LOSS_THRESHOLD"),
        ("a re-steering Connection link", r"_auto_link"),
        ("BbrLitePolicy", r"BbrLite"),
        # One match stays: the row that names the kind to see it refused.
        ("the bbr_lite kind", r"bbr_lite", 1),
        ("pacing_rate", r"pacing_rate|_pace_credit"),
        ("allowance's window", r"allowance\([^)]*window="),
        ("TraceBandwidthLink", r"TraceBandwidthLink"),
        ("fig5_spec / fig6_spec / fig78_spec", r"fig(5|6|78)_spec"),
        ("MinwiseSketch.from_minima", r"from_minima"),
        ("UniversalHash", r"UniversalHash"),
        ("HashFamily", r"HashFamily"),
        ("random_hash", r"random_hash"),
        ("BloomHashes.indices_many", r"indices_many"),
        ("fibonacci_mix", r"fibonacci_mix|_FIB_MUL"),
        ("splitmix64_stream", r"splitmix64_stream"),
        ("estimated_union_size", r"estimated_union_size"),
        ("resemblance_from_containment", r"resemblance_from_containment"),
        ("Summary.capabilities", r"\.capabilities\(\)|def capabilities"),
        ("SummaryPolicy.can_estimate", r"can_estimate"),
        ("DegreeDistribution.sample_many", r"sample_many"),
        ("CatalogNode.objects_held", r"objects_held"),
        ("EncodedSymbol.header_bytes", r"header_bytes"),
        ("TransportManager.controllers", r"def controllers"),
        ("AimdPolicy.ssthresh", r"def ssthresh"),
        ("CampaignCell.overrides_dict", r"overrides_dict"),
    ]
] + [
    # Callers seed every stream, only min-wise cards merge, and what
    # only tests read is gone: one row per name.  A count of 1 over
    # EVERYWHERE is README.md's migration row, which names the old
    # spelling.
    Guard(42, what, pattern, paths, [THIS_FILE], *matches)
    for what, pattern, paths, *matches in [
        ("default_rng (derive_rng(seed, path) names a stream)", r"\bdefault_rng\b", EVERYWHERE, 1),
        ("the process-global construction counter", r"_instance_counter", EVERYWHERE),
        ("DEFAULT_MASTER_SEED", r"DEFAULT_MASTER_SEED", EVERYWHERE, 1),
        ("an rng=None default", r"rng: Optional\[random\.Random\] = None", ["src"]),
        ("an unseeded fallback stream", r"rng if rng is not None else", ["src"]),
        ("UtilityRewiring(rng=) (it never drew)", r"UtilityRewiring\([^)]*rng=", EVERYWHERE, 1),
        ("Summary.supports_merge (only min-wise merges)", r"supports_merge", EVERYWHERE, 1),
        ("a merge on a summary kind but min-wise", r"def merge",
         ["src/repro/reconcile/adapters.py"], 1),
        ("_merged_local_ids's fallback", r"_merged_local_ids\(.*fallback", ["src"]),
        ("Summary.add (absorb takes one id too)", r"def add\b", ["src/repro/reconcile"]),
        ("Summary.__contains__ (may_contain says it)", r"def __contains__",
         ["src/repro/reconcile"]),
        ("StatsRecorder.last", r"\.last\(|def last\b", EVERYWHERE, 1),
        ("MinwiseSketch.is_empty", r"\bis_empty\b", EVERYWHERE, 1),
        ("WorkingSet.update / discard (a working set only grows)",
         r"(working_set|\bws2?)\.(update|discard)\(|def (update|discard)\b",
         ["src/repro/delivery/working_set.py", "tests", "bench", "examples", "README.md"]),
        ("the add journal's re-basing", r"_log_base", EVERYWHERE),
        ("RecodedPeeler.pending_count", r"pending_count", EVERYWHERE, 1),
        ("SimReceiver.pending_recoded", r"pending_recoded", EVERYWHERE, 1),
        ("ReconciliationTrie.depth", r"\.depth\(\)|def depth\b", EVERYWHERE, 1),
        ("ReconciliationTrie.node_count", r"node_count\(\)|def node_count", EVERYWHERE, 1),
        ("ExactTreeSummary.size_bytes", r"def size_bytes", ["src/repro/art"]),
        ("PermutationFamily.__getitem__", r"def __getitem__", ["src/repro/hashing"]),
        ("ObjectCatalog.target_ids", r"target_ids", EVERYWHERE, 1),
        # One match stays: the chain's own, which a link reads.
        ("GilbertElliottLink.stationary_loss_rate",
         r"def stationary_loss_rate|link\.stationary_loss_rate", EVERYWHERE, 1),
        ("GilbertElliottLink(step_per_packet=)", r"step_per_packet=", EVERYWHERE, 1),
        ("GilbertElliottProcess(start_bad=)", r"start_bad", EVERYWHERE, 1),
    ]
] + [
    # A summary holds no ids, and only min-wise cards absorb: one row
    # per name.  A count of 1 is README.md's migration row; the
    # m_bits / m_buckets row also counts the test of the refusal.
    Guard(43, what, pattern, ["src", "tests", "examples", "README.md"],
          [THIS_FILE], *matches)
    for what, pattern, *matches in [
        ("a summary's copy of its ids",
         r"_local_ids|\bis_local\b|_require_local|_merged_local_ids|local_ids=", 1),
        ("the Bloom-family and hash-set absorbs' build parameters",
         r"\b_build_params\b|_requested_bits"),
        ("a pinned filter size (m_bits= / m_buckets= build parameters)",
         r"\bm_(bits|buckets)=", 2),
        ("CountingBloomSummary.remove (a working set only grows)",
         r"def remove\b|cbf\.remove\("),
    ]
] + [
    # One link class on the send path, and no send-path state nothing
    # reads: one row per name.  A count of 1 is README.md's migration row.
    Guard(44, what, pattern, ["src", "tests", "examples", "README.md"],
          [THIS_FILE], *matches)
    for what, pattern, *matches in [
        ("the LinkModel base class", r"\bLinkModel\b", 1),
        ("LatencyJitterLink (ConstantRateLink takes jitter=)", r"LatencyJitterLink", 1),
        ("BottleneckLink (a link takes queue=)", r"BottleneckLink", 1),
        ("a capacity_between step before the credit", r"capacity_between"),
        ("OpenLoopPolicy (TransportPolicy is open_loop)", r"OpenLoopPolicy", 1),
        ("Connection.established_tick", r"established_tick", 1),
    ]
] + [
    # The event heap holds (time, seq, handle) tuples: two handles are
    # never compared, so a handle has no ordering to grow back.
    Guard(48, "EventHandle.__lt__ (heap entries are (time, seq, handle))",
          r"def __lt__", ["src/repro/sim/engine.py"]),
] + [
    # One protocol path: a session charges the bytes it ships, names the
    # one summary policy, and ScheduledSession drives it.  A count is
    # README.md's migration rows, which name the old spellings.
    Guard(49, what, pattern, EVERYWHERE, [THIS_FILE], *matches)
    for what, pattern, *matches in [
        ("control-message classes, the pipelined stream, run() or a policy agreement",
         r"HelloMessage|SummaryMessage|RequestMessage|ControlMessage|_SummaryBearer"
         r"|summary_json|partitioned_rho|request_next_partition|until_decoded"
         r"|_agreed_policy|estimate_peer_correlation", 5),
        ("ConstantRateLink.packet_budget (send_budget without a controller)",
         r"\bpacket_budget\b", 1),
    ]
] + [
    Guard(49, "a clock in the protocol session (ScheduledSession stamps its stats)",
          r"\.clock\b|\bclock\s*=", ["src/repro/protocol"]),
] + [
    # One home per summary: repro.reconcile holds the min-wise card and
    # the Bloom filter, and the counting filter answered nothing the
    # Bloom filter does not.  A count is README.md's migration rows.
    Guard(50, what, pattern, ["src", "tests", "examples", "README.md"],
          [THIS_FILE], *matches)
    for what, pattern, *matches in [
        ("a second min-wise card, Bloom filter or the counting_bloom kind",
         r"\b(MinwiseSketch|BloomFilter|CountingBloomSummary|counting_bloom)\b", 3),
        ("PermutationFamily.compatible_with (a card checks its own family)",
         r"compatible_with", 1),
    ]
] + [
    # One card row per node per epoch: the epoch table keeps the rows
    # its refresh hands back and compares them through resemblance_rows,
    # so the card-list estimate went; a flow cohort counts its open
    # tiers instead of re-scanning them.
    Guard(51, what, pattern, paths, [THIS_FILE])
    for what, pattern, paths in [
        ("the epoch's per-read maps", r"class _Reads\b", ["src"]),
        ("the card-list estimate (the epoch table compares rows)",
         r"estimate_resemblance_many", ["src", "tests", "examples", "bench"]),
        ("a completion re-scan in the flow engine", r"is_complete\(\)",
         ["src/repro/flow"]),
    ]
]

#: Deleted files and directories.
DELETED_PATHS = [
    "benchmarks",
    "scripts/validate_bench.py",
    "tests/tooling/test_validate_bench.py",
    "tests/integration/test_paper_claims.py",
    "src/repro/sketches/modk.py",
    "src/repro/sketches/random_sample.py",
    "src/repro/exact/hashset.py",
    "src/repro/exact/wholeset.py",
    "src/repro/filters/counting.py",
    "src/repro/filters/partitioned.py",
    "src/repro/art/summary.py",
    "src/repro/overlay/churn.py",
    "tests/overlay/test_churn.py",
    "tests/protocol/test_partitioned_session.py",
    "src/repro/sketches",
    "src/repro/filters",
    "tests/sketches",
    "tests/filters",
]


def _matches(pattern, paths, skipped=(), globs=("*.py",)):
    regex = re.compile(pattern)
    skip = {ROOT / name for name in skipped}
    hits = []
    for path in paths:
        path = ROOT / path
        assert path.exists(), f"guarded path {path} is gone; update the row"
        files = [path] if path.is_file() else sorted(
            file for glob in globs for file in path.rglob(glob)
        )
        for file in files:
            if file in skip:
                continue
            for number, line in enumerate(file.read_text().splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{file.relative_to(ROOT)}:{number}: {line.strip()}")
    return hits


@pytest.mark.parametrize(
    "guard", GUARDS, ids=[f"PR{g.pr}-{g.what.replace(' ', '-')}" for g in GUARDS]
)
def test_deleted_fork_stays_deleted(guard):
    hits = _matches(guard.pattern, guard.paths, guard.skipped, guard.globs)
    assert len(hits) == guard.matches, (
        f"PR {guard.pr} left {guard.matches} line(s) matching {guard.what}; "
        "found:\n" + "\n".join(hits)
    )


@pytest.mark.parametrize("path", DELETED_PATHS)
def test_deleted_path_stays_deleted(path):
    assert not (ROOT / path).exists(), f"{path} was deleted; it must not grow back"


def test_the_one_overlay_assembly_is_build_swarm():
    from repro.api.builders import _build_swarm

    lines, start = inspect.getsourcelines(_build_swarm)
    inside = {f"src/repro/api/builders.py:{start + i}" for i in range(len(lines))}
    for pattern in (r"OverlaySimulator\(", r"SimScenario\("):
        (hit,) = _matches(pattern, ["src/repro/api"])
        assert hit.split(": ", 1)[0] in inside, hit


def test_the_delivery_pass_polls_no_completion():
    """PR 48: completion is an event (``_arrive``); the delivery pass
    reads the ``feeding`` flags it leaves, never ``is_complete``."""
    from repro.overlay.simulator import OverlaySimulator

    source = inspect.getsource(OverlaySimulator._on_tick)
    assert ".is_complete" not in source
    assert "conn.feeding" in source


def test_the_guard_sees_a_match_when_there_is_one():
    (hit,) = _matches(r"^class RecodedPeeler", ["src/repro/coding"])
    assert hit.startswith("src/repro/coding/peeler.py:")
