"""The field contract: one declaration per field, one checker, one message.

Every case here was accepted, or crashed with something other than a
:class:`SpecError`, before the spec fields and scenario params declared
their bounds.  Each is refused now on every route a value takes into a
spec: the constructor, ``from_dict``, ``with_override``, a campaign
grid and the CLI.
"""

import json
import math

import pytest

from repro.api import (
    CatalogSpec,
    ExperimentSpec,
    LinkSpec,
    NodeSpec,
    ReconfigSpec,
    SpecError,
    SummarySpec,
    TopologySpec,
    TransportSpec,
    build,
    registry,
    specs,
)
from repro.api.__main__ import main, parse_component_arg
from repro.api.result import ResultSchemaError, validate_result_dict
from repro.api.spec import ChurnSpec, MeasurementSpec, StrategySpec, SwarmSpec
from repro.campaign import CampaignSpec, GridAxis, run_campaign

#: (scenario whose small spec carries the field, dotted path, value).
MOTIVATION = [
    ("flash_crowd", "swarm.distinct_multiplier", math.inf),
    ("source_departure", "churn.depart_at", -3),
    ("source_departure", "churn.depart_at", math.nan),
    ("flash_crowd", "churn.wave_interval", math.inf),
    ("flash_crowd", "measurement.record_series", "no"),
    ("flash_crowd", "strategy.name", 5),
    ("random_overlay", "params.num_sources", 0),
    ("random_overlay", "params.initial_fraction_hi", 2),
    ("random_overlay", "params.num_peers", "abc"),
    ("multi_sender_transfer", "params.correlation", "abc"),
    # An int no float can hold passed as finite, then overflowed in build.
    ("asymmetric_bandwidth", "swarm.target", 10**400),
    ("asymmetric_bandwidth", "swarm.reconfigure_every", 10**400),
    ("asymmetric_bandwidth", "strategy.bloom_bits_per_element", 10**400),
]

#: The class each non-params path lands in, for the constructor route.
SECTION_CLASSES = {
    "swarm": SwarmSpec,
    "churn": ChurnSpec,
    "measurement": MeasurementSpec,
    "strategy": StrategySpec,
}


def _case_id(case):
    value = case[2]
    return f"{case[1]}={'10**400' if value == 10**400 else repr(value)}"


def _refused(call):
    with pytest.raises(SpecError):
        spec = call()
        build(spec)  # params are held to their declaration here


@pytest.mark.parametrize("case", MOTIVATION, ids=_case_id)
class TestMotivationCases:
    def test_constructor(self, case):
        name, path, value = case
        section, field = path.split(".")
        if section == "params":
            base = registry.small_spec(name)
            _refused(lambda: ExperimentSpec(
                scenario=name, seed=base.seed, swarm=base.swarm,
                strategy=base.strategy, measurement=base.measurement,
                params={**base.params_dict(), field: value},
            ))
        else:
            _refused(lambda: SECTION_CLASSES[section](**{field: value}))

    def test_from_dict(self, case):
        name, path, value = case
        data = registry.small_spec(name).to_dict()
        section, field = path.split(".")
        data[section][field] = value
        _refused(lambda: ExperimentSpec.from_dict(data))

    def test_with_override(self, case):
        name, path, value = case
        _refused(lambda: registry.small_spec(name).with_override(path, value))

    def test_campaign_grid(self, case):
        name, path, value = case
        with pytest.raises(SpecError):
            CampaignSpec(base=registry.small_spec(name), grid=(GridAxis(path, (value,)),))

    def test_cli_exits_2(self, case, tmp_path, capsys):
        name, path, value = case
        data = registry.small_spec(name).to_dict()
        section, field = path.split(".")
        data[section][field] = value
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(data))  # NaN/Infinity spelled as JS does
        assert main(["--spec", str(spec_file)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (LinkSpec, "rate", math.inf),
        (LinkSpec, "rate", True),
        (NodeSpec, "seed_fraction", True),
        (NodeSpec, "name", 5),
        (TransportSpec, "rto_max", math.inf),
        (CatalogSpec, "zipf_skew", math.inf),
        (ExperimentSpec, "scenario", 5),
    ],
)
def test_component_cases_refused(cls, field, value):
    with pytest.raises(SpecError, match=rf"^{cls.__name__}\.{field} must be "):
        cls(**{field: value})


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--reconfig", "informed:interval=true"),
        ("--catalog", "zipf_skew=Infinity"),
        ("--transport", "open_loop:rto_max=Infinity"),
    ],
)
def test_cli_flags_refused_with_exit_2(flag, text, capsys):
    assert main(["--scenario", "cdn_catalog", flag, text, "--print-spec"]) == 2
    assert "must be" in capsys.readouterr().err


class TestOneMessageFormat:
    def test_type_finite_choice_and_range(self):
        cases = [
            (lambda: NodeSpec(count=7.5), "NodeSpec.count must be an integer, got 7.5"),
            (lambda: LinkSpec(latency=math.nan), "LinkSpec.latency must be finite, got nan"),
            (lambda: LinkSpec(kind="warp"), "LinkSpec.kind must be one of"),
            (lambda: LinkSpec(loss_rate=1.0), "LinkSpec.loss_rate must be in [0, 1), got 1.0"),
            (lambda: SwarmSpec(target=0), "SwarmSpec.target must be positive, got 0"),
            (lambda: ChurnSpec(depart_at=-1.0), "ChurnSpec.depart_at must be non-negative"),
            (lambda: TopologySpec(kind=""), "TopologySpec.kind must be non-empty, got ''"),
        ]
        for make, message in cases:
            with pytest.raises(SpecError) as info:
                make()
            assert str(info.value).startswith(message)

    def test_cross_field_checks_speak_the_same_format(self):
        with pytest.raises(SpecError, match=r"^TransportSpec\.rto_max must be >= 4, got 3"):
            TransportSpec(rto_min=4.0, rto_max=3)
        with pytest.raises(SpecError, match=r"^CatalogSpec\.priority_tiers must be <= 2"):
            CatalogSpec(objects=2, priority_tiers=3)

    def test_values_are_checked_not_coerced(self):
        spec = specs.random_overlay(seed=1).with_override("reconfig.interval", 5)
        assert type(spec.reconfig.interval) is int
        assert '"interval": 5,' in spec.to_json()

    def test_nested_spec_fields_are_typed(self):
        with pytest.raises(SpecError, match="ExperimentSpec.swarm must be a SwarmSpec"):
            ExperimentSpec(scenario="x", swarm=5)
        with pytest.raises(SpecError, match="ExperimentSpec.strategy must be a StrategySpec"):
            specs.pair_transfer().with_override("strategy", "Random")
        with pytest.raises(SpecError, match="SwarmSpec.nodes must be a NodeSpec"):
            SwarmSpec(nodes=(LinkSpec(),))


class TestNonFiniteScalars:
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400],
        ids=["nan", "inf", "-inf", "int-too-large-for-a-float"],
    )
    def test_params_and_grid_values_refuse_them(self, value):
        with pytest.raises(SpecError, match="finite JSON scalar"):
            ExperimentSpec(scenario="x", params={"a": value})
        with pytest.raises(SpecError, match="finite JSON scalar"):
            GridAxis("params.a", (value,))
        with pytest.raises(SpecError, match="finite JSON scalar"):
            ExperimentSpec(scenario="x").with_override("params.a", value)
        with pytest.raises(SpecError, match="finite JSON scalar"):
            SummarySpec(kind="bloom", params={"bits_per_element": value})


class TestScenarioParams:
    def test_undeclared_key_refused_at_build(self):
        spec = registry.small_spec("flash_crowd").with_params(bogus=1)
        with pytest.raises(SpecError, match=r"reads no params \['bogus'\]"):
            build(spec)

    def test_defaults_fill_in_what_the_spec_leaves_out(self):
        spec = ExperimentSpec(scenario="random_overlay", swarm=SwarmSpec(target=40))
        assert registry.check_params(spec) == {
            "num_peers": 12, "num_sources": 1, "initial_fraction_lo": 0.0,
            "initial_fraction_hi": 0.6, "max_connections": 3, "with_physical": True,
        }

    def test_every_param_reading_scenario_declares_what_it_reads(self):
        declared = {n: sorted(registry.get(n).params) for n in registry.names()}
        assert {n for n, keys in declared.items() if keys} == {
            "figure1", "pair_transfer", "multi_sender_transfer",
            "session_swarm", "random_overlay", "summary_tradeoff",
        }
        for name in registry.names():
            small = registry.small_spec(name)
            assert set(small.params_dict()) <= set(declared[name]), name

    def test_kwargs_constructors_leave_the_checks_to_the_gate(self):
        for spec in (
            specs.random_overlay(num_sources=0),
            specs.random_overlay(initial_fraction_lo=0.7, initial_fraction_hi=0.6),
            specs.multi_sender_transfer(num_senders=0),
            specs.flash_crowd(waves=0),
        ):
            with pytest.raises(SpecError):
                build(spec)

    def test_a_bad_grid_value_is_a_spec_error_not_error_cells(self):
        with pytest.raises(SpecError, match="does not apply to the base spec"):
            CampaignSpec(
                base=registry.small_spec("pair_transfer"),
                grid=(GridAxis("params.correlation", (0.0, 1.5)),),
            )


class TestParseComponentArg:
    def test_scalar_fields_params_and_nested_kind(self):
        assert parse_component_arg("transport", "aimd:beta=0.7,rto_min=1.5") == (
            TransportSpec(policy="aimd", params={"beta": 0.7}, rto_min=1.5)
        )
        assert parse_component_arg("topology", "cdn_tiers:tiers=3,fanout=4") == (
            TopologySpec(kind="cdn_tiers", params={"tiers": 3, "fanout": 4})
        )
        assert parse_component_arg("catalog", "objects=4,priority_tiers=2") == (
            CatalogSpec(objects=4, priority_tiers=2)
        )
        assert parse_component_arg(
            "reconfig", "informed:summary=art,summary.correction=2,scan_budget=4"
        ) == ReconfigSpec(
            summary=SummarySpec(kind="art", params={"correction": 2}), scan_budget=4
        )

    def test_a_key_with_no_home_is_refused(self):
        with pytest.raises(SpecError, match="CatalogSpec has no field 'bogus'"):
            parse_component_arg("catalog", "objects=2,bogus=1")
        with pytest.raises(SpecError, match="ReconfigSpec has no field 'bogus'"):
            parse_component_arg("reconfig", "informed:bogus=1")
        with pytest.raises(SpecError, match="needs a policy"):
            parse_component_arg("transport", ":beta=0.5")

    def test_values_are_json_and_checked(self):
        with pytest.raises(SpecError, match="ReconfigSpec.interval must be a number, got True"):
            parse_component_arg("reconfig", "informed:interval=true")
        with pytest.raises(SpecError, match="CatalogSpec.zipf_skew must be finite"):
            parse_component_arg("catalog", "zipf_skew=Infinity")


class TestResultSchemaRefusesNonFiniteMetrics:
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_json_spellings_are_schema_errors(self, text):
        data = json.loads(specs.pair_transfer(target=60, seed=1).to_json())
        result = json.loads(
            '{"schema": "repro.run_result/1", "scenario": "pair_transfer", '
            '"seed": 1, "completed": true, "events": [], "node_sessions": {}, '
            f'"metrics": {{"overhead": {text}}}}}'
        )
        result["spec"] = data
        with pytest.raises(ResultSchemaError, match="'overhead' must be finite"):
            validate_result_dict(result)

    def test_resume_reruns_a_cell_with_a_non_finite_metric(self, tmp_path):
        campaign = CampaignSpec(
            base=specs.pair_transfer(target=60, seed=2),
            grid=(GridAxis("params.correlation", (0.0, 0.3)),),
        )
        first = run_campaign(campaign, out_dir=str(tmp_path))
        cell_file = tmp_path / f"{first.cells[1].cell_id}.json"
        cell = json.loads(cell_file.read_text())
        cell["result"]["metrics"]["overhead"] = math.nan
        cell_file.write_text(json.dumps(cell))
        rerun = []
        again = run_campaign(
            campaign, out_dir=str(tmp_path), resume=True, on_cell=rerun.append
        )
        assert [c.index for c in rerun] == [1]
        assert again.to_json() == first.to_json()
