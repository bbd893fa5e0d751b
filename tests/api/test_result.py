"""RunResult / SessionStats: schemas, edge cases, determinism."""

import json
import math

import pytest

from repro.api import RESULT_SCHEMA, run, specs
from repro.protocol.session import SessionStats


class TestSessionStatsEdges:
    def test_duration_none_until_both_stamps(self):
        stats = SessionStats()
        assert stats.duration is None
        stats.started_at = 3.0
        assert stats.duration is None
        stats.finished_at = 7.5
        assert stats.duration == 4.5

    def test_duration_never_negative(self):
        stats = SessionStats(started_at=5.0, finished_at=3.0)
        assert stats.duration == 0.0

    def test_control_fraction_zero_when_no_bytes(self):
        assert SessionStats().control_fraction == 0.0

    def test_control_fraction_one_for_pure_control(self):
        stats = SessionStats(control_bytes=240, rejected=True)
        assert stats.control_fraction == 1.0

    def test_control_fraction_bounded(self):
        stats = SessionStats(control_bytes=100, data_bytes=900)
        assert stats.control_fraction == 0.1

    def test_to_dict_carries_derived_fields(self):
        stats = SessionStats(
            control_bytes=10, data_bytes=90, started_at=0.0, finished_at=2.0
        )
        data = stats.to_dict()
        assert data["control_fraction"] == 0.1
        assert data["duration"] == 2.0
        json.dumps(data)  # plain JSON types only


class TestRunResultSchema:
    def test_transfer_result_serialises(self):
        result = run(specs.pair_transfer(target=120, correlation=0.2, seed=41))
        data = result.to_dict()
        assert data["schema"] == RESULT_SCHEMA
        assert data["scenario"] == "pair_transfer"
        assert data["seed"] == 41
        assert data["metrics"]["overhead"] == result.overhead
        assert data["spec"] == result.spec.to_dict()
        json.loads(result.to_json())

    def test_swarm_result_carries_series_on_request(self):
        result = run(
            specs.source_departure(num_peers=4, target=40, depart_at=3.0, seed=42)
        )
        lean = result.to_dict()
        assert "series" not in lean
        rich = result.to_dict(include_series=True)
        assert rich["series"]  # the stats recorder captured samples
        assert any("departed" in e for e in rich["events"])
        assert result.overhead is not None and result.overhead >= 1.0

    def test_session_swarm_result_has_per_node_sessions(self):
        result = run(specs.session_swarm(num_receivers=2, num_blocks=40, seed=43))
        assert set(result.node_sessions) == {"dst0", "dst1"}
        data = result.to_dict()
        for node in ("dst0", "dst1"):
            session = data["node_sessions"][node]
            assert session["completed"]
            assert 0.0 < session["control_fraction"] < 1.0
            assert session["duration"] > 0
        assert result.metrics["completed_sessions"] == 2.0


class TestValidateResultDict:
    """The closed-world schema gate behind campaign resume and CI."""

    def _result_dict(self, **kwargs):
        result = run(specs.pair_transfer(target=120, correlation=0.2, seed=5))
        return result.to_dict(**kwargs)

    def test_real_results_validate(self):
        from repro.api.result import validate_result_dict

        validate_result_dict(self._result_dict())
        validate_result_dict(self._result_dict(include_series=True))
        # Including the JSON round trip (what lands on disk).
        validate_result_dict(json.loads(json.dumps(self._result_dict())))

    def test_wrong_schema_tag_rejected(self):
        import pytest

        from repro.api.result import ResultSchemaError, validate_result_dict

        data = self._result_dict()
        data["schema"] = "repro.run_result/2"
        with pytest.raises(ResultSchemaError, match="schema"):
            validate_result_dict(data)

    def test_missing_and_unknown_keys_are_drift(self):
        import pytest

        from repro.api.result import ResultSchemaError, validate_result_dict

        data = self._result_dict()
        del data["metrics"]
        with pytest.raises(ResultSchemaError, match="missing keys.*metrics"):
            validate_result_dict(data)
        data = self._result_dict()
        data["wall_seconds"] = 1.0
        with pytest.raises(ResultSchemaError, match="unknown keys.*wall_seconds"):
            validate_result_dict(data)

    def test_wrongly_typed_values_rejected(self):
        import pytest

        from repro.api.result import ResultSchemaError, validate_result_dict

        for key, bad in [
            ("completed", "yes"),
            ("seed", 1.5),
            ("metrics", [1, 2]),
            ("events", "departed"),
            ("spec", {"no_scenario": True}),
        ]:
            data = self._result_dict()
            data[key] = bad
            with pytest.raises(ResultSchemaError):
                validate_result_dict(data)

    # Each was accepted while only the shape of the result was checked.
    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(
                lambda d: d.update(scenario="flash_crowd"),
                "names scenario",
                id="scenario-differs-from-the-spec",
            ),
            pytest.param(
                lambda d: d.update(seed=d["seed"] + 1),
                "names scenario",
                id="seed-differs-from-the-spec",
            ),
            pytest.param(
                lambda d: d.update(
                    spec={"scenario": "pair_transfer", "swarm": {"target": -5}}
                ),
                "SwarmSpec.target must be positive",
                id="spec-block-is-not-a-valid-spec",
            ),
            pytest.param(
                lambda d: d["spec"].update(wall_seconds=1.0),
                "unknown spec keys",
                id="spec-block-has-an-unknown-key",
            ),
            pytest.param(
                lambda d: d.update(series=[[None, {}, [], "x"]]),
                "series",
                id="series-row-of-wrong-column-types",
            ),
            pytest.param(
                lambda d: d.update(series=[["n0", "known", 0, math.nan]]),
                "series",
                id="series-value-not-finite",
            ),
            pytest.param(
                lambda d: d.update(node_sessions={"n0": 3}),
                "node_sessions",
                id="node-session-not-an-object",
            ),
            # An int no float can hold (json.loads reads one) was a
            # finite number until the first mean of it overflowed.
            pytest.param(
                lambda d: d["metrics"].update(overhead=10**400),
                "metric 'overhead' must be finite",
                id="metric-int-too-large-for-a-float",
            ),
            pytest.param(
                lambda d: d.update(series=[["n0", "known", 10**400, 1]]),
                "series",
                id="series-time-int-too-large-for-a-float",
            ),
            pytest.param(
                lambda d: (
                    d.update(scenario="no_such_scenario"),
                    d["spec"].update(scenario="no_such_scenario"),
                ),
                "unknown scenario 'no_such_scenario'",
                id="scenario-not-registered",
            ),
        ],
    )
    def test_a_result_that_contradicts_itself_is_refused(self, mutate, message):
        from repro.api.result import ResultSchemaError, validate_result_dict

        data = json.loads(json.dumps(self._result_dict()))
        mutate(data)
        with pytest.raises(ResultSchemaError, match=message):
            validate_result_dict(data)

    def test_well_typed_series_rows_pass(self):
        from repro.api.result import validate_result_dict

        data = self._result_dict()
        data["series"] = [["n0", "known", 0, 3], ["n0", "known", 1.5, 4.0]]
        validate_result_dict(data)

    def test_non_numeric_metric_rejected(self):
        import pytest

        from repro.api.result import ResultSchemaError, validate_result_dict

        data = self._result_dict()
        data["metrics"]["overhead"] = "1.2"
        with pytest.raises(ResultSchemaError, match="must map a string to a number"):
            validate_result_dict(data)
