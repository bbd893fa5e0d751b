"""scripts/validate_bench.py: the CI bench-baseline schema gate.

The gate must fail loudly when there is nothing to gate — a missing
output directory (benchmarks never ran) and an empty one (benchmarks
ran but dumped nothing) are both errors, with distinct messages.
"""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "validate_bench.py")


@pytest.fixture(scope="module")
def validate_bench():
    spec = importlib.util.spec_from_file_location("validate_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


class TestEmptyInputs:
    def test_missing_directory_fails_with_its_own_message(
        self, validate_bench, tmp_path, capsys
    ):
        missing = str(tmp_path / "never-created")
        assert validate_bench.validate_dir(missing) == 1
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "REPRO_BENCH_JSON" in err

    def test_directory_with_zero_dumps_fails(
        self, validate_bench, tmp_path, capsys
    ):
        assert validate_bench.validate_dir(str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "no BENCH_*.json" in err

    def test_usage_error_without_a_directory_argument(self, validate_bench):
        assert validate_bench.main(["validate_bench.py"]) == 1


class TestValidation:
    def test_valid_bench_meta_passes(self, validate_bench, tmp_path):
        _write(
            tmp_path / "BENCH_x.json",
            [{"schema": "repro.bench_meta/1", "name": "t_run", "seconds": 1.5}],
        )
        assert validate_bench.validate_dir(str(tmp_path)) == 0

    def test_unknown_schema_fails(self, validate_bench, tmp_path):
        _write(
            tmp_path / "BENCH_x.json",
            [{"schema": "repro.surprise/9", "name": "t_run"}],
        )
        assert validate_bench.validate_dir(str(tmp_path)) == 1

    def test_non_array_payload_fails(self, validate_bench, tmp_path):
        _write(tmp_path / "BENCH_x.json", {"schema": "repro.bench_meta/1"})
        assert validate_bench.validate_dir(str(tmp_path)) == 1

    def test_real_run_result_passes(self, validate_bench, tmp_path):
        from repro.api import run, specs

        result = run(
            specs.population_flash_crowd(
                population=16, target=48, waves=2, seeded_fraction=0.25,
                seed=9, max_ticks=2_000,
            )
        )
        _write(tmp_path / "BENCH_pop.json", [result.to_dict()])
        assert validate_bench.validate_dir(str(tmp_path)) == 0

    def test_drifted_result_key_fails_closed_world(
        self, validate_bench, tmp_path
    ):
        from repro.api import run, specs

        payload = run(
            specs.population_flash_crowd(
                population=16, target=48, waves=2, seeded_fraction=0.25,
                seed=9, max_ticks=2_000,
            )
        ).to_dict()
        payload["surprise_key"] = True
        _write(tmp_path / "BENCH_pop.json", [payload])
        assert validate_bench.validate_dir(str(tmp_path)) == 1


def _baseline(entries, tolerance=2.0):
    return {
        "schema": "repro.bench_baseline/1",
        "metric": "us_per_node_tick",
        "tolerance": tolerance,
        "entries": entries,
    }


def _meta(name, value):
    return {
        "schema": "repro.bench_meta/1",
        "name": name,
        "us_per_node_tick": value,
    }


class TestBaselineGate:
    """The soft perf-regression gate: warn on slow, fail on drift."""

    def _setup(self, tmp_path, measured, baseline):
        out = tmp_path / "bench-out"
        out.mkdir()
        _write(out / "BENCH_sim.json", measured)
        base = tmp_path / "baseline.json"
        _write(base, baseline)
        return str(out), str(base)

    def test_within_tolerance_passes_quietly(
        self, validate_bench, tmp_path, capsys
    ):
        out, base = self._setup(
            tmp_path, [_meta("sim_a", 120.0)], _baseline({"sim_a": 100.0})
        )
        assert validate_bench.check_baseline(out, base) == 0
        captured = capsys.readouterr().out
        assert "ok   sim_a" in captured
        assert "WARNING" not in captured

    def test_regression_beyond_tolerance_warns_but_passes(
        self, validate_bench, tmp_path, capsys
    ):
        out, base = self._setup(
            tmp_path, [_meta("sim_a", 500.0)], _baseline({"sim_a": 100.0})
        )
        assert validate_bench.check_baseline(out, base) == 0
        captured = capsys.readouterr().out
        assert "WARNING sim_a" in captured
        assert "possible perf regression" in captured
        assert "1 baseline warning(s)" in captured

    def test_missing_measurement_warns_but_passes(
        self, validate_bench, tmp_path, capsys
    ):
        out, base = self._setup(
            tmp_path, [_meta("sim_a", 90.0)],
            _baseline({"sim_a": 100.0, "sim_gone": 50.0}),
        )
        assert validate_bench.check_baseline(out, base) == 0
        assert "not measured this run" in capsys.readouterr().out

    def test_entries_without_the_metric_are_ignored(
        self, validate_bench, tmp_path, capsys
    ):
        out, base = self._setup(
            tmp_path,
            [{"schema": "repro.bench_meta/1", "name": "sim_a", "seconds": 3.0}],
            _baseline({"sim_a": 100.0}),
        )
        assert validate_bench.check_baseline(out, base) == 0
        assert "not measured this run" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema": "repro.surprise/9", "entries": {"sim_a": 1.0}},
            _baseline("not-a-dict"),
            _baseline({"sim_a": -4.0}),
            _baseline({"sim_a": True}),
            _baseline({"sim_a": 100.0}, tolerance=0.5),
            _baseline({"sim_a": 100.0}, tolerance=True),
        ],
    )
    def test_malformed_baseline_fails_the_gate(
        self, validate_bench, tmp_path, payload, capsys
    ):
        out, base = self._setup(tmp_path, [_meta("sim_a", 90.0)], payload)
        assert validate_bench.check_baseline(out, base) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_unreadable_baseline_fails_the_gate(
        self, validate_bench, tmp_path
    ):
        out, _ = self._setup(tmp_path, [_meta("sim_a", 90.0)], _baseline({}))
        assert validate_bench.check_baseline(out, str(tmp_path / "nope.json")) == 1

    def test_default_tolerance_is_two_x(self, validate_bench, tmp_path):
        base = tmp_path / "baseline.json"
        payload = _baseline({"sim_a": 100.0})
        del payload["tolerance"]
        _write(base, payload)
        entries, tolerance = validate_bench.load_baseline(str(base))
        assert entries == {"sim_a": 100.0}
        assert tolerance == 2.0

    def test_main_runs_the_gate_after_schema_validation(
        self, validate_bench, tmp_path, capsys
    ):
        out, base = self._setup(
            tmp_path, [_meta("sim_a", 500.0)], _baseline({"sim_a": 100.0})
        )
        assert validate_bench.main(["validate_bench.py", "--baseline", base, out]) == 0
        assert "WARNING sim_a" in capsys.readouterr().out

    def test_main_skips_the_gate_on_schema_failure(
        self, validate_bench, tmp_path, capsys
    ):
        out = tmp_path / "bench-out"
        out.mkdir()
        _write(out / "BENCH_bad.json", [{"schema": "repro.surprise/9"}])
        base = tmp_path / "baseline.json"
        _write(base, _baseline({"sim_a": 100.0}))
        rc = validate_bench.main(
            ["validate_bench.py", "--baseline", str(base), str(out)]
        )
        assert rc == 1
        assert "WARNING" not in capsys.readouterr().out

    def test_main_usage_error_for_baseline_without_value(self, validate_bench):
        assert validate_bench.main(["validate_bench.py", "--baseline"]) == 1

    def test_checked_in_baseline_file_is_well_formed(self, validate_bench):
        entries, tolerance = validate_bench.load_baseline(
            os.path.join(REPO_ROOT, "benchmarks", "bench_baseline.json")
        )
        assert entries
        assert tolerance >= 1.0
        # The shipped baseline names the CI-lane bench entries.
        assert "sim_scaling_reference_1000" in entries
        assert "sim_scaling_columnar_1000" in entries
