"""Campaign execution: parity, failure isolation, resume, guards."""

import json
import os

import pytest

from repro.api import run, specs
from repro.api.result import ResultSchemaError
from repro.api.spec import SpecError
from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    CellOutcome,
    GridAxis,
    expand,
    run_campaign,
    validate_campaign_dict,
)
from repro import RESULTS_VERSION
from repro.campaign import small_campaign
from repro.campaign.executor import VERSION_FILE, _run_payload


def _campaign(seeds=2, **base_kwargs):
    base_kwargs.setdefault("target", 120)
    base_kwargs.setdefault("seed", 5)
    return CampaignSpec(
        base=specs.pair_transfer(**base_kwargs),
        grid=(GridAxis("params.correlation", (0.0, 0.3)),),
        seeds=seeds,
        name="exec-test",
    )


def _sequential_reference(campaign):
    """run() over the expanded cells — the engine must match this exactly."""
    return CampaignResult(
        campaign=campaign,
        cells=[
            CellOutcome(
                index=c.index,
                cell_id=c.cell_id,
                overrides=c.overrides,
                trial=c.trial,
                seed=c.seed,
                status="ok",
                result=run(c.spec).to_dict(),
            )
            for c in expand(campaign)
        ],
    )


#: A campaign whose second cell crashes at build time: join waves are
#: structurally valid churn but source_departure rejects them.
def _crashing_campaign():
    return CampaignSpec(
        base=specs.source_departure(num_peers=6, target=60, depart_at=5.0, seed=2),
        grid=(GridAxis("churn.join_waves", (0, 2)),),
        seeds=1,
    )


class TestSerialExecution:
    def test_workers_1_byte_identical_to_sequential_runs(self):
        campaign = _campaign()
        result = run_campaign(campaign, workers=1)
        assert result.to_json() == _sequential_reference(campaign).to_json()

    def test_single_cell_campaign(self):
        campaign = CampaignSpec(base=specs.pair_transfer(target=120, seed=5))
        result = run_campaign(campaign)
        assert result.n_cells == 1
        assert result.n_completed == 1

    def test_empty_grid_runs_seed_replicates(self):
        campaign = CampaignSpec(base=specs.pair_transfer(target=120, seed=5), seeds=3)
        result = run_campaign(campaign)
        assert result.n_cells == 3
        seeds = {c.seed for c in result.cells}
        assert len(seeds) == 3
        assert {c.result["seed"] for c in result.cells} == seeds

    def test_result_serialises_through_campaign_schema(self):
        result = run_campaign(_campaign(seeds=1))
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro.campaign_result/1"
        validate_campaign_dict(payload)
        rebuilt = CampaignResult.from_dict(payload)
        assert rebuilt.to_json() == result.to_json()

    def test_grouped_series_reported_per_axis(self):
        result = run_campaign(_campaign())
        series = json.loads(result.to_json())["series"]
        assert set(series) == {"params.correlation"}
        assert set(series["params.correlation"]) == {"0.0", "0.3"}
        for metrics in series["params.correlation"].values():
            assert "overhead" in metrics


class TestFailureIsolation:
    def test_crashing_cell_records_error_entry(self):
        result = run_campaign(_crashing_campaign(), workers=1)
        assert [c.status for c in result.cells] == ["ok", "error"]
        failed = result.cells[1]
        assert failed.error.startswith("SpecError:")
        assert "join waves" in failed.error
        assert result.n_failed == 1
        assert result.cells[0].completed

    def test_worker_crash_isolated_in_parallel_mode(self):
        serial = run_campaign(_crashing_campaign(), workers=1)
        parallel = run_campaign(_crashing_campaign(), workers=2)
        assert parallel.to_json() == serial.to_json()

    def test_error_entries_survive_the_campaign_schema(self):
        result = run_campaign(_crashing_campaign(), workers=1)
        payload = json.loads(result.to_json())
        validate_campaign_dict(payload)
        rebuilt = CampaignResult.from_dict(payload)
        assert rebuilt.cells[1].status == "error"

    def test_run_payload_never_raises(self):
        raw = _run_payload((None, "SpecError: expansion failed", False))
        assert raw == {"status": "error", "error": "SpecError: expansion failed"}
        raw = _run_payload(("{not json", None, False))
        assert raw["status"] == "error"
        assert raw["error"].startswith("SpecError:")


def _summary_says_all_failed(payload):
    payload["summary"].update(ok=0, failed=2)


def _cells_reversed(payload):
    payload["cells"].reverse()


def _cell_duplicated(payload):
    payload["cells"][1] = payload["cells"][0]


def _series_mean_off(payload):
    payload["series"]["params.correlation"]["0.0"]["overhead"] += 1.0


def _override_off_grid(payload):
    payload["cells"][0]["overrides"]["params.correlation"] = 0.7


def _cell_dropped_and_recounted(payload):
    payload["cells"].pop()
    payload["summary"].update(cells=1, ok=1, completed=1)


class TestCampaignFileAgreesWithItself:
    """A campaign file's cells are its campaign's cells, and its
    summary and series are what those cells add up to."""

    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads(run_campaign(_campaign(seeds=1)).to_json())

    def test_the_untouched_file_validates(self, payload):
        validate_campaign_dict(payload)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_summary_says_all_failed, "summary .* disagrees"),
            (_cells_reversed, "cell 0 is not the campaign's cell 0"),
            (_cell_duplicated, "cell 1 is not the campaign's cell 1"),
            (_series_mean_off, "series disagrees"),
            (_override_off_grid, "cell 0 is not the campaign's cell 0"),
            (_cell_dropped_and_recounted, "holds 1 cells, its campaign expands to 2"),
        ],
    )
    def test_a_contradiction_is_refused(self, payload, corrupt, message):
        corrupted = json.loads(json.dumps(payload))
        corrupt(corrupted)
        with pytest.raises(ResultSchemaError, match=message):
            validate_campaign_dict(corrupted)
        with pytest.raises(ResultSchemaError, match=message):
            CampaignResult.from_dict(corrupted)


class TestParallelExecution:
    def test_workers_2_output_identical_to_workers_1(self):
        campaign = _campaign()
        assert (
            run_campaign(campaign, workers=2).to_json()
            == run_campaign(campaign, workers=1).to_json()
        )

    def test_workers_validation(self):
        with pytest.raises(SpecError, match=">= 1"):
            run_campaign(_campaign(), workers=0)
        with pytest.raises(SpecError, match="integer"):
            run_campaign(_campaign(), workers=2.5)


class TestOutputDirAndResume:
    def test_cells_and_campaign_persisted(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_campaign(_campaign(seeds=1), workers=1, out_dir=str(out))
        files = sorted(os.listdir(out))
        assert "campaign.json" in files
        cell_files = [f for f in files if f.startswith("cell-")]
        assert len(cell_files) == result.n_cells
        on_disk = json.loads((out / "campaign.json").read_text())
        assert on_disk == json.loads(result.to_json())

    def test_finished_campaign_refused_without_resume_or_force(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_campaign(_campaign(seeds=1), out_dir=out)
        with pytest.raises(SpecError, match="already holds a finished campaign"):
            run_campaign(_campaign(seeds=1), out_dir=out)
        # --force overwrites; --resume reuses.
        run_campaign(_campaign(seeds=1), out_dir=out, force=True)
        run_campaign(_campaign(seeds=1), out_dir=out, resume=True)

    def test_resume_skips_cells_already_on_disk(self, tmp_path):
        out = tmp_path / "sweep"
        campaign = _campaign(seeds=1)
        first = run_campaign(campaign, workers=1, out_dir=str(out))
        # Tamper with one persisted cell: if resume re-ran it, the
        # sentinel would be recomputed away.
        cell_file = next(f for f in sorted(os.listdir(out)) if f.startswith("cell-"))
        data = json.loads((out / cell_file).read_text())
        data["result"]["metrics"]["overhead"] = 123.456
        (out / cell_file).write_text(json.dumps(data, indent=2, sort_keys=True))
        resumed = run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        assert resumed.cells[0].result["metrics"]["overhead"] == 123.456
        # Untouched cells are identical to the first run.
        assert resumed.cells[1:] == first.cells[1:]

    def test_resume_is_idempotent(self, tmp_path):
        out = str(tmp_path / "sweep")
        campaign = _campaign()
        first = run_campaign(campaign, workers=1, out_dir=out)
        again = run_campaign(campaign, workers=1, out_dir=out, resume=True)
        third = run_campaign(campaign, workers=2, out_dir=out, resume=True)
        assert first.to_json() == again.to_json() == third.to_json()

    def test_resume_reruns_corrupt_or_mismatched_cells(self, tmp_path):
        out = tmp_path / "sweep"
        campaign = _campaign(seeds=1)
        first = run_campaign(campaign, workers=1, out_dir=str(out))
        cell_file = next(f for f in sorted(os.listdir(out)) if f.startswith("cell-"))
        (out / cell_file).write_text("{corrupt")
        resumed = run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        assert resumed.to_json() == first.to_json()

    def test_resume_reruns_cached_error_cells(self, tmp_path):
        # A persisted failure may have been transient (killed worker);
        # resume re-runs it instead of trusting it forever.
        out = tmp_path / "sweep"
        campaign = _campaign(seeds=1)
        first = run_campaign(campaign, workers=1, out_dir=str(out))
        cell_file = next(f for f in sorted(os.listdir(out)) if f.startswith("cell-"))
        data = json.loads((out / cell_file).read_text())
        data.pop("result")
        data["status"] = "error"
        data["error"] = "BrokenProcessPool: worker died"
        (out / cell_file).write_text(json.dumps(data, indent=2, sort_keys=True))
        resumed = run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        assert resumed.to_json() == first.to_json()
        assert resumed.cells[0].ok

    def test_resume_never_reuses_cells_from_an_edited_campaign(self, tmp_path):
        # Cell ids digest the fully resolved cell spec, so editing the
        # base (seed or any field) misses the cache and re-runs — a
        # resumed campaign can never pair new specs with old results.
        out = str(tmp_path / "sweep")
        run_campaign(_campaign(seeds=1), workers=1, out_dir=out)
        edited = _campaign(seeds=1, seed=6)
        resumed = run_campaign(edited, workers=1, out_dir=out, resume=True)
        assert resumed.to_json() == run_campaign(edited, workers=1).to_json()
        retargeted = _campaign(seeds=1, target=240)
        resumed = run_campaign(retargeted, workers=1, out_dir=out, resume=True)
        assert all(c.result["spec"]["swarm"]["target"] == 240 for c in resumed.cells)

    def test_resume_requires_out_dir(self):
        with pytest.raises(SpecError, match="resume requires an output directory"):
            run_campaign(_campaign(), resume=True)

    def test_partial_run_resumes_only_missing_cells(self, tmp_path):
        out = tmp_path / "sweep"
        campaign = _campaign(seeds=1)
        reference = run_campaign(campaign, workers=1, out_dir=str(out))
        # Simulate an interrupted campaign: drop the aggregate file and
        # one cell.
        os.remove(out / "campaign.json")
        dropped = sorted(
            f for f in os.listdir(out) if f.startswith("cell-")
        )[1]
        os.remove(out / dropped)
        sentinel_file = sorted(
            f for f in os.listdir(out) if f.startswith("cell-")
        )[0]
        data = json.loads((out / sentinel_file).read_text())
        data["result"]["metrics"]["overhead"] = 99.0
        (out / sentinel_file).write_text(json.dumps(data, indent=2, sort_keys=True))
        resumed = run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        # The surviving cell was reused (sentinel intact), the dropped
        # one re-ran to the same bytes as the reference run.
        assert resumed.cells[0].result["metrics"]["overhead"] == 99.0
        assert resumed.cells[1] == reference.cells[1]
        assert (out / "campaign.json").exists()

    def test_on_cell_progress_callback(self):
        seen = []
        run_campaign(_campaign(seeds=1), on_cell=lambda c: seen.append(c.cell_id))
        assert len(seen) == 2


class TestResultsVersion:
    """A directory records the results version its cells were computed
    under; a resume over another version, or over a directory without
    one, re-runs every cell and says so, and the files it writes are
    the bytes a fresh run writes."""

    @staticmethod
    def _tamper_every_cell(out):
        for name in os.listdir(out):
            if name.startswith("cell-"):
                data = json.loads((out / name).read_text())
                data["result"]["metrics"]["sentinel"] = 1.0
                (out / name).write_text(json.dumps(data, indent=2, sort_keys=True))

    @pytest.mark.parametrize("sidecar", [None, "0\n", "not a version"])
    def test_a_resume_over_another_version_reruns_every_cell(self, tmp_path, sidecar):
        campaign = small_campaign("scale_free_swarm")
        clean, out = tmp_path / "clean", tmp_path / "sweep"
        run_campaign(campaign, workers=1, out_dir=str(clean))
        run_campaign(campaign, workers=1, out_dir=str(out))
        assert (out / VERSION_FILE).read_text() == f"{RESULTS_VERSION}\n"
        self._tamper_every_cell(out)
        if sidecar is None:
            os.remove(out / VERSION_FILE)
        else:
            (out / VERSION_FILE).write_text(sidecar)
        with pytest.warns(RuntimeWarning, match="re-running every cell"):
            run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        assert sorted(os.listdir(out)) == sorted(os.listdir(clean))
        for name in os.listdir(clean):
            assert (out / name).read_bytes() == (clean / name).read_bytes()

    def test_a_resume_over_this_version_reuses_its_cells(self, tmp_path, recwarn):
        campaign = _campaign(seeds=1)
        out = tmp_path / "sweep"
        run_campaign(campaign, workers=1, out_dir=str(out))
        self._tamper_every_cell(out)
        resumed = run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        assert all(c.result["metrics"]["sentinel"] == 1.0 for c in resumed.cells)
        assert not recwarn.list

    def test_a_fresh_run_over_old_cells_leaves_none_to_trust(self, tmp_path):
        # Interrupted before its first cell was stored, a fresh run over
        # another version's directory must not leave those cells behind
        # for a later resume to take as this version's.
        campaign = _campaign(seeds=1)
        out = tmp_path / "sweep"
        run_campaign(campaign, workers=1, out_dir=str(out))
        (out / VERSION_FILE).write_text("0\n")
        os.remove(out / "campaign.json")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                campaign, workers=1, out_dir=str(out),
                on_cell=lambda cell: (_ for _ in ()).throw(KeyboardInterrupt),
            )
        cells = [f for f in os.listdir(out) if f.startswith("cell-")]
        assert len(cells) == 1  # the one cell this run stored
        assert (out / VERSION_FILE).read_text() == f"{RESULTS_VERSION}\n"


class TestInterruptedWrites:
    """Cell files and ``campaign.json`` are written beside their target
    and moved into place: a write that dies half way leaves the previous
    file (or none), never a truncated one, and resume converges."""

    def test_a_cell_dump_that_raises_leaves_no_truncated_cell(
        self, tmp_path, monkeypatch
    ):
        campaign = _campaign(seeds=1)
        clean = tmp_path / "clean"
        run_campaign(campaign, workers=1, out_dir=str(clean))
        dumps = json.dumps

        def half_dump(obj, fh, **kwargs):
            text = dumps(obj, **kwargs)
            fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        out = tmp_path / "sweep"
        monkeypatch.setattr(json, "dump", half_dump)
        with pytest.raises(OSError, match="disk full"):
            run_campaign(campaign, workers=1, out_dir=str(out))
        monkeypatch.undo()
        assert os.listdir(out) == []
        with pytest.warns(RuntimeWarning, match="re-running every cell"):
            run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        assert sorted(os.listdir(out)) == sorted(os.listdir(clean))
        for name in os.listdir(clean):
            assert (out / name).read_bytes() == (clean / name).read_bytes()

    def test_a_campaign_dump_that_raises_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        campaign = _campaign(seeds=1)
        out = tmp_path / "sweep"
        run_campaign(campaign, workers=1, out_dir=str(out))
        before = sorted(os.listdir(out))
        finished = (out / "campaign.json").read_bytes()

        def broken(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(CampaignResult, "to_json", broken)
        with pytest.raises(OSError, match="disk full"):
            run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        monkeypatch.undo()
        assert sorted(os.listdir(out)) == before
        assert (out / "campaign.json").read_bytes() == finished
        run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
        assert (out / "campaign.json").read_bytes() == finished
