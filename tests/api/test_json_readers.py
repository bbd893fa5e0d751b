"""Untrusted JSON is refused, never a traceback.

Each reader of user-supplied JSON — spec and campaign files, the CLI's
component params, resumed campaign cells — turns bytes that are not
UTF-8 and nesting deeper than the parser's recursion limit into its
typed error, like any other malformed input.
"""

import dataclasses
import json
import os

import pytest

from repro.api import ExperimentSpec, SpecError
from repro.api.__main__ import main
from repro.campaign import CampaignSpec, run_campaign, small_campaign

NOT_UTF8 = b"\xff\xfe"
TOO_DEEP = b"[" * 100_000


@pytest.mark.parametrize("flag", ["--spec", "--campaign"])
@pytest.mark.parametrize("body", [NOT_UTF8, TOO_DEEP], ids=["not-utf8", "too-deep"])
def test_cli_file_is_a_usage_error(tmp_path, capsys, flag, body):
    path = tmp_path / "input.json"
    path.write_bytes(body)
    assert main([flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_component_param_too_deep_is_a_usage_error(capsys):
    assert main(["--scenario", "pair_transfer",
                 "--summary", "minwise:entries=" + "[" * 100_000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("cls", [ExperimentSpec, CampaignSpec])
def test_from_json_too_deep_is_a_spec_error(cls):
    with pytest.raises(SpecError, match="nests deeper"):
        cls.from_json(TOO_DEEP.decode())


@pytest.mark.parametrize("body", [NOT_UTF8, TOO_DEEP], ids=["not-utf8", "too-deep"])
def test_resume_reruns_an_unreadable_cell(tmp_path, body):
    out = tmp_path / "sweep"
    campaign = dataclasses.replace(small_campaign("pair_transfer"), seeds=1)
    first = run_campaign(campaign, workers=1, out_dir=str(out))
    cell = next(f for f in sorted(os.listdir(out)) if f.startswith("cell-"))
    (out / cell).write_bytes(body)
    resumed = run_campaign(campaign, workers=1, out_dir=str(out), resume=True)
    assert resumed.to_json() == first.to_json()
    json.loads((out / cell).read_text())  # re-run and rewritten

