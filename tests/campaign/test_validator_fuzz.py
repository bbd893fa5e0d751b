"""Both result validators refuse a bad file with ResultSchemaError, in time.

``validate_result_dict`` and ``validate_campaign_dict`` (which
``CampaignResult.from_dict`` returns) read files a user hands in:
``--resume``'s cells, CI's smoke loads, an archived campaign.  Starting
from a real ``pair_transfer`` result and a real small campaign file,
every field path is set to each of :data:`BAD_VALUES` in turn.  The one
exception allowed out is :class:`ResultSchemaError`, and every call must
finish within :data:`DEADLINE` seconds: a bare ``OverflowError``, a
``KeyError`` or a stall is a bug.  A list is walked through its first
element.
"""

import json
import signal

import pytest

from repro.api import registry, run
from repro.api.result import ResultSchemaError, validate_result_dict
from repro.campaign import run_campaign, small_campaign, validate_campaign_dict

BAD_VALUES = [None, [], {}, "x", 10**400, -1, 1.5, True]

#: Seconds one validation may take.
DEADLINE = 2.0

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs SIGALRM"
)


class Stalled(Exception):
    pass


def _on_alarm(signum, frame):
    raise Stalled()


def within_deadline(call):
    """``call()``, or :class:`Stalled` once :data:`DEADLINE` passes."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _paths(node, prefix=()):
    """Every field path under ``node``; a list's through its first element."""
    if prefix:
        yield prefix
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], prefix + (key,))
    elif isinstance(node, list) and node:
        yield from _paths(node[0], prefix + (0,))


def _with(data, path, value):
    """A copy of ``data`` with the field at ``path`` set to ``value``."""
    copy = json.loads(json.dumps(data))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def _escapes(validate, data):
    """What got out of ``validate`` for each bad value at each path."""
    escaped = []
    for path in _paths(data):
        for value in BAD_VALUES:
            bad = _with(data, path, value)
            try:
                within_deadline(lambda: validate(bad))
            except ResultSchemaError:
                pass
            except Exception as exc:  # a stall included
                name = "10**400" if value == 10**400 else repr(value)
                escaped.append(f"{'.'.join(map(str, path))}={name}: {exc!r:.120}")
    return escaped


@pytest.fixture(scope="module")
def result():
    spec = registry.small_spec("pair_transfer")
    return json.loads(run(spec).to_json(include_series=True))


@pytest.fixture(scope="module")
def campaign_file():
    return json.loads(run_campaign(small_campaign("pair_transfer", seeds=1)).to_json())


def test_the_untouched_files_validate(result, campaign_file):
    validate_result_dict(result)
    validate_campaign_dict(campaign_file)


def test_a_bad_result_field_is_refused_in_time(result):
    assert _escapes(validate_result_dict, result) == []


def test_a_bad_campaign_field_is_refused_in_time(campaign_file):
    assert _escapes(validate_campaign_dict, campaign_file) == []


# Each escaped the validator before it checked the case.
@pytest.mark.parametrize(
    "path, value, message",
    [
        (("cells", 0, "result", "metrics", "overhead"), 10**400,
         "metric 'overhead' must be finite"),
        (("campaign", "seeds"), 10**400, "CampaignSpec.seeds must be finite"),
        # Finite, but expanding it would never end: the cells are counted first.
        (("campaign", "seeds"), 10**12, "its campaign expands to 2000000000000"),
        (("campaign", "base", "scenario"), "no_such_scenario",
         "unknown scenario 'no_such_scenario'"),
    ],
    ids=["metric-int-too-large", "seeds-int-too-large", "seeds-too-many-to-expand",
         "base-scenario-unregistered"],
)
def test_a_campaign_file_case_is_a_schema_error(campaign_file, path, value, message):
    bad = _with(campaign_file, path, value)
    with pytest.raises(ResultSchemaError, match=message):
        within_deadline(lambda: validate_campaign_dict(bad))
