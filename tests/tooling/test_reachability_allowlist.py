"""The reachability gate's allow-list cannot rot.

``scripts/reachability.py --check`` (a CI job; it traces, so it is not
run here) fails on an unreached function no row excuses, on a row that
excuses nothing on its own, and on more unreached lines than its
``CEILING``.  This checks, without tracing, what
can go stale between its runs: every row still matches a ``def`` under
``src/repro``, says why, and the list stays short; a row that names its
functions names only ``def``s its modules have.
"""

import fnmatch
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "scripts" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = _load_script()
FUNCTIONS = reachability.functions()


def test_the_list_is_short():
    assert len(reachability.ALLOWED) <= 30


def test_the_ceiling_is_an_int_the_check_enforces():
    ceiling = reachability.CEILING
    assert isinstance(ceiling, int) and not isinstance(ceiling, bool)
    at, above = (
        reachability.Function("repro", "f", "repro/__init__.py", 1, 1, lines)
        for lines in (ceiling, ceiling + 1)
    )
    assert not any("CEILING" in f for f in reachability.check([at], io.StringIO()))
    assert any("CEILING" in f for f in reachability.check([above], io.StringIO()))


def _row_id(row):
    name = "|".join(row.name) if isinstance(row.name, tuple) else row.name
    return f"{row.module}:{name}"


@pytest.mark.parametrize(
    "index", range(len(reachability.ALLOWED)),
    ids=[_row_id(row) for row in reachability.ALLOWED],
)
def test_row_matches_a_def_and_gives_a_reason(index):
    row = reachability.ALLOWED[index]
    assert row.reason.strip()
    assert any(index in reachability.matching_rows(fn) for fn in FUNCTIONS), (
        f"ALLOWED[{index}] {row.module} {row.name} matches no def under "
        "src/repro: remove the row"
    )


@pytest.mark.parametrize(
    "index",
    [i for i, row in enumerate(reachability.ALLOWED) if isinstance(row.name, tuple)],
    ids=[_row_id(row) for row in reachability.ALLOWED if isinstance(row.name, tuple)],
)
def test_every_named_function_is_a_def_in_the_row_module(index):
    # A named row lists exact qualified names: one that no longer
    # matches a def (deleted or renamed) must leave the tuple.
    row = reachability.ALLOWED[index]
    assert row.name and len(set(row.name)) == len(row.name)
    defined = {
        fn.qualname for fn in FUNCTIONS
        if fnmatch.fnmatchcase(fn.module, row.module)
    }
    assert set(row.name) <= defined, (
        f"ALLOWED[{index}] names {sorted(set(row.name) - defined)}, which "
        f"no def in {row.module} has"
    )


def test_a_named_row_excuses_only_its_names():
    named = reachability.Function("repro.sim.engine", "_stalled", "p", 1, 1, 1)
    beside = named._replace(qualname="_stalled_too")
    assert reachability.matching_rows(named)
    assert not reachability.matching_rows(beside)


def test_the_walk_sees_methods_and_decorated_defs():
    by_name = {(fn.module, fn.qualname): fn for fn in FUNCTIONS}
    simulator = by_name[("repro.overlay.simulator", "OverlaySimulator.run")]
    assert simulator.first == simulator.def_line
    overhead = by_name[("repro.api.result", "RunResult.overhead")]
    assert overhead.first == overhead.def_line - 1  # its @property line
