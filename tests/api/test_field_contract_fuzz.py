"""Fuzz every declared bound from the table itself.

For every scalar field of every spec class (its type from the
annotation, its bounds from :func:`repro.api.spec.bounded`) and every
``params`` key a scenario declares, Hypothesis draws

* in-range values, which must construct and round-trip through JSON
  byte for byte, keeping their type (an int stays an int);
* values just outside the range, plus ``True``, ±inf, NaN and a
  wrong-typed value, which must raise :class:`SpecError` and nothing
  else.

Spec fields are driven through the constructor, ``from_dict``,
``with_override`` (where the field is not inside an array) and the
CLI's ``parse_component_arg`` (where the class is a component);
scenario params through ``with_override`` plus the build gate's
:func:`repro.api.registry.check_params`, a campaign grid and ``build``.
"""

import dataclasses
import json
import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    CatalogSpec,
    ChurnSpec,
    ExperimentSpec,
    LinkRuleSpec,
    LinkSpec,
    MeasurementSpec,
    NodeSpec,
    PopulationSpec,
    ReconfigSpec,
    SpecError,
    StrategySpec,
    SummarySpec,
    SwarmSpec,
    TopologySpec,
    TransportSpec,
    build,
    registry,
)
from repro.api.__main__ import parse_component_arg
from repro.api.spec import COMPONENTS, Bound, contract
from repro.campaign import CampaignSpec, GridAxis
from repro.reconcile import summary_kinds
from repro.topology import generator_names
from repro.transport import transport_policies

FUZZ = settings(max_examples=20, deadline=timedelta(seconds=2))

#: One spec holding every spec class once, at its defaults.
TEMPLATE = ExperimentSpec(
    scenario="x",
    swarm=SwarmSpec(
        nodes=(NodeSpec(),), links=(LinkRuleSpec(),), topology=TopologySpec()
    ),
    strategy=StrategySpec(summary=SummarySpec()),
    churn=ChurnSpec(),
    reconfig=ReconfigSpec(),
    transport=TransportSpec(),
    population=PopulationSpec(),
    catalog=CatalogSpec(),
)

#: Spec class -> where its one instance sits in the template.
HOMES = {
    ExperimentSpec: (),
    SwarmSpec: ("swarm",),
    NodeSpec: ("swarm", "nodes", 0),
    LinkRuleSpec: ("swarm", "links", 0),
    LinkSpec: ("swarm", "links", 0, "link"),
    TopologySpec: ("swarm", "topology"),
    StrategySpec: ("strategy",),
    SummarySpec: ("strategy", "summary"),
    ChurnSpec: ("churn",),
    ReconfigSpec: ("reconfig",),
    TransportSpec: ("transport",),
    MeasurementSpec: ("measurement",),
    PopulationSpec: ("population",),
    CatalogSpec: ("catalog",),
}

#: Hand-written cross-field bounds, at the template's other values.
CROSS = {
    (TransportSpec, "rto_max"): Bound(ge=TransportSpec().rto_min),
    (CatalogSpec, "priority_tiers"): Bound(ge=0, le=CatalogSpec().objects),
}

#: String fields a registry (not the table) holds to known names.
REGISTRY_NAMES = {
    (TopologySpec, "kind"): generator_names(),
    (SummarySpec, "kind"): summary_kinds(),
    (TransportSpec, "policy"): transport_policies(),
}

SCALARS = (int, float, str, bool)
FIELDS = [
    (cls, row) for cls in HOMES for row in contract(cls) if row.type in SCALARS
]
PARAMS = [
    (name, key, bound)
    for name in registry.names()
    for key, bound in registry.get(name).params.items()
]


def _navigate(data, path):
    for key in path:
        data = data[key]
    return data


def _get(obj, path):
    for key in path:
        obj = obj[key] if isinstance(key, int) else getattr(obj, key)
    return obj


def _rebuild(obj, path, value):
    """``obj`` with the spec at ``path`` replaced by ``value``."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        items = list(obj)
        items[head] = _rebuild(items[head], rest, value)
        return tuple(items)
    return dataclasses.replace(obj, **{head: _rebuild(getattr(obj, head), rest, value)})


def _span(bound, default):
    """(lo, hi, lo_open, hi_open) to draw in-range numbers from."""
    base = abs(default or 0)
    lo, lo_open = (bound.ge, False) if bound.ge is not None else (bound.gt, True)
    hi, hi_open = (bound.le, False) if bound.le is not None else (bound.lt, True)
    if lo is None:
        lo, lo_open = -(2 * base + 10), False
    if hi is None:
        hi, hi_open = max(lo, 0) + 2 * base + 10, False
    return lo, hi, lo_open, hi_open


def in_range(kind, bound, default, names=None):
    if names is not None:
        return st.sampled_from(sorted(names))
    if bound.choices:
        return st.sampled_from(bound.choices)
    if kind is bool:
        return st.booleans()
    if kind is str:
        alphabet = st.characters(blacklist_characters=",")
        return st.text(alphabet, min_size=int(bound.nonempty), max_size=8)
    lo, hi, lo_open, hi_open = _span(bound, default)
    ints = st.integers(math.floor(lo) + (lo_open or lo != math.floor(lo)),
                       math.ceil(hi) - (hi_open or hi != math.ceil(hi)))
    if kind is int:
        return ints
    floats = st.floats(lo, hi, exclude_min=lo_open, exclude_max=hi_open)
    return st.one_of(floats, ints) if lo < hi - 1 else floats


def out_of_range(kind, bound):
    bad = [math.nan, math.inf, -math.inf, None]
    if kind is bool:
        bad += [0, 1, "true"]
    else:
        bad += [True, False]
    if kind is str:
        bad += [1, 2.5]
    if kind in (int, float):
        bad.append("1")
    if kind is int:
        bad += [1.5, 2.0]
    if kind is float:
        bad.append(10**400)  # an int no float can hold
    if bound.choices:
        bad += ["not-a-choice", ""]
    if bound.nonempty:
        bad.append("")
    step = 1 if kind is int else None
    if bound.ge is not None:
        bad += [bound.ge - 1] + ([] if step else [math.nextafter(bound.ge, -math.inf)])
    if bound.gt is not None:
        bad += [bound.gt, bound.gt - 1]
    if bound.le is not None:
        bad += [bound.le + 1] + ([] if step else [math.nextafter(bound.le, math.inf)])
    if bound.lt is not None:
        bad.append(bound.lt)
    return st.sampled_from(bad)


def _field_id(item):
    cls, row = item
    return f"{cls.__name__}.{row.name}"


def _bound(cls, row):
    return CROSS.get((cls, row.name), row.bound)


def _drives(cls, name, value):
    """Every route by which ``value`` reaches field ``name`` of ``cls``,
    each returning the resulting :class:`ExperimentSpec`."""
    path = HOMES[cls]
    home = _get(TEMPLATE, path)

    def construct():
        return _rebuild(TEMPLATE, path, dataclasses.replace(home, **{name: value}))

    def from_dict():
        data = json.loads(TEMPLATE.to_json())
        _navigate(data, path)[name] = value
        return ExperimentSpec.from_dict(data)

    drives = {"construct": construct, "from_dict": from_dict}
    if not any(isinstance(key, int) for key in path):
        dotted = ".".join(path + (name,))
        drives["with_override"] = lambda: TEMPLATE.with_override(dotted, value)
    comp = next((c for c in COMPONENTS.values() if c.cls is cls), None)
    if comp is not None and name != comp.kind_field:
        kind = getattr(home, comp.kind_field) + ":" if comp.kind_field else ""
        text = f"{kind}{name}={json.dumps(value)}"
        drives["parse_component_arg"] = lambda: _rebuild(
            TEMPLATE, path, parse_component_arg(comp.name, text)
        )
    return drives


@pytest.mark.parametrize("item", FIELDS, ids=_field_id)
@FUZZ
@given(data=st.data())
def test_in_range_field_values_construct_and_round_trip(item, data):
    cls, row = item
    default = getattr(cls.__dataclass_fields__[row.name], "default", None)
    value = data.draw(in_range(row.type, _bound(cls, row), default,
                               REGISTRY_NAMES.get((cls, row.name))))
    for route, drive in _drives(cls, row.name, value).items():
        spec = drive()
        held = getattr(_get(spec, HOMES[cls]), row.name)
        assert held == value and type(held) is type(value), route
        text = spec.to_json()
        assert ExperimentSpec.from_json(text).to_json() == text, route


@pytest.mark.parametrize("item", FIELDS, ids=_field_id)
@FUZZ
@given(data=st.data())
def test_out_of_range_field_values_raise_only_spec_error(item, data):
    cls, row = item
    value = data.draw(out_of_range(row.type, _bound(cls, row)))
    if value is None and row.optional:
        return
    for route, drive in _drives(cls, row.name, value).items():
        with pytest.raises(SpecError):
            drive()


def test_every_spec_class_and_scalar_field_is_fuzzed():
    assert {cls.__name__ for cls, _ in FIELDS} == {c.__name__ for c in HOMES}
    assert len(FIELDS) > 60 and len(PARAMS) >= 20


# -- campaign fields -----------------------------------------------------------

CAMPAIGN_FIELDS = [
    (cls, row)
    for cls in (CampaignSpec, GridAxis)
    for row in contract(cls)
    if row.type in SCALARS
]


def _campaign_drives(cls, name, value):
    if cls is GridAxis:
        axis = {"key": "strategy.name", "values": ("Random",), name: value}
        return {"construct": lambda: GridAxis(**axis)}
    template = CampaignSpec(base=ExperimentSpec(scenario="x"))

    def from_dict():
        data = template.to_dict()
        data[name] = value
        return CampaignSpec.from_dict(data)

    return {
        "construct": lambda: dataclasses.replace(template, **{name: value}),
        "from_dict": from_dict,
    }


@pytest.mark.parametrize("item", CAMPAIGN_FIELDS, ids=_field_id)
@FUZZ
@given(data=st.data())
def test_campaign_fields(item, data):
    cls, row = item
    default = getattr(cls.__dataclass_fields__[row.name], "default", None)
    good = data.draw(in_range(row.type, row.bound, default).filter(
        lambda v: not (isinstance(v, str) and (v == "seed" or v.startswith("seed.")))
    ))
    bad = data.draw(out_of_range(row.type, row.bound))
    for route, drive in _campaign_drives(cls, row.name, good).items():
        held = getattr(drive(), row.name)
        assert held == good and type(held) is type(good), route
    for route, drive in _campaign_drives(cls, row.name, bad).items():
        with pytest.raises(SpecError):
            drive()


# -- scenario params -------------------------------------------------------------


def _param_id(item):
    return f"{item[0]}.params.{item[1]}"


@pytest.mark.parametrize("item", PARAMS, ids=_param_id)
@FUZZ
@given(data=st.data())
def test_in_range_params_pass_the_gate_and_round_trip(item, data):
    name, key, bound = item
    value = data.draw(in_range(bound.type, bound, bound.default))
    base = registry.small_spec(name)
    spec = base.with_override(f"params.{key}", value)
    held = registry.check_params(spec)[key]
    assert held == value and type(held) is type(value)
    text = spec.to_json()
    assert ExperimentSpec.from_json(text).to_json() == text
    CampaignSpec(base=base, grid=(GridAxis(f"params.{key}", (value,)),))


@pytest.mark.parametrize("item", PARAMS, ids=_param_id)
@FUZZ
@given(data=st.data())
def test_out_of_range_params_raise_only_spec_error(item, data):
    name, key, bound = item
    value = data.draw(out_of_range(bound.type, bound))
    if value is None and bound.default is None:
        return
    base = registry.small_spec(name)
    with pytest.raises(SpecError):
        registry.check_params(base.with_override(f"params.{key}", value))
    with pytest.raises(SpecError):
        build(base.with_params(**{key: value}))
    with pytest.raises(SpecError):
        CampaignSpec(base=base, grid=(GridAxis(f"params.{key}", (value,)),))
