"""Case parsing, validation, and round-trip serialization."""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popflow.errors import SchemaError, ValidationError
from popflow.grid import (SRC_WIND, StochasticSource, case_hash, parse_case, serialize_case,
                          validate_case)

from conftest import (gaussian_source, make_branch, make_bus, make_case, make_gen,
                      two_bus_case)


def minimal_doc():
    return {
        "format_version": 1,
        "system": {"base_mva": 100.0},
        "buses": [
            {"id": 0, "kind": "slack", "v_min": 0.9, "v_max": 1.1,
             "p_load_mw": 0.0, "q_load_mvar": 0.0},
            {"id": 1, "kind": "pq", "v_min": 0.9, "v_max": 1.1,
             "p_load_mw": 40.0, "q_load_mvar": 10.0},
        ],
        "branches": [
            {"from_bus": 0, "to_bus": 1, "r": 0.01, "x": 0.1, "b_sh": 0.02,
             "p_limit_mw": 200.0},
        ],
        "generators": [
            {"bus": 0, "p_min_mw": 0.0, "p_max_mw": 100.0,
             "cost_a": 0.01, "cost_b": 20.0, "cost_c": 5.0},
        ],
        "sources": [],
    }


def test_minimal_two_bus_document_parses():
    case = parse_case(json.dumps(minimal_doc()))
    assert case.n_bus == 2
    assert case.buses[1].p_load == pytest.approx(0.40)
    assert case.buses[1].q_load == pytest.approx(0.10)
    # cost coefficients scale with base: a by base^2, b by base
    assert case.generators[0].cost_a == pytest.approx(0.01 * 100.0 ** 2)
    assert case.generators[0].cost_b == pytest.approx(20.0 * 100.0)
    assert case.generators[0].cost_c == pytest.approx(5.0)


def test_two_slack_buses_rejected():
    doc = minimal_doc()
    doc["buses"][1]["kind"] = "slack"
    doc["generators"].append({"bus": 1, "p_min_mw": 0.0, "p_max_mw": 10.0,
                              "cost_a": 0.0, "cost_b": 1.0, "cost_c": 0.0})
    with pytest.raises(ValidationError, match="exactly one Slack bus"):
        parse_case(json.dumps(doc))


def test_bundled_case14_connected(case14):
    """Connectivity re-checked here with an independent BFS."""
    assert case14.n_bus == 14
    adj = {i: set() for i in range(case14.n_bus)}
    for br in case14.branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u] - seen:
                seen.add(v)
                nxt.append(v)
        frontier = nxt
    assert seen == set(range(14))
    assert validate_case(case14) == []


def test_missing_field_names_path():
    doc = minimal_doc()
    del doc["buses"][1]["v_min"]
    with pytest.raises(SchemaError, match=r"buses\[1\].v_min"):
        parse_case(json.dumps(doc))


def test_ill_typed_field_names_path():
    doc = minimal_doc()
    doc["branches"][0]["x"] = "not a number"
    with pytest.raises(SchemaError, match=r"branches\[0\].x"):
        parse_case(json.dumps(doc))


def test_not_json_is_schema_error():
    with pytest.raises(SchemaError):
        parse_case("system { base_mva 100 }")


def test_unknown_format_version():
    doc = minimal_doc()
    doc["format_version"] = 99
    with pytest.raises(SchemaError, match="version"):
        parse_case(json.dumps(doc))


def test_validate_valid_case_empty():
    assert validate_case(two_bus_case()) == []


def test_validate_zero_reactance_branch():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.1)],
        branches=[make_branch(0, 1, x=0.0)],
        generators=[make_gen(0)],
    )
    violations = validate_case(case)
    assert violations == ["branch 0: x must be nonzero"]


def test_validate_generator_equal_limits():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.1)],
        branches=[make_branch(0, 1)],
        generators=[make_gen(0, p_min=1.0, p_max=1.0)],
    )
    violations = validate_case(case)
    assert len(violations) == 1
    assert "generator 0" in violations[0]


def test_validate_disconnected_graph():
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=0.1), make_bus(2, "pq")],
        branches=[make_branch(0, 1)],
        generators=[make_gen(0)],
    )
    assert any("not connected" in v for v in validate_case(case))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_validate_reports_every_non_finite_number(value):
    """A case built in code skips the parser's finite check; validation names
    each non-finite field, and a finite case reports none."""
    case = make_case(
        buses=[make_bus(0, "slack"), make_bus(1, "pq", p=value)],
        branches=[make_branch(0, 1, b_sh=value)],
        generators=[make_gen(0, p_max=value, a=value)],
        sources=[gaussian_source(1, mean=value, std=0.1)],
        base_mva=value,
    )
    violations = validate_case(case)
    for entity, name in [("system", "base_mva"), ("bus 1", "p_load"), ("branch 0", "b_sh"),
                         ("generator 0", "p_max"), ("generator 0", "cost_a"),
                         ("source 0", "mean")]:
        assert f"{entity}: {name} must be finite, got {value}" in violations
    assert not any("must be finite" in v for v in validate_case(two_bus_case()))


def test_validate_source_parameters():
    bad = two_bus_case()
    bad.sources[0].params["std"] = -1.0
    assert any("std must be positive" in v for v in validate_case(bad))


def test_validate_refuses_a_negative_cut_in_speed():
    params = {"weibull_shape": 2.0, "weibull_scale": 8.0, "cut_in": -1.0,
              "rated_speed": 12.0, "cut_out": 25.0, "rated": 0.4}
    base = two_bus_case()
    case = make_case(base.buses, base.branches, base.generators,
                     [StochasticSource(bus=1, kind=SRC_WIND, params=params)])
    assert validate_case(case) == ["source 0: requires 0 <= cut_in < rated_speed < cut_out"]
    params["cut_in"] = 0.0
    assert validate_case(case) == []


@pytest.mark.parametrize("name", ["twobus", "case14"])
def test_round_trip_bundled(name, request):
    case = request.getfixturevalue({"twobus": "twobus", "case14": "case14"}[name])
    again = parse_case(serialize_case(case))
    assert again.n_bus == case.n_bus
    for b1, b2 in zip(case.buses, again.buses):
        assert b1.kind == b2.kind
        assert b2.p_load == pytest.approx(b1.p_load, rel=1e-12, abs=1e-15)
        assert b2.q_load == pytest.approx(b1.q_load, rel=1e-12, abs=1e-15)
    for g1, g2 in zip(case.generators, again.generators):
        assert g2.cost_a == pytest.approx(g1.cost_a, rel=1e-12)
        assert g2.p_max == pytest.approx(g1.p_max, rel=1e-12)
    for s1, s2 in zip(case.sources, again.sources):
        assert s1.kind == s2.kind and s1.corr_group == s2.corr_group
        for key, val in s1.params.items():
            assert s2.params[key] == pytest.approx(val, rel=1e-12, abs=1e-15)
    # canonical hash is stable through the round trip
    assert case_hash(again) == case_hash(case)


def test_everything_parse_accepts_validates_clean(case14, twobus):
    for case in (case14, twobus):
        assert validate_case(parse_case(serialize_case(case))) == []


def test_case_hashes_are_pinned(case14, twobus):
    """The canonical form of the bundled cases keeps its bytes."""
    assert case_hash(case14) == "b7cd7016afb467483b4e36f0bdf9059ab7925b877e7fc2089e6ee8d131351cca"
    assert case_hash(twobus) == "cef68976db89badfb69edee20bd55483aa3ddb656cabdab8d09950a5df0893c4"


# the format's units, written out: file value -> attribute, and back, on base_mva
UNITS = {
    "as is": (lambda v, base: v, lambda v, base: v),
    "MW": (lambda v, base: v / base, lambda v, base: v * base),
    "$/MW^2h": (lambda v, base: v * base * base, lambda v, base: v / (base * base)),
    "$/MWh": (lambda v, base: v * base, lambda v, base: v / base),
}
# (file field, attribute, unit) of each element, in serialized order
FIELDS = {
    "buses": [("id", "id", "as is"), ("kind", "kind", "as is"), ("v_min", "v_min", "as is"),
              ("v_max", "v_max", "as is"), ("p_load_mw", "p_load", "MW"),
              ("q_load_mvar", "q_load", "MW")],
    "branches": [("from_bus", "from_bus", "as is"), ("to_bus", "to_bus", "as is"),
                 ("r", "r", "as is"), ("x", "x", "as is"), ("b_sh", "b_sh", "as is"),
                 ("p_limit_mw", "p_limit", "MW")],
    "generators": [("bus", "bus", "as is"), ("p_min_mw", "p_min", "MW"),
                   ("p_max_mw", "p_max", "MW"), ("cost_a", "cost_a", "$/MW^2h"),
                   ("cost_b", "cost_b", "$/MWh"), ("cost_c", "cost_c", "as is")],
}
SOURCE_PARAMS = {
    "gaussian_load": [("mean_mw", "mean", "MW"), ("std_mw", "std", "MW"),
                      ("power_factor", "power_factor", "as is")],
    "wind": [("weibull_shape", "weibull_shape", "as is"), ("weibull_scale", "weibull_scale", "as is"),
             ("cut_in", "cut_in", "as is"), ("rated_speed", "rated_speed", "as is"),
             ("cut_out", "cut_out", "as is"), ("rated_mw", "rated", "MW")],
    "pv": [("alpha", "alpha", "as is"), ("beta", "beta", "as is"), ("rated_mw", "rated", "MW")],
}


def number(lo, hi):
    """A file number in [lo, hi]: a float, or an integer literal."""
    return st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))


@st.composite
def case_documents(draw):
    """Valid case documents of 2 to 5 buses on a chain, a generator at every
    slack and PV bus, and 1 to 5 sources of every kind, with and without a
    correlation group."""
    n = draw(st.integers(2, 5))
    kinds = ["slack"] + draw(st.lists(st.sampled_from(["pv", "pq"]), min_size=n - 1, max_size=n - 1))
    buses = [{"id": i, "kind": kind, "v_min": draw(st.floats(0.8, 0.95)),
              "v_max": draw(st.floats(1.05, 1.2)), "p_load_mw": draw(number(-500, 500)),
              "q_load_mvar": draw(number(-500, 500))} for i, kind in enumerate(kinds)]
    branches = [{"from_bus": i - 1, "to_bus": i, "r": draw(number(0, 1)),
                 "x": draw(st.floats(0.01, 1)), "b_sh": draw(number(0, 1)),
                 "p_limit_mw": draw(number(1, 1e4))} for i in range(1, n)]
    generators = []
    for i, kind in enumerate(kinds):
        if kind != "pq":
            p_min = draw(number(0, 100))
            generators.append({"bus": i, "p_min_mw": p_min, "p_max_mw": p_min + draw(number(1, 1000)),
                               "cost_a": draw(number(0, 1)), "cost_b": draw(number(0, 100)),
                               "cost_c": draw(number(0, 1000))})
    params = {
        "gaussian_load": lambda: {"mean_mw": draw(number(-100, 100)), "std_mw": draw(number(0.1, 100)),
                                  "power_factor": draw(st.floats(0.5, 1.0))},
        "wind": lambda: {"weibull_shape": draw(number(0.5, 5)), "weibull_scale": draw(number(1, 20)),
                         "cut_in": draw(st.floats(0, 4)), "rated_speed": draw(st.floats(5, 15)),
                         "cut_out": draw(st.floats(16, 30)), "rated_mw": draw(number(1, 500))},
        "pv": lambda: {"alpha": draw(number(0.1, 10)), "beta": draw(number(0.1, 10)),
                       "rated_mw": draw(number(1, 500))},
    }
    sources = []
    for kind in draw(st.lists(st.sampled_from(sorted(params)), min_size=1, max_size=5)):
        source = {"bus": draw(st.integers(0, n - 1)), "kind": kind, **params[kind]()}
        group = draw(st.sampled_from([None, "a", "b"]))
        if group is not None:
            source["corr_group"] = group
        sources.append(source)
    return {"format_version": 1, "system": {"base_mva": draw(number(0.5, 1e5))}, "buses": buses,
            "branches": branches, "generators": generators, "sources": sources}


def same_bits(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


@settings(max_examples=150, deadline=None)
@given(case_documents())
def test_each_field_converts_by_its_unit(doc):
    """Each parsed attribute is its unit's float operation on the file value,
    bit for bit, and ``serialize_case`` writes each field, in file order, by
    the inverse operation on the attribute."""
    case = parse_case(json.dumps(doc))
    written = json.loads(serialize_case(case))
    base = float(doc["system"]["base_mva"])
    assert same_bits(case.base_mva, base) and same_bits(written["system"]["base_mva"], base)

    def check(raw, values, out, rows):
        for name, attr, unit in rows:
            to_pu, from_pu = UNITS[unit]
            file_value = float(raw[name]) if isinstance(values[attr], float) else raw[name]
            assert same_bits(values[attr], to_pu(file_value, base)), name
            assert same_bits(out[name], from_pu(values[attr], base)), name

    for section, rows in FIELDS.items():
        assert len(written[section]) == len(doc[section])
        for raw, element, out in zip(doc[section], getattr(case, section), written[section]):
            check(raw, vars(element), out, rows)
            assert list(out) == [name for name, _, _ in rows]
    for raw, source, out in zip(doc["sources"], case.sources, written["sources"]):
        rows = SOURCE_PARAMS[raw["kind"]]
        check(raw, {"bus": source.bus, "kind": source.kind}, out,
              [("bus", "bus", "as is"), ("kind", "kind", "as is")])
        check(raw, source.params, out, rows)
        assert sorted(source.params) == sorted(attr for _, attr, _ in rows)
        assert source.corr_group == raw.get("corr_group")
        groups = ["corr_group"] if "corr_group" in raw else []
        assert list(out) == ["bus", "kind", *(name for name, _, _ in rows), *groups]


@pytest.mark.parametrize("section", ["buses", "sources"])
def test_an_unknown_kind_keeps_its_message(section):
    doc = minimal_doc()
    doc["sources"] = [{"bus": 1, "kind": "gaussian_load", "mean_mw": 40.0, "std_mw": 4.0,
                       "power_factor": 0.95}]
    parse_case(json.dumps(doc))
    doc[section][0]["kind"] = "delta"
    with pytest.raises(SchemaError) as info:
        parse_case(json.dumps(doc))
    element = {"buses": "bus", "sources": "source"}[section]
    assert (info.value.path, info.value.message) == (f"$.{section}[0].kind",
                                                     f"unknown {element} kind 'delta'")
