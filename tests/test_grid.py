"""Case parsing, validation, and round-trip serialization."""

import json
import math

import pytest

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
