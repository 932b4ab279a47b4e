"""Power-system case model: topology, device parameters, stochastic sources.

A case is stored on disk as a JSON document (``format_version: 1``) with five
sections. Power quantities in the file are in physical units (MW / Mvar);
impedances and voltages are per-unit. Parsing converts everything to per-unit
on ``base_mva`` so the solvers never see a unit again.

File schema
-----------
``system``      ``{"base_mva": float > 0}``
``buses``       ``{"id": int, "kind": "slack"|"pv"|"pq", "v_min": pu, "v_max": pu,
                "p_load_mw": MW, "q_load_mvar": Mvar}``
``branches``    ``{"from_bus": id, "to_bus": id, "r": pu, "x": pu, "b_sh": pu,
                "p_limit_mw": MW}`` (``b_sh`` is the total line charging, split
                half to each end)
``generators``  ``{"bus": id, "p_min_mw": MW, "p_max_mw": MW,
                "cost_a": $/MW^2h, "cost_b": $/MWh, "cost_c": $/h}``
``sources``     ``{"bus": id, "kind": ..., "corr_group": str?}`` plus per kind:
                - ``gaussian_load``: ``mean_mw``, ``std_mw``, ``power_factor``
                - ``wind``: ``weibull_shape``, ``weibull_scale``, ``cut_in``,
                  ``rated_speed``, ``cut_out`` (m/s), ``rated_mw``
                - ``pv``: ``alpha``, ``beta``, ``rated_mw``

Bus ids must be dense 0-based so they double as matrix indices. Slack and PV
buses regulate their voltage magnitude at 1.0 pu.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SchemaError, ValidationError

FORMAT_VERSION = 1

SLACK = "slack"
PV = "pv"
PQ = "pq"
BUS_KINDS = (SLACK, PV, PQ)

SRC_GAUSSIAN_LOAD = "gaussian_load"
SRC_WIND = "wind"
SRC_PV = "pv"
SOURCE_KINDS = (SRC_GAUSSIAN_LOAD, SRC_WIND, SRC_PV)

# file fields per source kind, in file order; an "_mw" field holds the
# per-unit param named without the suffix (MW / base_mva)
_SOURCE_FIELDS = {
    SRC_GAUSSIAN_LOAD: ("mean_mw", "std_mw", "power_factor"),
    SRC_WIND: ("weibull_shape", "weibull_scale", "cut_in", "rated_speed", "cut_out", "rated_mw"),
    SRC_PV: ("alpha", "beta", "rated_mw"),
}


def _param_key(file_field: str) -> str:
    return file_field.removesuffix("_mw")


@dataclass(frozen=True)
class Bus:
    """One network node. Loads are per-unit, consumption positive."""

    id: int
    kind: str
    v_min: float
    v_max: float
    p_load: float
    q_load: float


@dataclass(frozen=True)
class Branch:
    """A pi-model line between two buses (no taps, no phase shift)."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_sh: float
    p_limit: float


@dataclass(frozen=True)
class Generator:
    """Dispatchable unit with quadratic cost a*p^2 + b*p + c, p per-unit."""

    bus: int
    p_min: float
    p_max: float
    cost_a: float
    cost_b: float
    cost_c: float


@dataclass(frozen=True)
class StochasticSource:
    """Random injection at a bus.

    ``params`` holds the per-kind distribution parameters (per-unit powers);
    treat it as read-only. ``corr_group`` groups sources that share a
    correlation matrix during sampling.
    """

    bus: int
    kind: str
    params: dict = field(compare=False)
    corr_group: Optional[str] = None


@dataclass(frozen=True)
class NetworkCase:
    """Immutable case: safe to share across threads once constructed."""

    base_mva: float
    buses: tuple
    branches: tuple
    generators: tuple
    sources: tuple

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    @property
    def n_gen(self) -> int:
        return len(self.generators)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def slack_index(self) -> int:
        for b in self.buses:
            if b.kind == SLACK:
                return b.id
        raise ValidationError("exactly one Slack bus required, found 0")

    def pv_indices(self) -> np.ndarray:
        return np.array([b.id for b in self.buses if b.kind == PV], dtype=int)

    def pq_indices(self) -> np.ndarray:
        return np.array([b.id for b in self.buses if b.kind == PQ], dtype=int)

    def p_load_vector(self) -> np.ndarray:
        return np.array([b.p_load for b in self.buses])

    def q_load_vector(self) -> np.ndarray:
        return np.array([b.q_load for b in self.buses])

    def solution_dim(self) -> int:
        """Length of one OPF solution vector: cost + voltages + gens + flows."""
        return 1 + self.n_bus + self.n_gen + self.n_branch


# ---------------------------------------------------------------------------
# schema helpers


def _expect(obj, key, path, types, type_name):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    val = obj[key]
    if types is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise SchemaError(f"{path}.{key}", f"expected {type_name}, got {type(val).__name__}")
        try:
            num = float(val)
        except OverflowError:   # an integer literal beyond the float range
            num = math.inf
        if not math.isfinite(num):
            raise SchemaError(f"{path}.{key}", f"expected a finite number, got {num}")
        return num
    if not isinstance(val, types) or isinstance(val, bool):
        raise SchemaError(f"{path}.{key}", f"expected {type_name}, got {type(val).__name__}")
    return val


def _num(obj, key, path):
    return _expect(obj, key, path, float, "a number")


def _int(obj, key, path):
    return _expect(obj, key, path, int, "an integer")


def _str(obj, key, path):
    return _expect(obj, key, path, str, "a string")


def _array(obj, key, path):
    return _expect(obj, key, path, list, "an array")


# ---------------------------------------------------------------------------
# parse / serialize


def parse_case(text: str) -> NetworkCase:
    """Parse a case document into a validated per-unit NetworkCase.

    Raises SchemaError for structural problems (with the offending path) and
    ValidationError when the well-formed case violates a model invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")

    version = _int(doc, "format_version", "$")
    if version != FORMAT_VERSION:
        raise SchemaError("$.format_version", f"unsupported version {version}, expected {FORMAT_VERSION}")

    system = _expect(doc, "system", "$", dict, "an object")
    base = _num(system, "base_mva", "$.system")
    if base <= 0:
        raise SchemaError("$.system.base_mva", "must be positive")

    buses = []
    for i, raw in enumerate(_array(doc, "buses", "$")):
        path = f"$.buses[{i}]"
        kind = _str(raw, "kind", path)
        if kind not in BUS_KINDS:
            raise SchemaError(f"{path}.kind", f"unknown bus kind {kind!r}")
        buses.append(Bus(
            id=_int(raw, "id", path),
            kind=kind,
            v_min=_num(raw, "v_min", path),
            v_max=_num(raw, "v_max", path),
            p_load=_num(raw, "p_load_mw", path) / base,
            q_load=_num(raw, "q_load_mvar", path) / base,
        ))

    branches = []
    for i, raw in enumerate(_array(doc, "branches", "$")):
        path = f"$.branches[{i}]"
        branches.append(Branch(
            from_bus=_int(raw, "from_bus", path),
            to_bus=_int(raw, "to_bus", path),
            r=_num(raw, "r", path),
            x=_num(raw, "x", path),
            b_sh=_num(raw, "b_sh", path),
            p_limit=_num(raw, "p_limit_mw", path) / base,
        ))

    generators = []
    for i, raw in enumerate(_array(doc, "generators", "$")):
        path = f"$.generators[{i}]"
        generators.append(Generator(
            bus=_int(raw, "bus", path),
            p_min=_num(raw, "p_min_mw", path) / base,
            p_max=_num(raw, "p_max_mw", path) / base,
            # file coefficients are $/MW^2h and $/MWh; per-unit power scales them up
            cost_a=_num(raw, "cost_a", path) * base * base,
            cost_b=_num(raw, "cost_b", path) * base,
            cost_c=_num(raw, "cost_c", path),
        ))

    sources = []
    for i, raw in enumerate(_array(doc, "sources", "$")):
        path = f"$.sources[{i}]"
        kind = _str(raw, "kind", path)
        if kind not in SOURCE_KINDS:
            raise SchemaError(f"{path}.kind", f"unknown source kind {kind!r}")
        params = {}
        for name in _SOURCE_FIELDS[kind]:
            value = _num(raw, name, path)
            params[_param_key(name)] = value / base if name.endswith("_mw") else value
        corr = raw.get("corr_group")
        if corr is not None and not isinstance(corr, str):
            raise SchemaError(f"{path}.corr_group", "must be a string when present")
        sources.append(StochasticSource(bus=_int(raw, "bus", path), kind=kind,
                                        params=params, corr_group=corr))

    case = NetworkCase(base_mva=base, buses=tuple(buses), branches=tuple(branches),
                       generators=tuple(generators), sources=tuple(sources))
    violations = validate_case(case)
    if violations:
        raise ValidationError(violations)
    return case


def serialize_case(case: NetworkCase) -> str:
    """Render a NetworkCase back to its document form (inverse of parse_case)."""
    base = case.base_mva
    doc = {
        "format_version": FORMAT_VERSION,
        "system": {"base_mva": base},
        "buses": [
            {"id": b.id, "kind": b.kind, "v_min": b.v_min, "v_max": b.v_max,
             "p_load_mw": b.p_load * base, "q_load_mvar": b.q_load * base}
            for b in case.buses
        ],
        "branches": [
            {"from_bus": br.from_bus, "to_bus": br.to_bus, "r": br.r, "x": br.x,
             "b_sh": br.b_sh, "p_limit_mw": br.p_limit * base}
            for br in case.branches
        ],
        "generators": [
            {"bus": g.bus, "p_min_mw": g.p_min * base, "p_max_mw": g.p_max * base,
             "cost_a": g.cost_a / (base * base), "cost_b": g.cost_b / base,
             "cost_c": g.cost_c}
            for g in case.generators
        ],
        "sources": [_serialize_source(s, base) for s in case.sources],
    }
    return json.dumps(doc, indent=1)


def _serialize_source(s: StochasticSource, base: float) -> dict:
    out = {"bus": s.bus, "kind": s.kind}
    for name in _SOURCE_FIELDS[s.kind]:
        value = s.params[_param_key(name)]
        out[name] = value * base if name.endswith("_mw") else value
    if s.corr_group is not None:
        out["corr_group"] = s.corr_group
    return out


def case_hash(case: NetworkCase) -> str:
    """Stable sha256 over the canonical serialized form."""
    return hashlib.sha256(serialize_case(case).encode()).hexdigest()


# ---------------------------------------------------------------------------
# validation


def validate_case(case: NetworkCase) -> list:
    """Return all invariant violations, each naming the entity and rule.

    Total function: never raises, an empty list means the case is valid.
    """
    out = []
    n = case.n_bus

    if case.base_mva <= 0:
        out.append("system: base_mva must be positive")

    slack_count = sum(1 for b in case.buses if b.kind == SLACK)
    if slack_count != 1:
        out.append(f"exactly one Slack bus required, found {slack_count}")

    ids = sorted(b.id for b in case.buses)
    if ids != list(range(n)):
        out.append(f"bus ids must be dense 0..{n - 1} with no gaps")
    for pos, b in enumerate(case.buses):
        if b.id != pos:
            out.append(f"bus at position {pos} has id {b.id}; buses must be listed in id order")
            break
    for b in case.buses:
        if not (0 < b.v_min < b.v_max):
            out.append(f"bus {b.id}: requires 0 < v_min < v_max, got [{b.v_min}, {b.v_max}]")

    valid_ids = set(range(n))
    for i, br in enumerate(case.branches):
        if br.x == 0:
            out.append(f"branch {i}: x must be nonzero")
        if br.from_bus == br.to_bus:
            out.append(f"branch {i}: from_bus equals to_bus ({br.from_bus})")
        if br.from_bus not in valid_ids or br.to_bus not in valid_ids:
            out.append(f"branch {i}: endpoint bus does not exist")
        if not br.p_limit > 0:
            out.append(f"branch {i}: p_limit must be positive")

    for i, g in enumerate(case.generators):
        if not (0 <= g.p_min < g.p_max):
            out.append(f"generator {i}: requires 0 <= p_min < p_max, got [{g.p_min}, {g.p_max}]")
        if g.cost_a < 0:
            out.append(f"generator {i}: cost_a must be nonnegative (convex cost)")
        if g.bus not in valid_ids:
            out.append(f"generator {i}: bus {g.bus} does not exist")
        elif case.buses[g.bus].kind == PQ:
            out.append(f"generator {i}: bus {g.bus} must be Slack or PV")

    for i, s in enumerate(case.sources):
        if s.bus not in valid_ids:
            out.append(f"source {i}: bus {s.bus} does not exist")
        out.extend(f"source {i}: {msg}" for msg in _source_violations(s))

    if n > 0 and not _connected(case):
        out.append("branch graph is not connected")

    return out


def _source_violations(s: StochasticSource) -> list:
    p = s.params
    out = []
    missing = [k for k in map(_param_key, _SOURCE_FIELDS.get(s.kind, ())) if k not in p]
    if missing:
        return [f"missing params {missing}"]
    if s.kind == SRC_GAUSSIAN_LOAD:
        if not p["std"] > 0:
            out.append("std must be positive")
        if not 0 < p["power_factor"] <= 1:
            out.append("power_factor must be in (0, 1]")
    elif s.kind == SRC_WIND:
        if not (p["weibull_shape"] > 0 and p["weibull_scale"] > 0):
            out.append("Weibull shape and scale must be positive")
        if not p["cut_in"] < p["rated_speed"] < p["cut_out"]:
            out.append("requires cut_in < rated_speed < cut_out")
        if not p["rated"] > 0:
            out.append("rated power must be positive")
    elif s.kind == SRC_PV:
        if not (p["alpha"] > 0 and p["beta"] > 0):
            out.append("Beta alpha and beta must be positive")
        if not p["rated"] > 0:
            out.append("rated power must be positive")
    return out


def _connected(case: NetworkCase) -> bool:
    n = case.n_bus
    adj = [[] for _ in range(n)]
    for br in case.branches:
        if br.from_bus in range(n) and br.to_bus in range(n):
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


# ---------------------------------------------------------------------------
# file helpers


def load_case(path) -> NetworkCase:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_case(fh.read())


def bundled_case(name: str) -> NetworkCase:
    """Load one of the cases shipped with the package (e.g. 'case14')."""
    from importlib import resources

    ref = resources.files("popflow").joinpath(f"cases/{name}.json")
    return parse_case(ref.read_text(encoding="utf-8"))
