"""Scenario and planner configuration: JSON schemas, parsing, canonical output.

All files are JSON with a canonical writer (sorted keys, fixed separators) so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

from .costs import CostWeights
from .errors import ScenarioError
from .sampler import SamplerConfig, StageSchedule
from .world import AgentState, DynamicsLimits, Footprint, Lane, LaneGraph


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()[:16]


def _keys(doc, allowed, where: str) -> dict:
    """doc itself, after checking it is an object with no key outside allowed."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(map(str, unknown))}")
    return doc


def _finite(where: str, *values) -> tuple:
    """values as floats, after checking that each is finite."""
    out = tuple(map(float, values))
    if not all(map(math.isfinite, out)):
        raise ScenarioError(f"{where} needs finite numbers, got {list(values)}")
    return out


def _state_from(d: dict) -> AgentState:
    _keys(d, ("x", "y", "v", "psi"), "state")
    return AgentState(*_finite("state", d["x"], d["y"], d["v"], d["psi"]))


def state_to_dict(s: AgentState) -> dict:
    return {"x": s.x, "y": s.y, "v": s.v, "psi": s.psi}


def _footprint_from(d: dict) -> Footprint:
    _keys(d, ("length", "width"), "footprint")
    return Footprint(*_finite("footprint", d["length"], d["width"]))


_BEHAVIOR_KINDS = ("lane_follow", "cut_in")
# behaviour fields the simulator reads as numbers: any agent's, and a cut-in's
_BEHAVIOR_NUMBERS = ("target_speed",)
_CUT_IN_NUMBERS = ("probability", "brake_probability", "trigger_time", "brake_duration", "brake_decel")


def _behavior(b: dict, lane_map: LaneGraph, aid: str) -> dict:
    """b itself, after checking the simulator can run it: its kind (lane
    following when missing) is one it knows, each field it reads as a number
    is one, and a cut-in's target_lane names a lane of the map. Other keys
    stay free-form."""
    if b.get("kind", "lane_follow") not in _BEHAVIOR_KINDS:
        raise ScenarioError(f"agent {aid}: unknown behavior kind {b['kind']!r}")
    numbers = _BEHAVIOR_NUMBERS
    if b.get("kind") == "cut_in":
        if b.get("target_lane") not in [lane.id for lane in lane_map.lanes]:
            raise ScenarioError(f"agent {aid}: cut_in target_lane {b.get('target_lane')!r} names no lane")
        numbers += _CUT_IN_NUMBERS
    for key in numbers:
        if key in b and (isinstance(b[key], bool) or not isinstance(b[key], (int, float))):
            raise ScenarioError(f"agent {aid}: behavior {key} must be a number, got {b[key]!r}")
    return b


@dataclass(frozen=True)
class AgentSpec:
    id: str
    state: AgentState
    footprint: Footprint
    behavior: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    lane_map: LaneGraph
    ego_state: AgentState
    ego_footprint: Footprint
    goal: tuple
    agents: tuple = ()
    raw: dict = field(default_factory=dict, compare=False)


def parse_scenario(doc: dict) -> ScenarioSpec:
    try:
        _keys(doc, ("name", "map", "ego", "agents"), "scenario")
        map_doc = _keys(doc["map"], ("lanes", "drivable_area"), "map")
        lanes = []
        for l in map_doc["lanes"]:
            _keys(l, ("id", "centerline", "speed_limit", "successors"), "lane")
            lanes.append(
                Lane(
                    id=str(l["id"]),
                    centerline=l["centerline"],
                    speed_limit=float(l.get("speed_limit", 13.0)),
                    successors=tuple(l.get("successors", ())),
                )
            )
        if not map_doc["drivable_area"]:
            raise ScenarioError("map needs at least one drivable-area polygon")
        lane_map = LaneGraph(lanes=tuple(lanes), drivable_area=tuple(map_doc["drivable_area"]))
        ego = _keys(doc["ego"], ("state", "footprint", "goal"), "ego")
        if not isinstance(ego["goal"], (list, tuple)) or len(ego["goal"]) != 2:
            raise ScenarioError(f"ego goal must be two numbers, got {ego['goal']!r}")
        agents = []
        seen = set()
        for a in doc.get("agents", ()):
            _keys(a, ("id", "state", "footprint", "behavior"), "agent")
            aid = str(a["id"])
            if aid in seen:
                raise ScenarioError(f"duplicate agent id {aid}")
            seen.add(aid)
            agents.append(
                AgentSpec(
                    id=aid,
                    state=_state_from(a["state"]),
                    footprint=_footprint_from(a["footprint"]),
                    behavior=_behavior(dict(a.get("behavior", {})), lane_map, aid),
                )
            )
        return ScenarioSpec(
            name=str(doc.get("name", "scenario")),
            lane_map=lane_map,
            ego_state=_state_from(ego["state"]),
            ego_footprint=_footprint_from(ego["footprint"]),
            goal=_finite("ego goal", *ego["goal"]),
            agents=tuple(agents),
            raw=doc,
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def load_scenario(path) -> ScenarioSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(doc)


@dataclass(frozen=True)
class PredictorConfig:
    kind: str = "kinematic"
    branching_factor: int = 4
    maintain_prior: float = 0.7
    brake_prior: float = 0.3
    b_decel: float = 4.0
    tau_yield: float = 3.0
    yield_boost: float = 2.0

    def __post_init__(self):
        if self.branching_factor < 1:
            raise ValueError("branching_factor must be >= 1")
        m, b = self.maintain_prior, self.brake_prior
        if not (m >= 0 and b >= 0 and m + b > 0):
            raise ValueError("maintain_prior and brake_prior must be nonnegative with a positive sum")


@dataclass(frozen=True)
class OUParams:
    theta: float = 0.5
    mu: float = 0.0
    sigma: float = 0.2


@dataclass(frozen=True)
class SpawnConfig:
    enabled: bool = False
    rate: float = 6.0  # agents per minute
    radius_min: float = 20.0
    radius_max: float = 50.0
    max_agents: int = 8


@dataclass(frozen=True)
class SimConfig:
    total_duration: float = 10.0
    sim_dt: float = 0.1
    replan_period: float = 2.0
    spawn: SpawnConfig = field(default_factory=SpawnConfig)
    ou: OUParams = field(default_factory=OUParams)
    seed: int = 0

    def __post_init__(self):
        if self.sim_dt <= 0 or self.replan_period <= 0:
            raise ValueError("sim_dt and replan_period must be positive")
        if round(self.total_duration / self.sim_dt) < 1:
            raise ValueError("total_duration must cover at least one sim_dt step")
        for name in ("total_duration", "replan_period"):
            steps = getattr(self, name) / self.sim_dt
            if abs(steps - round(steps)) > 1e-9:
                raise ValueError(f"{name} must be a multiple of sim_dt")
        if self.spawn.radius_min >= self.spawn.radius_max:
            raise ValueError("spawn radius band must be increasing")


@dataclass(frozen=True)
class PlannerConfig:
    """Everything a closed-loop run needs besides the scenario."""

    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    schedule: StageSchedule = field(default_factory=lambda: StageSchedule.uniform(2))
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    weights: CostWeights = field(default_factory=CostWeights)
    planner: str = "tpp"
    ncr_worst_case: bool = False
    sim: SimConfig = field(default_factory=SimConfig)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# what a JSON value must be for a field of each annotated type; a tuple is a grid
_VALUE_CHECKS = {
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}
_SECTION = "section"  # an object, checked where it is parsed
_CONFIG_TYPES = {
    "planner": "str",
    "ncr_worst_case": "bool",
    "seed": "int",
    **dict.fromkeys(("sampler", "limits", "schedule", "predictor", "cost", "sim"), _SECTION),
}
_SCHEDULE_TYPES = {"num_stages": "int", "stage_duration": "float", "dt": "float"}
_PREDICTOR_KINDS = ("kinematic",)


def _field_types(cls, *exclude) -> dict:
    """Field name -> annotation of a config dataclass; dataclass fields are sections."""
    return {
        f.name: f.type if f.type in _VALUE_CHECKS else _SECTION
        for f in dataclasses.fields(cls)
        if f.name not in exclude
    }


def _typed(doc, types: dict, where: str) -> dict:
    """A copy of doc after checking that it is an object, that each key is
    one of types and that each value is what its type takes: bools, JSON
    integers, numbers, strings, lists of numbers, never coerced. Numbers of
    float fields come out as floats and grids as tuples of floats."""
    out = dict(_keys(doc, types, where))
    for key, value in doc.items():
        if types[key] == _SECTION:
            continue
        noun, ok = _VALUE_CHECKS[types[key]]
        if not ok(value):
            raise ScenarioError(f"{where} {key} must be {noun}, got {value!r}")
        if types[key] == "float":
            out[key] = float(value)
        elif types[key] == "tuple":
            out[key] = tuple(float(x) for x in value)
    return out


def parse_planner_config(doc: dict) -> PlannerConfig:
    try:
        top = _typed(doc, _CONFIG_TYPES, "planner config")
        limits = DynamicsLimits(**_typed(top.get("limits", {}), _field_types(DynamicsLimits), "limits"))
        sampler = SamplerConfig(
            **_typed(top.get("sampler", {}), _field_types(SamplerConfig, "limits"), "sampler"), limits=limits
        )
        sched = _typed(top.get("schedule", {}), _SCHEDULE_TYPES, "schedule")
        schedule = StageSchedule.uniform(**{"num_stages": 2, **sched})
        pred = _typed(top.get("predictor", {}), _field_types(PredictorConfig), "predictor")
        predictor = PredictorConfig(**pred)
        if predictor.kind not in _PREDICTOR_KINDS:
            raise ScenarioError(f"unknown predictor kind {predictor.kind!r}")
        weights = CostWeights(**_typed(top.get("cost", {}), _field_types(CostWeights, "goal"), "cost"))
        sim_doc = _typed(top.get("sim", {}), _field_types(SimConfig, "seed"), "sim")
        spawn = SpawnConfig(**_typed(sim_doc.pop("spawn", {}), _field_types(SpawnConfig), "sim.spawn"))
        ou = OUParams(**_typed(sim_doc.pop("ou", {}), _field_types(OUParams), "sim.ou"))
        sim = SimConfig(spawn=spawn, ou=ou, seed=top.get("seed", 0), **sim_doc)
        return PlannerConfig(
            sampler=sampler,
            schedule=schedule,
            predictor=predictor,
            weights=weights,
            planner=top.get("planner", "tpp"),
            ncr_worst_case=top.get("ncr_worst_case", False),
            sim=sim,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid planner config: {exc}") from exc


def load_planner_config(path) -> PlannerConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    return parse_planner_config(doc)


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "name": spec.name,
        "map": {
            "lanes": [
                {
                    "id": lane.id,
                    "centerline": [[float(x), float(y)] for x, y in lane.centerline],
                    "speed_limit": lane.speed_limit,
                    "successors": list(lane.successors),
                }
                for lane in spec.lane_map.lanes
            ],
            "drivable_area": [
                [[float(x), float(y)] for x, y in poly] for poly in spec.lane_map.drivable_area
            ],
        },
        "ego": {
            "state": state_to_dict(spec.ego_state),
            "footprint": {"length": spec.ego_footprint.length, "width": spec.ego_footprint.width},
            "goal": [spec.goal[0], spec.goal[1]],
        },
        "agents": [
            {
                "id": a.id,
                "state": state_to_dict(a.state),
                "footprint": {"length": a.footprint.length, "width": a.footprint.width},
                "behavior": a.behavior,
            }
            for a in spec.agents
        ],
    }
