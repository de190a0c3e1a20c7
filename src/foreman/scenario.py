"""Grounded world model: sites, robots, tasks, precedence, costs.

Scenarios load from a declarative UTF-8 JSON document with top-level keys
``instruction``, ``site``, ``robots``, ``tasks``, ``dag``, ``cost``,
``resources``, ``safety_rules``.  Loading canonicalizes entity names,
verifies every type invariant, and reports the offending location in the
file on failure.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .plan import Action, ActionKind, GRID_MOVES

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """The scenario file is not valid JSON / not an object."""


class ValidationError(ValueError):
    """A scenario value breaks an invariant; ``where`` is the JSON path."""

    def __init__(self, where: str, reason: str):
        super().__init__(f"{where}: {reason}")
        self.where = where
        self.reason = reason


class ScanFootprint(Enum):
    Self = "self"
    Chebyshev1 = "chebyshev1"
    RowColLos = "row_col_los"


Cell = tuple[int, int]


def cell_id(cell: Cell) -> str:
    return f"({cell[0]},{cell[1]})"


def parse_cell(loc: str) -> Cell | None:
    loc = loc.strip()
    if not (loc.startswith("(") and loc.endswith(")")):
        return None
    parts = loc[1:-1].split(",")
    if len(parts) != 2:
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Site
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteMap:
    """Either a named location graph or a rectangular grid."""

    kind: str  # "named_graph" | "grid"
    nodes: tuple[str, ...] = ()
    edges: tuple[tuple[str, str, float], ...] = ()  # undirected, weight in DU
    width: int = 0
    height: int = 0
    blocked: frozenset[Cell] = frozenset()
    no_go: frozenset[str] = frozenset()
    chargers: frozenset[str] = frozenset()

    def is_grid(self) -> bool:
        return self.kind == "grid"

    def locations(self) -> frozenset[str]:
        if self.is_grid():
            return frozenset(cell_id(c) for c in self.traversable_cells())
        return frozenset(self.nodes)

    def traversable_cells(self) -> frozenset[Cell]:
        return frozenset(
            (x, y)
            for x in range(self.width)
            for y in range(self.height)
            if (x, y) not in self.blocked
        )

    def in_grid(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def edge_weight(self, a: str, b: str) -> float | None:
        for u, v, w in self.edges:
            if {u, v} == {a, b}:
                return w
        return None

    def _steps(self, loc: str) -> list[tuple[str, float]]:
        """Locations one hop from ``loc`` with their DU, in tie-break order."""
        out = []
        if not self.is_grid():
            for u, v, w in self.edges:
                if u == loc:
                    out.append((v, w))
                elif v == loc:
                    out.append((u, w))
            return sorted(out)
        cell = parse_cell(loc)
        if cell is None:
            return out
        for dx, dy in GRID_MOVES.values():  # L, R, U, D
            n = (cell[0] + dx, cell[1] + dy)
            if self.in_grid(n) and n not in self.blocked:
                out.append((cell_id(n), 1.0))
        return out

    def _search(self, a: str, goal: str | None = None) -> dict[str, tuple[str, float] | None]:
        """Dijkstra from ``a``: the hop into each settled location.

        Stops once ``goal`` is settled.  Named graphs pop the frontier by
        (distance, node id); grids pop equal distances first in, first out,
        which is breadth-first in L, R, U, D move order.
        """
        grid = self.is_grid()
        tick = itertools.count()
        dist = {a: 0.0}
        settled: dict[str, tuple[str, float] | None] = {}
        heap = [(0.0, next(tick) if grid else a, a, None)]
        while heap:
            d, _, loc, hop = heapq.heappop(heap)
            if loc in settled:
                continue
            settled[loc] = hop
            if loc == goal:
                break
            for nbr, w in self._steps(loc):
                nd = d + w
                if nd < dist.get(nbr, math.inf):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, next(tick) if grid else nbr, nbr, (loc, w)))
        return settled

    def route(self, a: str, b: str) -> list[tuple[str, float]] | None:
        """Shortest route from ``a`` to ``b`` as (location, DU) hops.

        Empty when ``a == b``; None when ``b`` cannot be reached.
        """
        settled = self._search(a, b)
        if b not in settled:
            return None
        hops = []
        while settled[b] is not None:
            prev, w = settled[b]
            hops.append((b, w))
            b = prev
        return hops[::-1]

    def shortest_path_du(self, a: str, b: str) -> float | None:
        """Length of ``route(a, b)`` in DU; None when unreachable."""
        hops = self.route(a, b)
        if hops is None:
            return None
        du = 0.0
        # left to right, as the search added them: sum() may round differently
        for _, w in hops:
            du += w
        return du

    def scan_footprint(self, cell: Cell, mode: ScanFootprint) -> frozenset[Cell]:
        """Cells a SCAN performed at ``cell`` reveals."""
        out = {cell}
        if mode is ScanFootprint.Self:
            return frozenset(out)
        if mode is ScanFootprint.Chebyshev1:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    n = (cell[0] + dx, cell[1] + dy)
                    if self.in_grid(n) and n not in self.blocked:
                        out.add(n)
            return frozenset(out)
        # Row/column line of sight: extend in each direction until an
        # obstacle or the grid boundary stops the ray.
        for dx, dy in GRID_MOVES.values():
            n = (cell[0] + dx, cell[1] + dy)
            while self.in_grid(n) and n not in self.blocked:
                out.add(n)
                n = (n[0] + dx, n[1] + dy)
        return frozenset(out)


# ---------------------------------------------------------------------------
# Robots, tasks, costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobotSpec:
    id: str
    skills: frozenset[ActionKind]
    payload_capacity: int
    battery_max: float
    battery_init: float
    start_location: str
    cargo_init: int = 0


@dataclass(frozen=True)
class TaskSpec:
    id: str
    type: ActionKind
    required_skills: frozenset[ActionKind]
    location: str
    demand: int
    duration: float


@dataclass(frozen=True)
class PrecedenceDag:
    edges: frozenset[tuple[str, str]]  # (before, after)

    def successors(self, task_id: str) -> set[str]:
        return {b for a, b in self.edges if a == task_id}

    def topological_order(self, task_ids: list[str]) -> list[str] | None:
        """Kahn's algorithm, declaration order among ready tasks; None on cycle."""
        indeg = {t: 0 for t in task_ids}
        for a, b in self.edges:
            indeg[b] += 1
        order = []
        ready = [t for t in task_ids if indeg[t] == 0]
        while ready:
            t = ready.pop(0)
            order.append(t)
            for s in sorted(self.successors(t), key=task_ids.index):
                indeg[s] -= 1
                if indeg[s] == 0:
                    # keep declaration order among newly ready tasks
                    ready.append(s)
                    ready.sort(key=task_ids.index)
        if len(order) != len(task_ids):
            return None
        return order


@dataclass(frozen=True)
class CostModel:
    battery_per_du: float = 25.0
    tu_per_du: float = 1.0
    pick_build_tu_per_3mu: float = 1.0
    recharge_tu: float = 1.0
    scan_tu_per_su: float = 1.0
    scan_footprint: ScanFootprint = ScanFootprint.RowColLos


@dataclass(frozen=True)
class Scenario:
    name: str
    instruction: str
    site: SiteMap
    robots: tuple[RobotSpec, ...]
    tasks: tuple[TaskSpec, ...]
    dag: PrecedenceDag
    cost: CostModel
    resources: tuple[tuple[str, int], ...]  # (location, available MU)
    safety_rules: tuple[str, ...] = ()

    def robot(self, robot_id: str) -> RobotSpec:
        for r in self.robots:
            if r.id == robot_id:
                return r
        raise KeyError(robot_id)

    def sole_robot(self) -> RobotSpec:
        if len(self.robots) != 1:
            raise ValueError("plan omits robot ids but scenario has multiple robots")
        return self.robots[0]

    def stock(self) -> dict[str, int]:
        return dict(self.resources)

    def action_alphabet(self) -> list[Action]:
        """Concrete actions available for repair-search payloads.

        Union of the roster's skills (NAVIGATE expanded over site nodes)
        plus IDLE, which any robot may perform.
        """
        kinds: set[ActionKind] = set()
        for r in self.robots:
            kinds |= r.skills
        kinds.add(ActionKind.IDLE)
        out: list[Action] = []
        for kind in kinds:
            if kind is ActionKind.NAVIGATE:
                out.extend(Action(kind, node) for node in sorted(self.site.locations()))
            else:
                out.append(Action(kind))
        return sorted(out, key=lambda a: (a.kind.value, a.target or ""))


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _canon_id(raw: str) -> str:
    return "_".join(str(raw).split())


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(where, f"missing key {key!r}")
    return obj[key]


def _typed(raw, kind: type, where: str):
    """``raw`` itself when it is a JSON array (``list``) or object (``dict``)."""
    if not isinstance(raw, kind):
        raise ValidationError(where, f"must be a JSON {'array' if kind is list else 'object'}")
    return raw


def _number(raw, where: str, kind: type = float):
    """``raw`` as a finite float, or as an int when ``kind`` is int."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value) or (kind is int and not value.is_integer()):
        raise ValidationError(where, f"expected a finite {'integer' if kind is int else 'number'}, got {raw!r}")
    return kind(value)


def _row(raw, n: int, where: str) -> list:
    if not isinstance(raw, list) or len(raw) != n:
        raise ValidationError(where, f"expected an array of {n} values, got {raw!r}")
    return raw


def _cells(raw: dict, key: str, where: str) -> list[Cell]:
    """The ``[x, y]`` pairs listed under ``raw[key]`` (empty when absent)."""
    out = []
    for i, c in enumerate(_typed(raw.get(key, []), list, f"{where}.{key}")):
        at = f"{where}.{key}[{i}]"
        x, y = _row(c, 2, at)
        out.append((_number(x, at, int), _number(y, at, int)))
    return out


def _skills(raw: list, where: str) -> frozenset[ActionKind]:
    out = set()
    for i, name in enumerate(_typed(raw, list, where)):
        try:
            out.add(ActionKind(str(name)))
        except ValueError:
            raise ValidationError(f"{where}[{i}]", f"unknown action name {name!r}") from None
    return frozenset(out)


def _load_site(raw: dict, where: str) -> SiteMap:
    kind = _require(_typed(raw, dict, where), "kind", where)
    if kind == "named_graph":
        nodes = tuple(_canon_id(n).upper() for n in _typed(_require(raw, "nodes", where), list, f"{where}.nodes"))
        if len(set(nodes)) != len(nodes):
            raise ValidationError(f"{where}.nodes", "duplicate node ids")
        edges = []
        for i, e in enumerate(_typed(_require(raw, "edges", where), list, f"{where}.edges")):
            u, v, w = _row(e, 3, f"{where}.edges[{i}]")
            u, v, w = _canon_id(u).upper(), _canon_id(v).upper(), _number(w, f"{where}.edges[{i}]")
            if u not in nodes or v not in nodes:
                raise ValidationError(f"{where}.edges[{i}]", f"edge references undeclared node {u!r}/{v!r}")
            if w <= 0:
                raise ValidationError(f"{where}.edges[{i}]", f"edge weight {w} must be > 0 DU")
            edges.append((u, v, w))
        site = SiteMap(
            kind="named_graph",
            nodes=nodes,
            edges=tuple(edges),
            no_go=frozenset(_canon_id(n).upper() for n in _typed(raw.get("no_go", []), list, f"{where}.no_go")),
            chargers=frozenset(_canon_id(n).upper() for n in _typed(raw.get("chargers", []), list, f"{where}.chargers")),
        )
        if nodes and len(site._search(nodes[0])) != len(nodes):
            raise ValidationError(f"{where}", "site graph is not connected")
        return site
    if kind == "grid":
        width = _number(_require(raw, "width", where), f"{where}.width", int)
        height = _number(_require(raw, "height", where), f"{where}.height", int)
        if width <= 0 or height <= 0:
            raise ValidationError(where, "grid dimensions must be positive")
        blocked = set()
        for i, cell in enumerate(_cells(raw, "blocked", where)):
            if not (0 <= cell[0] < width and 0 <= cell[1] < height):
                raise ValidationError(f"{where}.blocked[{i}]", f"cell {cell} outside {width}x{height} grid")
            blocked.add(cell)
        site = SiteMap(
            kind="grid",
            width=width,
            height=height,
            blocked=frozenset(blocked),
            no_go=frozenset(cell_id(c) for c in _cells(raw, "no_go", where)),
            chargers=frozenset(cell_id(c) for c in _cells(raw, "chargers", where)),
        )
        cells = site.traversable_cells()
        if cells and len(site._search(cell_id(min(cells)))) != len(cells):
            raise ValidationError(where, "grid is not connected over traversable cells")
        return site
    raise ValidationError(f"{where}.kind", f"unknown site kind {kind!r}")


def load_scenario_dict(doc: dict, name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    site = _load_site(_require(doc, "site", "site"), "site")
    locations = site.locations() if not site.is_grid() else None

    def check_location(loc: str, where: str) -> str:
        if site.is_grid():
            cell = parse_cell(str(loc))
            if cell is None or not site.in_grid(cell) or cell in site.blocked:
                raise ValidationError(where, f"unknown or blocked grid cell {loc!r}")
            return cell_id(cell)
        loc = _canon_id(loc).upper()
        if loc not in locations:
            raise ValidationError(where, f"unknown location {loc!r}")
        return loc

    robots = []
    for i, r in enumerate(_typed(_require(doc, "robots", "robots"), list, "robots")):
        where = f"robots[{i}]"
        rid = _canon_id(_require(_typed(r, dict, where), "id", where)).lower()
        battery_max = _number(r.get("battery_max", 100), f"{where}.battery_max")
        battery_init = _number(r.get("battery_init", battery_max), f"{where}.battery_init")
        cap = _number(r.get("payload_capacity", 0), f"{where}.payload_capacity", int)
        cargo = _number(r.get("cargo_init", 0), f"{where}.cargo_init", int)
        if not (0 <= battery_init <= battery_max <= 100):
            raise ValidationError(where, f"need 0 <= battery_init <= battery_max <= 100, got {battery_init}/{battery_max}")
        if cargo > cap:
            raise ValidationError(where, f"cargo_init {cargo} exceeds payload_capacity {cap}")
        robots.append(
            RobotSpec(
                id=rid,
                skills=_skills(_require(r, "skills", where), f"{where}.skills"),
                payload_capacity=cap,
                battery_max=battery_max,
                battery_init=battery_init,
                start_location=check_location(_require(r, "start_location", where), f"{where}.start_location"),
                cargo_init=cargo,
            )
        )
    if len({r.id for r in robots}) != len(robots):
        raise ValidationError("robots", "duplicate robot ids")

    tasks = []
    for i, t in enumerate(_typed(doc.get("tasks", []), list, "tasks")):
        where = f"tasks[{i}]"
        duration = _number(_typed(t, dict, where).get("duration", 1), f"{where}.duration")
        demand = _number(t.get("demand", 0), f"{where}.demand", int)
        if duration <= 0:
            raise ValidationError(where, f"duration {duration} must be > 0")
        if demand < 0:
            raise ValidationError(where, f"demand {demand} must be >= 0")
        try:
            task_type = ActionKind(str(_require(t, "type", where)))
        except ValueError:
            raise ValidationError(f"{where}.type", f"unknown action name {t.get('type')!r}") from None
        tasks.append(
            TaskSpec(
                id=_canon_id(_require(t, "id", where)).lower(),
                type=task_type,
                required_skills=_skills(t.get("required_skills", []), f"{where}.required_skills"),
                location=check_location(_require(t, "location", where), f"{where}.location"),
                demand=demand,
                duration=duration,
            )
        )
    if len({t.id for t in tasks}) != len(tasks):
        raise ValidationError("tasks", "duplicate task ids")

    task_ids = [t.id for t in tasks]
    dag_edges = set()
    for i, e in enumerate(_typed(doc.get("dag", []), list, "dag")):
        where = f"dag[{i}]"
        a, b = (_canon_id(x).lower() for x in _row(e, 2, where))
        if a not in task_ids or b not in task_ids:
            raise ValidationError(where, f"edge ({a!r}, {b!r}) references undeclared task")
        dag_edges.add((a, b))
    dag = PrecedenceDag(frozenset(dag_edges))
    if dag.topological_order(task_ids) is None:
        raise ValidationError("dag", "precedence graph has a cycle")

    raw_cost = _typed(doc.get("cost", {}), dict, "cost")
    rates = {}
    for key in ("battery_per_du", "tu_per_du", "pick_build_tu_per_3mu", "recharge_tu", "scan_tu_per_su"):
        if key in raw_cost:
            rates[key] = _number(raw_cost[key], f"cost.{key}")
            if rates[key] < 0:
                raise ValidationError(f"cost.{key}", "rates must be >= 0")
    footprint = raw_cost.get("scan_footprint", ScanFootprint.RowColLos.value)
    try:
        footprint = ScanFootprint(footprint)
    except ValueError:
        raise ValidationError("cost.scan_footprint", f"unknown scan footprint {footprint!r}") from None
    cost = CostModel(**rates, scan_footprint=footprint)

    resources = tuple(
        sorted(
            (check_location(loc, f"resources.{loc}"), _number(mu, f"resources.{loc}", int))
            for loc, mu in _typed(doc.get("resources", {}), dict, "resources").items()
        )
    )

    scenario = Scenario(
        name=name,
        instruction=str(doc.get("instruction", "")),
        site=site,
        robots=tuple(robots),
        tasks=tuple(tasks),
        dag=dag,
        cost=cost,
        resources=resources,
        safety_rules=tuple(str(r) for r in _typed(doc.get("safety_rules", []), list, "safety_rules")),
    )

    all_skills = frozenset().union(*(r.skills for r in robots)) if robots else frozenset()
    for t in tasks:
        if not t.required_skills <= all_skills:
            missing = {k.value for k in t.required_skills - all_skills}
            log.warning("task %s requires skills no robot offers: %s", t.id, sorted(missing))
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; see module docstring for the schema."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # malformed JSON or text that is not UTF-8
        raise ParseError(f"{path}: {e}") from None
    return load_scenario_dict(doc, name=path.name.split(".")[0])


def serialize_scenario(s: Scenario) -> str:
    """Dump a Scenario back to its JSON document form (round-trips)."""
    if s.site.is_grid():
        site: dict = {
            "kind": "grid",
            "width": s.site.width,
            "height": s.site.height,
            "blocked": sorted(list(c) for c in s.site.blocked),
            "no_go": sorted(list(parse_cell(c)) for c in s.site.no_go),
            "chargers": sorted(list(parse_cell(c)) for c in s.site.chargers),
        }
    else:
        site = {
            "kind": "named_graph",
            "nodes": list(s.site.nodes),
            "edges": [[u, v, w] for u, v, w in s.site.edges],
            "no_go": sorted(s.site.no_go),
            "chargers": sorted(s.site.chargers),
        }
    doc = {
        "instruction": s.instruction,
        "site": site,
        "robots": [
            {
                "id": r.id,
                "skills": sorted(k.value for k in r.skills),
                "payload_capacity": r.payload_capacity,
                "battery_max": r.battery_max,
                "battery_init": r.battery_init,
                "start_location": r.start_location,
                "cargo_init": r.cargo_init,
            }
            for r in s.robots
        ],
        "tasks": [
            {
                "id": t.id,
                "type": t.type.value,
                "required_skills": sorted(k.value for k in t.required_skills),
                "location": t.location,
                "demand": t.demand,
                "duration": t.duration,
            }
            for t in s.tasks
        ],
        "dag": sorted([a, b] for a, b in s.dag.edges),
        "cost": {
            "battery_per_du": s.cost.battery_per_du,
            "tu_per_du": s.cost.tu_per_du,
            "pick_build_tu_per_3mu": s.cost.pick_build_tu_per_3mu,
            "recharge_tu": s.cost.recharge_tu,
            "scan_tu_per_su": s.cost.scan_tu_per_su,
            "scan_footprint": s.cost.scan_footprint.value,
        },
        "resources": {loc: mu for loc, mu in s.resources},
        "safety_rules": list(s.safety_rules),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Canonical prompt context (Stage 0)
# ---------------------------------------------------------------------------

API_SCHEMA_LINE = "STEP, CURRENT_LOCATION, ACTION, INTERNAL_CARGO, PLACED_BRICKS, REMAINING_BATTERY"


@dataclass(frozen=True)
class PromptContext:
    """The canonical context block handed to LLM roles."""

    background: str
    task_text: str
    roster: str
    api_schema: str
    few_shot: tuple[tuple[str, str], ...] = ()
    guardrails: tuple[str, ...] = ()


def canonical_context(s: Scenario) -> PromptContext:
    """Assemble the deterministic, stable-ordered context block.

    Pure function of the Scenario: equal scenarios produce byte-identical
    contexts.  Empty sections (e.g. no-go zones) are elided entirely.
    """
    bg = [f"instruction: {s.instruction}"]
    if s.site.is_grid():
        bg.append(f"site: {s.site.width}x{s.site.height} grid")
        if s.site.blocked:
            bg.append("blocked cells: " + ", ".join(cell_id(c) for c in sorted(s.site.blocked)))
    else:
        bg.append("site locations: " + ", ".join(s.site.nodes))
        bg.append(
            "site edges (DU): "
            + ", ".join(f"{u}-{v}={_trim(w)}" for u, v, w in sorted(s.site.edges))
        )
    if s.site.no_go:
        bg.append("no-go zones: " + ", ".join(sorted(s.site.no_go)))
    if s.site.chargers:
        bg.append("charging stations: " + ", ".join(sorted(s.site.chargers)))
    if s.resources:
        bg.append("stockpiles (MU): " + ", ".join(f"{loc}={mu}" for loc, mu in s.resources))
    bg.append(
        "costs: battery {}%/DU, {} TU/DU, pick/build {} TU per 3 MU, recharge {} TU, scan {} TU/SU".format(
            _trim(s.cost.battery_per_du),
            _trim(s.cost.tu_per_du),
            _trim(s.cost.pick_build_tu_per_3mu),
            _trim(s.cost.recharge_tu),
            _trim(s.cost.scan_tu_per_su),
        )
    )

    task_lines = []
    for t in s.tasks:
        line = f"- {t.id}: {t.type.value} at {t.location}, demand {t.demand} MU, duration {_trim(t.duration)} TU"
        if t.required_skills:
            line += ", requires " + "+".join(sorted(k.value for k in t.required_skills))
        task_lines.append(line)
    for a, b in sorted(s.dag.edges):
        task_lines.append(f"- precedence: {a} before {b}")

    roster_lines = []
    for r in s.robots:
        roster_lines.append(
            f"- {r.id}: skills {'+'.join(sorted(k.value for k in r.skills))}; "
            f"capacity {r.payload_capacity} MU; battery {_trim(r.battery_init)}/{_trim(r.battery_max)}%; "
            f"start {r.start_location}; cargo {r.cargo_init} MU"
        )

    if s.safety_rules:
        bg.append("safety rules in force: " + ", ".join(s.safety_rules))

    return PromptContext(
        background="\n".join(bg),
        task_text="\n".join(task_lines),
        roster="\n".join(roster_lines),
        api_schema=API_SCHEMA_LINE,
        guardrails=tuple(f"honor site rule: {r}" for r in s.safety_rules),
    )


def _trim(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)
