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
import math
import warnings
from enum import Enum
from pathlib import Path

from . import record
from .plan import Action, ActionKind, GRID_MOVES


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


class SiteMap:
    """Either a named location graph or a rectangular grid.

    ``_hops`` is the site's one table of one-hop moves, built with the site:
    ``_hops[loc]`` maps each location one move from ``loc`` to its DU.  An
    edge listed more than once counts at its lightest weight.  A grid lists
    neighbours in L, R, U, D move order, which breaks its route ties; a named
    graph lists them as its edges do, since its ties go by node id.
    ``edge_weight``, ``locations`` and the memoised searches of ``_tree``
    read it, and ``route`` and ``shortest_path_du`` read those.  A move or
    a route starts from one of ``locations()``.
    """

    __slots__ = ("kind", "nodes", "edges", "width", "height", "blocked", "no_go", "chargers", "_hops", "_trees")

    def __init__(
        self,
        kind: str,  # "named_graph" | "grid"
        nodes: tuple[str, ...] = (),
        edges: tuple[tuple[str, str, float], ...] = (),  # undirected, weight in DU
        width: int = 0,
        height: int = 0,
        blocked: frozenset[Cell] = frozenset(),
        no_go: frozenset[str] = frozenset(),
        chargers: frozenset[str] = frozenset(),
    ):
        self.kind = kind
        self.nodes = nodes
        self.edges = edges
        self.width = width
        self.height = height
        self.blocked = blocked
        self.no_go = no_go
        self.chargers = chargers
        if self.is_grid():
            free = self.traversable_cells()
            hops = {
                cell_id((x, y)): {cell_id(n): 1.0 for dx, dy in GRID_MOVES.values() if (n := (x + dx, y + dy)) in free}
                for x, y in sorted(free)  # so the loader searches from the lowest cell
            }
        else:
            hops = {n: {} for n in self.nodes}
            for u, v, w in self.edges:
                if w < hops[u].get(v, math.inf):
                    hops[u][v] = hops[v][u] = w
        self._hops = hops
        self._trees = {}

    def is_grid(self) -> bool:
        return self.kind == "grid"

    def locations(self) -> frozenset[str]:
        return frozenset(self._hops)

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
        """DU of the one move from ``a`` to ``b``; None when there is none."""
        return self._hops[a].get(b)

    def _tree(self, a: str) -> dict[str, tuple[str | None, float]]:
        """Dijkstra from ``a``, memoised per source: each reachable location's
        previous location on its route and its DU from ``a``.

        Named graphs pop the frontier by (distance, node id); grids pop equal
        distances first in, first out, which is breadth-first in L, R, U, D
        move order.  Each DU adds the hops up left to right.
        """
        tree = self._trees.get(a)
        if tree is not None:
            return tree
        grid = self.is_grid()
        tick = itertools.count()
        dist = {a: 0.0}
        tree = self._trees[a] = {}
        heap = [(0.0, next(tick) if grid else a, a, None)]
        while heap:
            d, _, loc, prev = heapq.heappop(heap)
            if loc in tree:
                continue
            tree[loc] = (prev, d)
            for nbr, w in self._hops[loc].items():
                nd = d + w
                if nd < dist.get(nbr, math.inf):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, next(tick) if grid else nbr, nbr, loc))
        return tree

    def route(self, a: str, b: str) -> list[tuple[str, float]] | None:
        """Shortest route from ``a`` to ``b`` as (location, DU) hops.

        Empty when ``a == b``; None when ``b`` cannot be reached.
        """
        tree = self._tree(a)
        if b not in tree:
            return None
        hops = []
        while b != a:
            prev = tree[b][0]
            hops.append((b, self._hops[prev][b]))
            b = prev
        return hops[::-1]

    def shortest_path_du(self, a: str, b: str) -> float | None:
        """Length of ``route(a, b)`` in DU, its hops added left to right; None when unreachable."""
        reached = self._tree(a).get(b)
        return None if reached is None else reached[1]

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


@record()
class RobotSpec:
    id: str
    skills: frozenset[ActionKind]
    payload_capacity: int
    battery_max: float
    battery_init: float
    start_location: str
    cargo_init: int = 0


@record()
class TaskSpec:
    id: str
    type: ActionKind
    required_skills: frozenset[ActionKind]
    location: str
    demand: int
    duration: float


@record()
class PrecedenceDag:
    edges: frozenset[tuple[str, str]]  # (before, after)

    def topological_order(self, task_ids: list[str]) -> list[str] | None:
        """Kahn's algorithm, lowest declaration index first among ready tasks; None on cycle."""
        index = {t: i for i, t in enumerate(task_ids)}
        after: list[list[int]] = [[] for _ in task_ids]
        indeg = [0] * len(task_ids)
        for a, b in self.edges:
            after[index[a]].append(index[b])
            indeg[index[b]] += 1
        ready = [i for i, n in enumerate(indeg) if n == 0]  # ascending, so already a heap
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(task_ids[i])
            for j in after[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
        return order if len(order) == len(task_ids) else None


@record()
class CostModel:
    battery_per_du: float = 25.0
    tu_per_du: float = 1.0
    pick_build_tu_per_3mu: float = 1.0
    recharge_tu: float = 1.0
    scan_tu_per_su: float = 1.0
    scan_footprint: ScanFootprint = ScanFootprint.RowColLos


class Scenario:
    """A loaded scenario.  ``_monitors`` holds the validator's monitors of it,
    by check set (``Monitor.of``)."""

    __slots__ = ("name", "instruction", "site", "robots", "tasks", "dag", "cost", "resources", "safety_rules",
                 "_robots_by_id", "_monitors")

    def __init__(
        self,
        name: str,
        instruction: str,
        site: SiteMap,
        robots: tuple[RobotSpec, ...],
        tasks: tuple[TaskSpec, ...],
        dag: PrecedenceDag,
        cost: CostModel,
        resources: tuple[tuple[str, int], ...],  # (location, available MU)
        safety_rules: tuple[str, ...] = (),
    ):
        self.name = name
        self.instruction = instruction
        self.site = site
        self.robots = robots
        self.tasks = tasks
        self.dag = dag
        self.cost = cost
        self.resources = resources
        self.safety_rules = safety_rules
        self._robots_by_id = {r.id: r for r in robots}
        self._monitors = {}

    def robot(self, robot_id: str) -> RobotSpec:
        return self._robots_by_id[robot_id]

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


def _string(raw, where: str, i: int | None = None) -> str:
    """``raw`` itself when it is a JSON string; ``i`` indexes the array at ``where``."""
    if not isinstance(raw, str):
        raise ValidationError(where if i is None else f"{where}[{i}]", f"expected a JSON string, got {raw!r}")
    return raw


def _canon_id(raw, where: str, i: int | None = None) -> str:
    """The JSON string ``raw`` with each run of whitespace made one ``_``."""
    return "_".join((raw if isinstance(raw, str) else _string(raw, where, i)).split())


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
    """``raw`` as a finite float, or as an int when ``kind`` is int.

    Only a JSON number is one: a string such as ``"50"`` or a ``true`` is not.
    """
    try:
        value = float(raw) if type(raw) in (int, float) else math.nan  # bool is a subclass of int
    except OverflowError:  # an integer too large for a float
        value = math.nan
    if not math.isfinite(value) or (kind is int and not value.is_integer()):
        raise ValidationError(where, f"expected a finite {'integer' if kind is int else 'number'}, got {raw!r}")
    return kind(value)


def _count(raw, where: str) -> int:
    """``raw`` as an integer >= 0 (a capacity, a cargo, a stock or a demand in MU)."""
    value = _number(raw, where, int)
    if value < 0:
        raise ValidationError(where, f"expected an integer >= 0, got {value}")
    return value


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


def _names(raw: dict, key: str, where: str) -> frozenset[str]:
    """The upper-cased node ids listed under ``raw[key]`` (empty when absent)."""
    at = f"{where}.{key}"
    return frozenset(_canon_id(n, at, i).upper() for i, n in enumerate(_typed(raw.get(key, []), list, at)))


def _action_kind(name, where: str) -> ActionKind:
    """The action ``name`` names: a robot skill or a task type."""
    try:
        return ActionKind(str(name))
    except ValueError:
        raise ValidationError(where, f"unknown action name {name!r}") from None


def _skills(raw: list, where: str) -> frozenset[ActionKind]:
    return frozenset(_action_kind(name, f"{where}[{i}]") for i, name in enumerate(_typed(raw, list, where)))


def _check_location(site: SiteMap, loc, where: str) -> str:
    """The id of ``loc``, which must be a declared node or an in-grid cell that is not blocked."""
    if site.is_grid():
        cell = parse_cell(str(loc))
        if cell is None or not site.in_grid(cell) or cell in site.blocked:
            raise ValidationError(where, f"unknown or blocked grid cell {loc!r}")
        return cell_id(cell)
    loc = _canon_id(loc, where).upper()
    if loc not in site.nodes:
        raise ValidationError(where, f"unknown location {loc!r}")
    return loc


def _load_site(raw: dict, where: str) -> SiteMap:
    kind = _require(_typed(raw, dict, where), "kind", where)
    if kind == "named_graph":
        at = f"{where}.nodes"
        raw_nodes = _typed(_require(raw, "nodes", where), list, at)
        nodes = tuple(_canon_id(n, at, i).upper() for i, n in enumerate(raw_nodes))
        if len(set(nodes)) != len(nodes):
            raise ValidationError(at, "duplicate node ids")
        edges = []
        for i, e in enumerate(_typed(_require(raw, "edges", where), list, f"{where}.edges")):
            at = f"{where}.edges[{i}]"
            u, v, w = _row(e, 3, at)
            u, v, w = _canon_id(u, at).upper(), _canon_id(v, at).upper(), _number(w, at)
            if u not in nodes or v not in nodes:
                raise ValidationError(at, f"edge references undeclared node {u!r}/{v!r}")
            if w <= 0:
                raise ValidationError(at, f"edge weight {w} must be > 0 DU")
            edges.append((u, v, w))
        site = SiteMap(
            kind="named_graph",
            nodes=nodes,
            edges=tuple(edges),
            no_go=_names(raw, "no_go", where),
            chargers=_names(raw, "chargers", where),
        )
        disconnected = "site graph is not connected"
    elif kind == "grid":
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
        disconnected = "grid is not connected over traversable cells"
    else:
        raise ValidationError(f"{where}.kind", f"unknown site kind {kind!r}")
    locs = site._hops
    if locs and len(site._tree(next(iter(locs)))) != len(locs):
        raise ValidationError(where, disconnected)
    return site


def load_scenario_dict(doc: dict, name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    raw_site = _require(doc, "site", "site")
    site = _load_site(raw_site, "site")
    for key in ("no_go", "chargers"):  # each a real location, as the ones below are
        entries = [cell_id(c) for c in _cells(raw_site, key, "site")] if site.is_grid() else raw_site.get(key, [])
        for i, loc in enumerate(entries):
            _check_location(site, loc, f"site.{key}[{i}]")

    robots = []
    for i, r in enumerate(_typed(_require(doc, "robots", "robots"), list, "robots")):
        where = f"robots[{i}]"
        rid = _canon_id(_require(_typed(r, dict, where), "id", where), f"{where}.id").lower()
        battery_max = _number(r.get("battery_max", 100), f"{where}.battery_max")
        battery_init = _number(r.get("battery_init", battery_max), f"{where}.battery_init")
        cap = _count(r.get("payload_capacity", 0), f"{where}.payload_capacity")
        cargo = _count(r.get("cargo_init", 0), f"{where}.cargo_init")
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
                start_location=_check_location(site, _require(r, "start_location", where), f"{where}.start_location"),
                cargo_init=cargo,
            )
        )
    if len({r.id for r in robots}) != len(robots):
        raise ValidationError("robots", "duplicate robot ids")

    tasks = []
    for i, t in enumerate(_typed(doc.get("tasks", []), list, "tasks")):
        where = f"tasks[{i}]"
        duration = _number(_typed(t, dict, where).get("duration", 1), f"{where}.duration")
        demand = _count(t.get("demand", 0), f"{where}.demand")
        if duration <= 0:
            raise ValidationError(where, f"duration {duration} must be > 0")
        task_type = _action_kind(_require(t, "type", where), f"{where}.type")
        tasks.append(
            TaskSpec(
                id=_canon_id(_require(t, "id", where), f"{where}.id").lower(),
                type=task_type,
                required_skills=_skills(t.get("required_skills", []), f"{where}.required_skills"),
                location=_check_location(site, _require(t, "location", where), f"{where}.location"),
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
        a, b = (_canon_id(x, where).lower() for x in _row(e, 2, where))
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

    stock: dict[str, int] = {}
    for raw_loc, mu in _typed(doc.get("resources", {}), dict, "resources").items():
        where = f"resources.{raw_loc}"
        loc = _check_location(site, raw_loc, where)
        if loc in stock:
            raise ValidationError(where, f"a second stockpile at {loc!r}")
        stock[loc] = _count(mu, where)
    resources = tuple(sorted(stock.items()))

    scenario = Scenario(
        name=name,
        instruction=_string(doc.get("instruction", ""), "instruction"),
        site=site,
        robots=tuple(robots),
        tasks=tuple(tasks),
        dag=dag,
        cost=cost,
        resources=resources,
        safety_rules=tuple(
            _string(r, "safety_rules", i)
            for i, r in enumerate(_typed(doc.get("safety_rules", []), list, "safety_rules"))
        ),
    )

    all_skills = frozenset().union(*(r.skills for r in robots)) if robots else frozenset()
    for t in tasks:
        if not t.required_skills <= all_skills:
            missing = sorted(k.value for k in t.required_skills - all_skills)
            warnings.warn(f"task {t.id} requires skills no robot offers: {missing}")
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; see module docstring for the schema."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # malformed JSON or text that is not UTF-8
        raise ParseError(f"{path}: {e}") from None
    return load_scenario_dict(doc, name=path.name.split(".")[0])
