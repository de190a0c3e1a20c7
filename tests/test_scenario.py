import json
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from brute_oracle import brute_has_cycle
from foreman.scenario import (
    ParseError,
    PrecedenceDag,
    ScanFootprint,
    SiteMap,
    ValidationError,
    cell_id,
    load_scenario,
    load_scenario_dict,
)


def test_wall_assembly_preset(wall):
    assert wall.site.nodes == ("S", "B", "C")
    assert wall.cost.battery_per_du == 25
    assert dict(wall.resources) == {"S": 9}
    assert sum(t.demand for t in wall.tasks) == 9
    assert "C" in wall.site.chargers


def test_scan_grid_preset(grid):
    assert grid.site.is_grid()
    assert grid.site.blocked == frozenset({(1, 0)})
    assert grid.cost.battery_per_du == 15
    assert grid.cost.scan_footprint is ScanFootprint.RowColLos


def _minimal_doc(**overrides):
    doc = {
        "instruction": "x",
        "site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", 1]]},
        "robots": [
            {"id": "r1", "skills": ["NAVIGATE"], "payload_capacity": 0, "start_location": "A"}
        ],
        "tasks": [],
        "dag": [],
        "cost": {},
        "resources": {},
    }
    doc.update(overrides)
    return doc


def test_empty_task_list_is_valid():
    s = load_scenario_dict(_minimal_doc())
    assert s.tasks == ()


def test_two_cycle_dag_rejected():
    doc = _minimal_doc(
        tasks=[
            {"id": "t1", "type": "NAVIGATE", "location": "A"},
            {"id": "t2", "type": "NAVIGATE", "location": "B"},
        ],
        dag=[["t1", "t2"], ["t2", "t1"]],
    )
    with pytest.raises(ValidationError) as exc:
        load_scenario_dict(doc)
    assert "cycle" in str(exc.value)
    assert exc.value.where == "dag"


def test_unknown_location_rejected_with_path():
    doc = _minimal_doc()
    doc["robots"][0]["start_location"] = "Z"
    with pytest.raises(ValidationError) as exc:
        load_scenario_dict(doc)
    assert "robots[0].start_location" in str(exc.value)


def test_unknown_skill_name_is_load_error():
    doc = _minimal_doc()
    doc["robots"][0]["skills"] = ["FLY"]
    with pytest.raises(ValidationError) as exc:
        load_scenario_dict(doc)
    assert "FLY" in str(exc.value)


def test_negative_rate_rejected():
    doc = _minimal_doc(cost={"battery_per_du": -1})
    with pytest.raises(ValidationError):
        load_scenario_dict(doc)


def test_battery_bounds_enforced():
    doc = _minimal_doc()
    doc["robots"][0]["battery_init"] = 120
    with pytest.raises(ValidationError):
        load_scenario_dict(doc)


def test_disconnected_graph_rejected():
    doc = _minimal_doc(
        site={"kind": "named_graph", "nodes": ["A", "B", "X"], "edges": [["A", "B", 1]]}
    )
    with pytest.raises(ValidationError) as exc:
        load_scenario_dict(doc)
    assert "connected" in str(exc.value)


def test_disconnected_grid_rejected():
    doc = _minimal_doc(site={"kind": "grid", "width": 3, "height": 2, "blocked": [[1, 0], [1, 1]]})
    doc["robots"][0]["start_location"] = "(0,0)"
    with pytest.raises(ValidationError) as exc:
        load_scenario_dict(doc)
    assert "connected" in str(exc.value)


def test_zero_weight_edge_rejected():
    doc = _minimal_doc(site={"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", 0]]})
    with pytest.raises(ValidationError):
        load_scenario_dict(doc)


def test_uncoverable_skills_warns_but_loads():
    doc = _minimal_doc(
        tasks=[{"id": "t1", "type": "BUILD", "required_skills": ["BUILD"], "location": "B", "demand": 3}]
    )
    with pytest.warns(UserWarning) as caught:
        s = load_scenario_dict(doc)
    assert s.tasks[0].id == "t1"
    assert [str(w.message) for w in caught] == ["task t1 requires skills no robot offers: ['BUILD']"]


def test_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.scn.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(p)


_MALFORMED = {
    "site.edges[0]": {"site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B"]]}},
    "site.no_go[0]": {"site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", 1]], "no_go": ["ZZZ"]}},
    "site.chargers[1]": {
        "site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", 1]], "chargers": ["a", "(0,0)"]}
    },
    "site.chargers[0]": {"site": {"kind": "grid", "width": 2, "height": 2, "chargers": [[-1, 0]]}},
    "site.no_go[1]": {"site": {"kind": "grid", "width": 2, "height": 2, "blocked": [[1, 1]], "no_go": [[0, 0], [1, 1]]}},
    "cost.battery_per_du": {"cost": {"battery_per_du": "fast"}},
    "cost.scan_footprint": {"cost": {"scan_footprint": "wide"}},
    "robots": {"robots": {"r1": {"skills": ["NAVIGATE"], "start_location": "A"}}},
    "robots[0].battery_init": {
        "robots": [{"id": "r1", "skills": ["NAVIGATE"], "start_location": "A", "battery_init": "full"}]
    },
    "tasks[0]": {"tasks": ["build the wall"]},
    "tasks[0].demand": {"tasks": [{"id": "t1", "type": "NAVIGATE", "location": "A", "demand": 2.5}]},
    "dag[0]": {"dag": [["a"]]},
    "resources.A": {"resources": {"A": "lots"}},
    "resources.B": {"resources": {"B": -3}},
    "resources.a": {"resources": {"A": 3, "a": 9}},
    "robots[0].payload_capacity": {
        "robots": [{"id": "r1", "skills": ["NAVIGATE"], "start_location": "A", "payload_capacity": -1}]
    },
    "robots[0].cargo_init": {
        "robots": [{"id": "r1", "skills": ["NAVIGATE"], "start_location": "A", "payload_capacity": 3, "cargo_init": -2}]
    },
}


def _robot(**fields):
    return {"robots": [dict({"id": "r1", "skills": ["NAVIGATE"], "start_location": "A"}, **fields)]}


# Values that Python's float() reads as numbers but that are not JSON numbers:
# (path, test id suffix, overrides).
_NOT_NUMBERS = [
    ("robots[0].battery_init", "string", _robot(battery_init="50")),
    ("robots[0].battery_max", "true", _robot(battery_max=True)),
    ("robots[0].payload_capacity", "true", _robot(payload_capacity=True)),
    ("tasks[0].demand", "string", {"tasks": [{"id": "t1", "type": "NAVIGATE", "location": "A", "demand": "3"}]}),
    ("site.edges[0]", "string", {"site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", "1.5"]]}}),
    ("site.edges[0]", "true", {"site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "B", True]]}}),
]


def _three_nodes(**fields):
    """A site of nodes A, B and "3" (a string), plus ``fields``."""
    site = {"kind": "named_graph", "nodes": ["A", "B", "3"], "edges": [["A", "B", 1], ["B", "3", 1]]}
    return {"site": dict(site, **fields)}


# Ids, location names, the instruction and safety rules that are not JSON
# strings, and a task without a type: (path, test id suffix, overrides).
_NOT_STRINGS = [
    ("robots[0].id", "array", _robot(id=["r", "1"])),
    ("instruction", "array", {"instruction": ["a", 1]}),
    ("safety_rules[0]", "number", {"safety_rules": [1, None]}),
    ("tasks[0].id", "true", {"tasks": [{"id": True, "type": "NAVIGATE", "location": "A"}]}),
    ("site.nodes[2]", "number", _three_nodes(nodes=["A", "B", 3], edges=[["A", "B", 1], ["B", 3, 1]])),
    ("site.edges[1]", "number", _three_nodes(edges=[["A", "B", 1], ["B", 3, 1]])),
    ("site.chargers[0]", "number", _three_nodes(chargers=[3])),
    ("robots[0].start_location", "number", dict(_three_nodes(), **_robot(start_location=3))),
    ("dag[0]", "number", {
        "tasks": [{"id": "1", "type": "NAVIGATE", "location": "A"}, {"id": "t2", "type": "NAVIGATE", "location": "B"}],
        "dag": [[1, "t2"]],
    }),
    ("tasks[0]", "no-type", {"tasks": [{"id": "t1", "location": "A"}]}),
]


@pytest.mark.parametrize(
    "where, overrides",
    [(where, _MALFORMED[where]) for where in sorted(_MALFORMED)]
    + [(where, o) for where, _, o in _NOT_NUMBERS + _NOT_STRINGS],
    ids=sorted(_MALFORMED) + [f"{where}-{suffix}" for where, suffix, _ in _NOT_NUMBERS + _NOT_STRINGS],
)
def test_malformed_value_is_validation_error_at_its_path(where, overrides):
    with pytest.raises(ValidationError) as exc:
        load_scenario_dict(_minimal_doc(**overrides))
    assert exc.value.where == where


def _grid_start(location: str) -> dict:
    """A 2x2 grid with the one robot starting at ``location``."""
    return dict(_robot(start_location=location), site={"kind": "grid", "width": 2, "height": 2})


def _two_tasks(**fields):
    """Tasks t1 and t2 at A, each with ``fields`` but ``dag``, the document's DAG."""
    dag = fields.pop("dag", [])
    tasks = [dict({"id": i, "type": "NAVIGATE", "location": "A"}, **fields) for i in ("t1", "t2")]
    return {"tasks": tasks, "dag": dag}


# Documents the loader rejects, with the path it names and its reason:
# (path, test id suffix, reason, overrides).
_REASONS = [
    ("robots[0].start_location", "letter", "unknown or blocked grid cell 'A'", _grid_start("A")),
    ("robots[0].start_location", "three-numbers", "unknown or blocked grid cell '(1,2,3)'",
     _grid_start("(1,2,3)")),
    ("robots[0].start_location", "not-numbers", "unknown or blocked grid cell '(a,b)'", _grid_start("(a,b)")),
    ("robots[0].payload_capacity", "huge", f"expected a finite integer, got {10 ** 400}",
     _robot(payload_capacity=10 ** 400)),
    ("site.nodes", "duplicate", "duplicate node ids",
     {"site": {"kind": "named_graph", "nodes": ["A", "a"], "edges": []}}),
    ("site.edges[0]", "undeclared", "edge references undeclared node 'A'/'Z'",
     {"site": {"kind": "named_graph", "nodes": ["A", "B"], "edges": [["A", "Z", 1]]}}),
    ("site", "zero-width", "grid dimensions must be positive", {"site": {"kind": "grid", "width": 0, "height": 2}}),
    ("site.blocked[0]", "outside", "cell (2, 0) outside 2x2 grid",
     {"site": {"kind": "grid", "width": 2, "height": 2, "blocked": [[2, 0]]}}),
    ("robots[0]", "cargo", "cargo_init 4 exceeds payload_capacity 3", _robot(payload_capacity=3, cargo_init=4)),
    ("robots", "duplicate", "duplicate robot ids", {"robots": _robot()["robots"] + _robot(id="R1")["robots"]}),
    ("tasks[0]", "zero-duration", "duration 0.0 must be > 0", _two_tasks(duration=0)),
    ("tasks", "duplicate", "duplicate task ids", {"tasks": _two_tasks()["tasks"] * 2}),
    ("tasks[0].type", "unknown", "unknown action name 'FLY'", _two_tasks(type="FLY")),
    ("dag[0]", "undeclared", "edge ('t1', 't3') references undeclared task", _two_tasks(dag=[["t1", "t3"]])),
]


@pytest.mark.parametrize(
    "where, reason, overrides",
    [(where, reason, o) for where, _, reason, o in _REASONS],
    ids=[f"{where}-{suffix}" for where, suffix, _, _ in _REASONS],
)
def test_malformed_value_is_validation_error_with_its_reason(where, reason, overrides):
    with pytest.raises(ValidationError) as exc:
        load_scenario_dict(_minimal_doc(**overrides))
    assert (exc.value.where, exc.value.reason) == (where, reason)


def test_a_document_that_is_not_an_object_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        load_scenario_dict([_minimal_doc()])
    assert str(exc.value) == "scenario document must be a JSON object"


def test_id_canonicalization():
    doc = _minimal_doc()
    doc["robots"][0]["id"] = "  R1 "
    s = load_scenario_dict(doc)
    assert s.robots[0].id == "r1"


def test_scan_footprints():
    doc = {
        "instruction": "x",
        "site": {"kind": "grid", "width": 3, "height": 3, "blocked": [[1, 0]]},
        "robots": [{"id": "r1", "skills": ["SCAN"], "payload_capacity": 0, "start_location": "(0,0)"}],
        "tasks": [],
        "dag": [],
        "cost": {},
        "resources": {},
    }
    site = load_scenario_dict(doc).site
    # row/col line of sight from (2,2) reaches (2,0); from (0,0) the blocked
    # (1,0) stops the ray before it
    assert (2, 0) in site.scan_footprint((2, 2), ScanFootprint.RowColLos)
    assert (2, 0) not in site.scan_footprint((0, 0), ScanFootprint.RowColLos)
    assert site.scan_footprint((0, 0), ScanFootprint.Self) == frozenset({(0, 0)})
    cheb = site.scan_footprint((1, 1), ScanFootprint.Chebyshev1)
    assert (2, 0) in cheb and (0, 2) in cheb and (1, 0) not in cheb


def test_dag_acyclicity_matches_brute_force():
    rng = random.Random(7)
    for trial in range(160):
        n = rng.randint(2, 6) if trial < 150 else rng.randint(7, 8)
        ids = [f"t{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.randint(0, n * 2)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((a, b))
        dag = PrecedenceDag(frozenset((ids[a], ids[b]) for a, b in edges))
        kahn_says_acyclic = dag.topological_order(ids) is not None
        assert kahn_says_acyclic == (not brute_has_cycle(n, edges))


def _lowest_ready_first(ids, edges):
    """Reference order: place the lowest-index task whose predecessors are all placed; None if none is."""
    order = []
    while len(order) < len(ids):
        ready = [t for t in ids if t not in order and all(a in order for a, b in edges if b == t)]
        if not ready:
            return None
        order.append(ready[0])
    return order


def test_topological_order_matches_lowest_ready_index_first():
    rng = random.Random(11)
    for trial in range(400):
        n = rng.randint(1, 9)
        ids = [f"t{i}" for i in rng.sample(range(20), n)]  # declaration order is not id order
        edges = {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2 * n))}
        edges = {(a, b) for a, b in edges if a != b and (trial % 2 or ids.index(a) < ids.index(b))}
        assert PrecedenceDag(frozenset(edges)).topological_order(ids) == _lowest_ready_first(ids, edges)


# ---------------------------------------------------------------------------
# Routing against an all-pairs reference
# ---------------------------------------------------------------------------

def test_route_tie_order():
    # both routes below tie on length; named graphs settle equal distances by
    # node id, grids go breadth-first trying moves L, R, U, D
    named = SiteMap(
        kind="named_graph",
        nodes=("A", "B", "Y", "Z", "D"),
        edges=(("A", "Z", 1.0), ("A", "B", 0.5), ("B", "Y", 0.5), ("Y", "D", 1.0), ("Z", "D", 1.0)),
    )
    assert named.route("A", "D") == [("B", 0.5), ("Y", 0.5), ("D", 1.0)]
    grid = SiteMap(kind="grid", width=3, height=3)
    assert grid.route("(0,0)", "(1,1)") == [("(1,0)", 1.0), ("(1,1)", 1.0)]
    assert grid.route("(1,1)", "(1,1)") == []


def test_repeated_edge_keeps_its_lightest_weight_both_ways():
    # A-B is listed lightest first, C-D heaviest first: a move and a route
    # over either pair both cost its lightest weight
    site = SiteMap(
        kind="named_graph",
        nodes=("A", "B", "C", "D"),
        edges=(("A", "B", 2.0), ("B", "A", 5.0), ("A", "B", 7.0), ("B", "C", 1.0), ("C", "D", 5.0), ("D", "C", 2.0)),
    )
    assert site.edge_weight("A", "B") == site.edge_weight("B", "A") == 2.0
    assert site.edge_weight("C", "D") == site.edge_weight("D", "C") == 2.0
    assert site.route("C", "D") == [("D", 2.0)] and site.shortest_path_du("D", "C") == 2.0
    assert site.edge_weight("C", "B") == 1.0
    assert site.edge_weight("A", "C") is None
    assert site.edge_weight("A", "A") is None


# Multiples of 1/8 add up exactly, so every path length is exact in binary
# and route lengths can be compared with ==.
_WEIGHTS = st.integers(1, 40).map(lambda k: k / 8)


@st.composite
def _named_sites(draw):
    n = draw(st.integers(2, 7))
    nodes = tuple(f"N{i}" for i in range(n))
    # a random spanning tree keeps the graph connected; extra edges add
    # cycles, parallel edges and ties
    edges = [(nodes[i], nodes[draw(st.integers(0, i - 1))], draw(_WEIGHTS)) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), _WEIGHTS), max_size=2 * n))
    edges += [(u, v, w) for u, v, w in extra if u != v]
    return SiteMap(kind="named_graph", nodes=nodes, edges=tuple(draw(st.permutations(edges))))


@st.composite
def _grid_sites(draw):
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = [(x, y) for x in range(width) for y in range(height)]
    blocked = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - 1))
    return SiteMap(kind="grid", width=width, height=height, blocked=frozenset(blocked))


def _all_pairs(site):
    """Locations, directed (from, to, DU) moves, and Floyd-Warshall distances."""
    if site.is_grid():
        free = {(x, y) for x in range(site.width) for y in range(site.height)} - site.blocked
        locs = sorted(cell_id(c) for c in free)
        moves = {
            (cell_id((x, y)), cell_id((x + dx, y + dy)), 1.0)
            for x, y in free
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if (x + dx, y + dy) in free
        }
    else:
        locs = list(site.nodes)
        moves = {(u, v, w) for u, v, w in site.edges} | {(v, u, w) for u, v, w in site.edges}
    dist = {(a, b): 0.0 if a == b else math.inf for a in locs for b in locs}
    for u, v, w in moves:
        dist[u, v] = min(dist[u, v], w)
    for k in locs:
        for i in locs:
            for j in locs:
                dist[i, j] = min(dist[i, j], dist[i, k] + dist[k, j])
    return locs, moves, dist


@given(st.one_of(_named_sites(), _grid_sites()))
@settings(max_examples=150, deadline=None)
def test_route_is_a_shortest_walk_over_real_moves(site):
    locs, moves, dist = _all_pairs(site)
    for a in locs:
        for b in locs:
            hops = site.route(a, b)
            if dist[a, b] == math.inf:
                assert hops is None and site.shortest_path_du(a, b) is None
                continue
            here, total = a, 0.0
            for loc, w in hops:
                assert (here, loc, w) in moves
                assert site.edge_weight(here, loc) == w  # a move costs what the route does
                here, total = loc, total + w
            assert here == b
            assert total == dist[a, b] == site.shortest_path_du(a, b)


def _left_to_right_du(hops):
    du = 0.0
    for _, w in hops:
        du += w
    return du


def test_shortest_path_du_is_memoised_per_site(wall, grid):
    walled = SiteMap(kind="grid", width=3, height=3, blocked=frozenset({(1, 0), (1, 1), (1, 2)}))
    blocked = SiteMap(kind="grid", width=4, height=3, blocked=frozenset({(1, 1), (2, 0)}))
    fractional = SiteMap(
        kind="named_graph",
        nodes=("A", "B", "C", "D"),
        edges=(("A", "B", 0.1), ("B", "C", 0.2), ("C", "D", 0.3), ("A", "D", 1.0)),
    )
    unreachable = 0
    def copy(s):  # a new site with its own memo
        return SiteMap(s.kind, s.nodes, s.edges, s.width, s.height, s.blocked, s.no_go, s.chargers)

    for site in (copy(wall.site), copy(grid.site), blocked, walled, fractional):
        locs = sorted(site.locations())
        for a in locs:
            for b in locs:
                hops = site.route(a, b)
                want = None if hops is None else _left_to_right_du(hops)
                unreachable += hops is None
                assert site.shortest_path_du(a, b) == want  # computed
                assert site.shortest_path_du(a, b) == want  # memoised
    assert unreachable == 2 * 3 * 3  # across the walled grid's middle column, both ways
    assert fractional.shortest_path_du("A", "D") == (0.1 + 0.2) + 0.3
    heavy = SiteMap(
        kind="named_graph",
        nodes=fractional.nodes,
        edges=(("A", "B", 2.0), ("B", "C", 2.0), ("C", "D", 2.0), ("A", "D", 1.0)),
    )
    assert heavy.shortest_path_du("A", "D") == 1.0  # its own memo, not fractional's


@st.composite
def _scenario_docs(draw):
    """Loadable documents over both site kinds, with fractional costs."""
    finite = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        cells = [[x, y] for x in range(width) for y in range(height)]
        blocked = draw(st.lists(st.sampled_from(cells), max_size=min(1, len(cells) - 1), unique_by=tuple))
        free = [c for c in cells if c not in blocked]
        site = {
            "kind": "grid", "width": width, "height": height, "blocked": blocked,
            "no_go": draw(st.lists(st.sampled_from(free), max_size=3, unique_by=tuple)),
            "chargers": draw(st.lists(st.sampled_from(free), max_size=2, unique_by=tuple)),
        }
        locations = [cell_id(tuple(c)) for c in free]
    else:
        n = draw(st.integers(2, 5))
        nodes = [f"N{i}" for i in range(n)]
        weight = st.floats(0.01, 9.0, allow_nan=False, allow_infinity=False)
        site = {
            "kind": "named_graph", "nodes": nodes,
            "edges": [[nodes[i], nodes[draw(st.integers(0, i - 1))], draw(weight)] for i in range(1, n)],
            "no_go": draw(st.lists(st.sampled_from(nodes), max_size=2, unique=True)),
            "chargers": draw(st.lists(st.sampled_from(nodes), max_size=2, unique=True)),
        }
        locations = nodes
    battery_max = draw(st.floats(1.0, 100.0, allow_nan=False))
    n_tasks = draw(st.integers(0, 3))
    return {
        "instruction": draw(st.text(max_size=10)),
        "site": site,
        "robots": [{
            "id": "r1", "skills": ["BUILD", "PICK", "SCAN"], "payload_capacity": 3,
            "battery_max": battery_max, "battery_init": draw(st.floats(0.0, battery_max)),
            "start_location": draw(st.sampled_from(locations)),
        }],
        "tasks": [
            {"id": f"t{k}", "type": "SCAN", "location": draw(st.sampled_from(locations)),
             "duration": draw(st.floats(0.5, 4.0)), "demand": draw(st.integers(0, 6))}
            for k in range(n_tasks)
        ],
        "dag": [[f"t{a}", f"t{b}"] for a in range(n_tasks) for b in range(a + 1, n_tasks) if draw(st.booleans())],
        "cost": {
            "battery_per_du": draw(finite), "tu_per_du": draw(finite), "recharge_tu": draw(finite),
            "scan_footprint": draw(st.sampled_from([f.value for f in ScanFootprint])),
        },
        "resources": {draw(st.sampled_from(locations)): draw(st.integers(0, 9))},
    }


@given(_scenario_docs())
@settings(max_examples=150, deadline=None)
def test_generated_scenario_documents_load(doc):
    try:
        load_scenario_dict(doc, name="x")
    except ValidationError as e:
        assert "connected" in e.reason  # a blocked cell may split a grid


def _json_paths(doc, prefix=()):
    """Every path into a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 200) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@given(name=st.sampled_from(["wall_assembly", "scan_grid"]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_fixture_documents_raise_only_load_errors(fix_dir, name, data):
    doc = json.loads((fix_dir / f"{name}.scn.json").read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, key = data.draw(st.sampled_from(list(_json_paths(doc))))
        target = doc
        for k in parents:
            target = target[k]
        if isinstance(target, dict) and data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(_JSON_VALUES)
    _load_noting(doc)


def _load_noting(doc):
    """Load ``doc`` and return the loader's warning texts, asserting that each
    is its note on a loaded task no robot can do; any other warning fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = load_scenario_dict(doc)
        except (ParseError, ValidationError):
            s = None
    notes = [] if s is None else [
        f"task {t.id} requires skills no robot offers: {sorted(k.value for k in t.required_skills - offered)}"
        for offered in [frozenset().union(*(r.skills for r in s.robots))]
        for t in s.tasks
        if not t.required_skills <= offered
    ]
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, note) for note in notes]
    return notes


def test_a_robot_without_skills_leaves_every_task_noted(fix_dir):
    # the mutation above that once failed on the note: wall_assembly's robot with no skills
    doc = json.loads((fix_dir / "wall_assembly.scn.json").read_text(encoding="utf-8"))
    doc["robots"][0]["skills"] = []
    assert _load_noting(doc) == [f"task build_{i} requires skills no robot offers: ['BUILD']" for i in (1, 2, 3)]
