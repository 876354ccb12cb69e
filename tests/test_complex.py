"""Core representation: validation, hyperplanes, cubes, hulls, crossings."""

import importlib
import inspect
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given

from panelcollapse.collapse import classify
from panelcollapse.complex import (
    MAX_VERTICES,
    SIDES,
    CubeComplex,
    Hyperplane,
    _structural_pass,
    validate_graph,
)
from panelcollapse.errors import (
    InternalInvariantError,
    InvalidComplexError,
    PreconditionError,
    StructuralError,
)
from panelcollapse.panels import extremal_panels
from panelcollapse.pocset import dualize_details
from panelcollapse.randgen import (
    GeneratorConfig,
    cyclic_wallspace,
    random_complex_with_action,
    random_wallspace,
)
from panelcollapse.symmetry import GroupAction, iter_steps, run_to_tree

import oracle
from conftest import (
    box_complex,
    coordinate_swap,
    grid_complex,
    hypercube_complex,
    mixed_wallspaces,
    path_complex,
    wallspaces,
)
from test_collapse import _descent_instances


# -- validation ---------------------------------------------------------------


def test_hypercube_is_valid(cube3):
    rep = cube3.validation_report
    assert rep.passed
    assert rep.cube_counts == (8, 12, 6, 1)
    assert rep.euler_characteristic == 8 - 12 + 6 - 1


def test_k23_fails_median_with_named_triple():
    vs = ["a", "b", "x", "y", "z"]
    es = [(a, b) for a in "ab" for b in "xyz"]
    rep = validate_graph(vs, es)
    assert not rep.passed
    assert rep.median is False
    # the violating triple lies on the three-element side: both a and b are
    # medians for it (computed by brute force while freezing this test)
    assert rep.median_violation == ("x", "y", "z")
    with pytest.raises(InvalidComplexError):
        CubeComplex(vs, es)


def test_trees_are_valid():
    for edges in [[(0, 1)], [(0, 1), (1, 2), (1, 3), (3, 4)]]:
        vs = sorted({v for e in edges for v in e})
        rep = validate_graph(vs, edges)
        assert rep.passed and rep.euler_characteristic == 1


def test_single_vertex_is_valid():
    cx = CubeComplex(["p"], [])
    assert cx.validation_report.passed
    assert cx.dimension == 0
    assert cx.cube_counts == (1,)


def test_cycle_graphs_invalid():
    for n in (5, 6):
        vs = list(range(n))
        es = [(i, (i + 1) % n) for i in range(n)]
        rep = validate_graph(vs, es)
        assert not rep.passed


def test_structural_errors():
    # a duplicate is named, also among vertices sorted by repr
    for vs in (["a", "a"], ["x", 1, "x"]):
        with pytest.raises(StructuralError, match=f"^duplicate vertex {vs[0]!r}$"):
            CubeComplex(vs, [])
    with pytest.raises(StructuralError):
        CubeComplex(["a", "b"], [("a", "a")])
    with pytest.raises(StructuralError):
        CubeComplex(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(StructuralError):
        CubeComplex(["a"], [("a", "zzz")])
    with pytest.raises(StructuralError):
        CubeComplex([], [])


def test_oversized_graph_refused():
    n = MAX_VERTICES + 1
    path = (range(n), [(i, i + 1) for i in range(n - 1)])
    for build in (CubeComplex, validate_graph):
        with pytest.raises(PreconditionError, match=f"{n} vertices; the limit is 1500"):
            build(*path)


def test_oversized_graph_refused_before_its_edges_are_read():
    def edges():
        raise AssertionError("the edges of an oversized graph were read")
        yield

    n = MAX_VERTICES + 1
    for build in (CubeComplex, validate_graph):
        with pytest.raises(PreconditionError, match=f"{n} vertices; the limit is 1500"):
            build(range(n), edges())
    # the size is checked first, so a duplicate vertex in an oversized list
    # gets the size error
    with pytest.raises(PreconditionError, match=f"{n} vertices; the limit is 1500"):
        CubeComplex([0, *range(n - 1)], edges())


def test_edge_key_refuses_a_pair_that_is_not_an_edge(square):
    # the message names the pair in canonical order
    for u, v, named in (("00", "11", "'00' '11'"), ("11", "00", "'00' '11'"),
                        ("01", "01", "'01' '01'")):
        with pytest.raises(StructuralError, match=f"^{named} is not an edge$"):
            square.edge_key(u, v)
    assert square.edge_key("01", "00") == ("00", "01")
    path = path_complex(3)
    with pytest.raises(StructuralError, match="^0 3 is not an edge$"):
        path.edge_key(3, 0)
    assert path.edge_key(2, 1) == (1, 2)


def test_disconnected_reported():
    rep = validate_graph([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert not rep.passed and not rep.connected


def test_flag_violation_detected():
    # three squares meeting pairwise around a corner of a would-be 3-cube,
    # with the eighth vertex missing: corner cliques do not close up
    cube = hypercube_complex(3)
    vs = [v for v in cube.vertices if v != "111"]
    es = [e for e in cube.edges if "111" not in e]
    rep = validate_graph(vs, es)
    assert not rep.passed


# -- hyperplanes --------------------------------------------------------------


def test_cube_hyperplanes(cube3):
    planes = cube3.hyperplanes()
    assert len(planes) == 3
    assert all(len(h.edges) == 4 for h in planes)


def test_domino_hyperplane_sizes(domino):
    # two squares glued along an edge: one long wall and two short ones
    sizes = sorted(len(h.edges) for h in domino.hyperplanes())
    assert sizes == [2, 2, 3]
    assert len(domino.edges) == 7


def test_path_hyperplanes_are_singletons():
    cx = path_complex(3)
    assert [len(h.edges) for h in cx.hyperplanes()] == [1, 1, 1]


def test_halfspaces_partition(cube3):
    for h in cube3.hyperplanes():
        assert h.minus | h.plus == frozenset(cube3.vertices)
        assert not h.minus & h.plus
        assert cube3.vertices[0] in h.minus


def test_wall_separation_two_components(domino, cube3, strip3):
    for cx in (domino, cube3, strip3):
        for h in cx.hyperplanes():
            # removal splits the 1-skeleton into the two recorded halfspaces
            for u, v in h.edges:
                assert (u in h.minus) != (v in h.minus)


def test_dual_hyperplane_names_the_wall_holding_the_edge(
    cube3, cube4, square, domino, strip3, tree4
):
    rng = random.Random(19)
    complexes = [cube3, cube4, square, domino, strip3, tree4, box_complex(2, 2, 1)]
    complexes += [
        random_complex_with_action(rng, GeneratorConfig(max_points=7, max_walls=6))[0]
        for _ in range(50)
    ]
    for cx in complexes:
        seen = 0
        for h in cx.hyperplanes():
            for u, v in h.edges:
                assert cx.dual_hyperplane(u, v) == cx.dual_hyperplane(v, u) == h.id
            seen += len(h.edges)
        assert seen == len(cx.edges)


def test_hyperplane_ids_deterministic(cube3):
    rebuilt = CubeComplex(cube3.vertices, cube3.edges)
    assert [sorted(h.edges) for h in rebuilt.hyperplanes()] == [
        sorted(h.edges) for h in cube3.hyperplanes()
    ]


def test_hyperplanes_are_views_read_on_first_use():
    # a build and hyperplanes() make no vertex-name set; each of a wall's
    # edges and sides is read off the wall table and the masks when first
    # asked for, with the value of the filtering reference
    graph = grid_complex(3, 2)
    cx = CubeComplex(graph.vertices, graph.edges)
    assert cx._hyperplanes is None
    planes = cx.hyperplanes()
    assert cx.hyperplanes() is planes
    assert [h.id for h in planes] == list(range(len(cx._wall_edges)))
    reference = oracle.filtered_hyperplanes(cx)
    for h, (h_id, edges, minus, plus) in zip(planes, reference):
        assert not {"edges", "minus", "plus"} & set(vars(h))
        assert h.plus == plus and set(vars(h)) == {"id", "_complex", "plus"}
        assert h.side("-") == minus and h.edges == edges
        assert h == Hyperplane(h_id, cx) and hash(h) == hash(Hyperplane(h_id, cx))
    # views of one complex compare by id, views of two builds of one graph
    # do not compare equal
    assert len(set(planes)) == len(planes)
    assert not set(planes) & set(graph.hyperplanes())
    assert planes[0].edges == graph.hyperplanes()[0].edges


def test_carrier_of_cube_wall(cube3):
    h = cube3.hyperplanes()[0]
    carrier = h.carrier
    # every cube of the 3-cube except the two faces parallel to the wall
    assert frozenset(cube3.vertices) in carrier
    dims = sorted(len(c).bit_length() - 1 for c in carrier)
    assert dims == [1, 1, 1, 1, 2, 2, 2, 2, 3]


# -- cubes --------------------------------------------------------------------


def test_cube_counts_by_dimension(cube3, cube4):
    assert [len(cube3.cube_vertexsets(d)) for d in range(4)] == [8, 12, 6, 1]
    assert [len(cube4.cube_vertexsets(d)) for d in range(5)] == [16, 32, 24, 8, 1]
    assert cube3.cube_vertexsets(5) == ()


def test_tree_has_no_squares(tree4):
    assert tree4.cube_vertexsets(2) == ()


def test_maximal_cubes(domino, cube3):
    assert sorted(len(m) for m in domino.maximal_cubes()) == [4, 4]
    assert [len(m) for m in cube3.maximal_cubes()] == [8]


@pytest.mark.parametrize(
    "vertices",
    [[(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 0), (1, 1)], [(0, 0), (9, 9)], []],
    ids=["path", "opposite-corners", "unknown-vertex", "empty"],
)
def test_non_cubes_are_structural_errors(vertices):
    cx = grid_complex(3, 3)
    cls = classify(cx, [])
    with pytest.raises(StructuralError):
        list(cx.subcubes(frozenset(vertices)))
    with pytest.raises(StructuralError):
        cls.status(frozenset(vertices))


def test_subcube_enumeration(cube3):
    whole = frozenset(cube3.vertices)
    subs = list(cube3.subcubes(whole))
    assert len(subs) == 27  # 3^d faces of a d-cube
    assert sum(1 for s in subs if len(s) == 4) == 6
    faces = list(cube3.subcubes(whole, 2))
    assert len(faces) == 6


# -- metric and convexity ------------------------------------------------------


def test_crossing_set_examples(cube3):
    assert cube3.crossing_set("000", "000") == frozenset()
    assert len(cube3.crossing_set("000", "001")) == 1
    assert cube3.crossing_set("000", "111") == frozenset({0, 1, 2})


def test_sign_rejects_unknown_walls(cube3):
    assert [cube3.sign("011", h) for h in range(3)] == [1, 1, -1]
    for h in (-1, 3):
        with pytest.raises(IndexError, match=f"no wall {h}"):
            cube3.sign("011", h)


def test_distance_equals_crossing_count(cube3, domino, strip3):
    for cx in (cube3, domino, strip3):
        for u, v in itertools.combinations(cx.vertices, 2):
            assert cx.distance(u, v) == len(cx.crossing_set(u, v))


def test_median_uniqueness_brute_force(domino, cube3):
    for cx in (domino, cube3):
        for u, v, w in itertools.combinations(cx.vertices, 3):
            m = cx.median(u, v, w)
            # the median lies on geodesics between all three pairs
            assert cx.distance(u, m) + cx.distance(m, v) == cx.distance(u, v)
            assert cx.distance(u, m) + cx.distance(m, w) == cx.distance(u, w)
            assert cx.distance(v, m) + cx.distance(m, w) == cx.distance(v, w)


def test_convex_hull_examples(cube3, square):
    assert cube3.convex_hull({"000", "111"}) == frozenset(cube3.vertices)
    assert cube3.convex_hull({"010"}) == frozenset({"010"})
    # two adjacent corners of a square span just their edge
    assert square.convex_hull({"00", "01"}) == frozenset({"00", "01"})


def test_convex_hull_is_median_closed(strip3):
    rng = random.Random(7)
    vs = list(strip3.vertices)
    for _ in range(20):
        sample = rng.sample(vs, rng.randint(1, 4))
        hull = strip3.convex_hull(sample)
        for u, v, w in itertools.combinations(sorted(hull), 3):
            assert strip3.median(u, v, w) in hull


def test_helly_property_small_families():
    cx = grid_complex(3, 2)
    rng = random.Random(11)
    vs = list(cx.vertices)
    tried = 0
    while tried < 40:
        hulls = [
            cx.convex_hull(rng.sample(vs, rng.randint(1, 5))) for _ in range(4)
        ]
        if all(a & b for a, b in itertools.combinations(hulls, 2)):
            tried += 1
            common = hulls[0] & hulls[1] & hulls[2] & hulls[3]
            assert common


def test_euler_characteristic_always_one():
    rng = random.Random(3)
    for _ in range(8):
        cx, _ = random_complex_with_action(rng, GeneratorConfig(max_points=7, max_walls=6))
        assert cx.euler_characteristic == 1


def test_median_scan_matches_naive_reference():
    # the bitset scan agrees with a direct computation on arbitrary small
    # connected graphs, median or not, and on connected induced subgraphs of
    # hypercubes, where the first violation often lies past row 0
    from panelcollapse.complex import _median_scan

    rng = random.Random(2024)
    graphs = []
    for _ in range(60):
        n = rng.randint(3, 11)
        edges = {(i, i + 1) for i in range(n - 1)}  # spine keeps it connected
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        graphs.append((n, edges))
    for vs, es in _hypercube_subgraphs(rng, 120):
        ix = {v: i for i, v in enumerate(sorted(vs))}
        graphs.append((len(vs), {(ix[u], ix[v]) for u, v in es}))
    past_row_0 = 0
    for n, edges in graphs:
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        dist = oracle.bfs_distances(adj)
        ok, violation = _median_scan(adj)
        naive_ok = True
        naive_violation = None
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    count = sum(
                        1
                        for x in range(n)
                        if dist[u][x] + dist[x][v] == dist[u][v]
                        and dist[u][x] + dist[x][w] == dist[u][w]
                        and dist[v][x] + dist[x][w] == dist[v][w]
                    )
                    if count != 1 and naive_ok:
                        naive_ok = False
                        naive_violation = (u, v, w)
        assert ok == naive_ok
        if not ok:
            assert violation == naive_violation
            past_row_0 += violation[0] > 0
    assert past_row_0 > 0


def test_validation_scales_to_three_hundred_vertices():
    # a 289-vertex grid goes through the full battery, median scan included
    cx = grid_complex(16, 16)
    assert cx.validation_report.passed
    assert cx.cube_counts == (289, 544, 256)


def test_box_complex_structure():
    cx = box_complex(3, 2, 2)
    assert cx.cube_counts == (36, 75, 52, 12)
    assert cx.euler_characteristic == 1
    assert len(cx.hyperplanes()) == 3 + 2 + 2


def test_random_complexes_distance_crossing(strip3):
    rng = random.Random(5)
    for _ in range(5):
        cx, _ = random_complex_with_action(rng, GeneratorConfig(max_points=7, max_walls=6))
        vs = list(cx.vertices)
        for _ in range(30):
            u, v = rng.choice(vs), rng.choice(vs)
            assert cx.distance(u, v) == len(cx.crossing_set(u, v))


# -- differential check against the brute-force reference ----------------------


def _hypercube_subgraphs(rng, count):
    """Connected induced subgraphs of Q2..Q5, grown one random neighbour at a
    time from a random vertex; vertices are coordinate bitstrings."""
    out = []
    for _ in range(count):
        d = rng.randint(2, 5)
        chosen = {rng.randrange(1 << d)}
        for _ in range(rng.randint(2, 1 << d) - 1):
            frontier = {v ^ (1 << i) for v in chosen for i in range(d)} - chosen
            chosen.add(rng.choice(sorted(frontier)))
        vs = [format(v, f"0{d}b") for v in sorted(chosen)]
        es = [
            (u, v)
            for u, v in itertools.combinations(vs, 2)
            if sum(a != b for a, b in zip(u, v)) == 1
        ]
        out.append((vs, es))
    return out


def _matches_reference(vs, es) -> bool:
    """Compare the library with the reference on one connected graph;
    returns whether the graph is median."""
    order = sorted(vs)
    ix = {v: i for i, v in enumerate(order)}
    int_edges = sorted(tuple(sorted((ix[u], ix[v]))) for u, v in es)
    adj = [set() for _ in order]
    for a, b in int_edges:
        adj[a].add(b)
        adj[b].add(a)
    violation = oracle.first_median_violation(oracle.bfs_distances(adj))
    rep = validate_graph(vs, es)
    assert rep.median == (violation is None)
    if violation is not None:
        assert rep.median_violation == tuple(order[i] for i in violation)
        assert rep.cube_counts == () and rep.euler_characteristic is None
        assert rep.flag_filled is None and not rep.passed
        return False

    cubes = oracle.induced_hypercubes(adj)
    assert oracle.flag_condition(adj, cubes)
    assert oracle.euler_characteristic(cubes) == 1
    cx = CubeComplex(vs, es)
    assert rep.flag_filled is True and rep.passed
    assert cx.cube_counts == tuple(map(len, cubes))
    for d, ref in enumerate(cubes):
        assert set(cx.cube_vertexsets(d)) == {
            frozenset(order[i] for i in c) for c in ref
        }

    walls = oracle.square_walls(adj, int_edges, cubes[2] if len(cubes) > 2 else ())
    wall_of = {e: h for h, (members, _) in enumerate(walls) for e in members}
    assert len(cx.hyperplanes()) == len(walls)
    signs = cx.vertex_signs().tolist()
    for h, (members, plus) in zip(cx.hyperplanes(), walls):
        assert h.edges == {(order[a], order[b]) for a, b in members}
        assert h.plus == {order[i] for i in plus}
        assert h.minus == set(order) - h.plus
        assert [row[h.id] for row in signs] == [1 if i in plus else -1 for i in range(len(order))]
    for d, ref in enumerate(cubes):
        for c in ref:
            expected = {wall_of[e] for e in int_edges if set(e) <= c}
            vs = frozenset(order[i] for i in c)
            assert {cx.dual_hyperplane(*e) for e in cx.subcubes(vs, 1)} == expected
    _mask_views_match_reference(cx, order, cubes, walls)
    return True


def _mask_views_match_reference(cx, order, cubes, walls):
    """The views read off the wall masks (maximal cubes, faces, carriers,
    signs, crossing sets and hulls) against the reference cubes and walls."""
    plus = [side for _, side in walls]
    every = [c for ref in cubes for c in ref]

    def named(cs):
        return sorted(sorted(order[i] for i in c) for c in cs)

    for c in every:
        faces = [f for f in every if f <= c]
        vs = frozenset(order[i] for i in c)
        assert named(map(cx.index, f) for f in cx.subcubes(vs)) == named(faces)
        codim1 = cx.subcubes(vs, len(c).bit_length() - 2)
        assert named(map(cx.index, f) for f in codim1) == named(
            f for f in faces if 2 * len(f) == len(c)
        )
    for h, (members, _) in enumerate(walls):
        assert named(map(cx.index, c) for c in cx.carrier(h)) == named(
            c for c in every if any(a in c and b in c for a, b in members)
        )
    maximal = {
        c for d, ref in enumerate(cubes) for c in ref
        if not any(c < bigger for up in cubes[d + 1:] for bigger in up)
    }
    expected = [
        vs
        for d in range(len(cubes) - 1, -1, -1)
        for vs in cx.cube_vertexsets(d)
        if frozenset(map(cx.index, vs)) in maximal
    ]
    assert list(cx.maximal_cubes()) == expected
    for u, v in itertools.product(range(len(order)), repeat=2):
        assert cx.crossing_set(order[u], order[v]) == {
            h for h, side in enumerate(plus) if (u in side) != (v in side)
        }
    for v in range(len(order)):
        assert [cx.sign(order[v], h) for h in range(len(plus))] == [
            1 if v in side else -1 for side in plus
        ]
    rng = random.Random(len(order))
    everything = frozenset(range(len(order)))
    for _ in range(8):
        sample = set(rng.sample(range(len(order)), rng.randint(1, min(4, len(order)))))
        hull = everything
        for side in plus:
            for half in (side, everything - side):
                if sample <= half:
                    hull &= half
        assert cx.convex_hull({order[i] for i in sample}) == {order[i] for i in hull}


def test_hypercube_subgraphs_match_reference():
    verdicts = [
        _matches_reference(vs, es)
        for vs, es in _hypercube_subgraphs(random.Random(31), 900)
    ]
    # the input set must exercise both verdicts
    assert verdicts.count(True) >= 200 and verdicts.count(False) >= 200


def test_wallspace_duals_match_reference():
    # at most five walls keeps each dual within 32 vertices, which the
    # brute-force reference checks in well under a second
    rng = random.Random(47)
    cfg = GeneratorConfig(max_points=7, max_walls=5)
    checked = 0
    while checked < 60:
        make = random_wallspace if checked % 2 else cyclic_wallspace
        ws = make(rng, cfg)[0]
        if len(ws.walls) <= 5:
            dual = dualize_details(ws).complex
            assert _matches_reference(dual.vertices, dual.edges)
            checked += 1


def _connected(vs, es) -> bool:
    adj = {v: set() for v in vs}
    for u, v in es:
        adj[u].add(v)
        adj[v].add(u)
    seen = {next(iter(adj))}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == len(adj)


def _relabelled(rng, vs, es):
    """The graph with its vertex names permuted at random, so that a random
    vertex comes first and roots the breadth-first search."""
    names = list(vs)
    rng.shuffle(names)
    rename = dict(zip(vs, names))
    return names, [(rename[u], rename[v]) for u, v in es]


def _general_graphs(rng):
    """Connected graphs beyond hypercube subgraphs, each relabelled at random:
    paths with random chords, random bipartite graphs, and duals of random
    wallspaces with one vertex deleted or one non-edge added."""
    graphs = []
    for _ in range(300):
        n = rng.randint(3, 11)
        es = {(i, i + 1) for i in range(n - 1)}
        for _ in range(rng.randint(0, n // 2)):
            a, b = sorted(rng.sample(range(n), 2))
            es.add((a, b))
        graphs.append((list(range(n)), sorted(es)))
    while len(graphs) < 600:
        left = [f"a{i}" for i in range(rng.randint(1, 6))]
        right = [f"b{i}" for i in range(rng.randint(1, 6))]
        p = rng.uniform(0.2, 0.8)
        es = [(u, v) for u in left for v in right if rng.random() < p]
        if _connected(left + right, es):
            graphs.append((left + right, es))
    cfg = GeneratorConfig(max_points=7, max_walls=5)
    while len(graphs) < 800:
        make = random_wallspace if len(graphs) % 2 else cyclic_wallspace
        ws = make(rng, cfg)[0]
        if len(ws.walls) > 5:
            continue
        dual = dualize_details(ws).complex
        vs, es = list(dual.vertices), list(dual.edges)
        if rng.random() < 0.5:
            x = rng.choice(vs)
            vs.remove(x)
            es = [e for e in es if x not in e]
        else:
            non_edges = [
                e for e in itertools.combinations(vs, 2)
                if e not in es and e[::-1] not in es
            ]
            if not non_edges:
                continue
            es.append(rng.choice(non_edges))
        if vs and _connected(vs, es):
            graphs.append((vs, es))
    return [_relabelled(rng, vs, es) for vs, es in graphs]


def test_general_graphs_match_reference():
    verdicts = [_matches_reference(vs, es) for vs, es in _general_graphs(random.Random(53))]
    assert verdicts.count(True) >= 200 and verdicts.count(False) >= 200


def test_median_scan_runs_only_on_rejection(monkeypatch):
    from panelcollapse import complex as cplx

    def refuse(adj):
        raise AssertionError("the median scan ran on a median graph")

    monkeypatch.setattr(cplx, "_median_scan", refuse)
    assert grid_complex(12, 9).cube_counts == (130, 237, 108)
    assert box_complex(3, 2, 2).cube_counts == (36, 75, 52, 12)
    assert hypercube_complex(5).cube_counts == (32, 80, 80, 40, 10, 1)
    rng = random.Random(59)
    cfg = GeneratorConfig(max_points=7, max_walls=6)
    for _ in range(20):
        assert random_complex_with_action(rng, cfg)[0].validation_report.passed
    with pytest.raises(AssertionError, match="median scan ran"):
        validate_graph(["a", "b", "x", "y", "z"], [(a, b) for a in "ab" for b in "xyz"])


def test_three_cube_check_runs_only_where_three_walls_cross(monkeypatch):
    from panelcollapse import complex as cplx

    def refuse(*args):
        raise AssertionError("the 3-cube check ran")

    monkeypatch.setattr(cplx, "_three_cube_condition", refuse)
    # no three walls pairwise cross in a 2-dimensional complex, and collapse
    # never raises the dimension
    assert grid_complex(12, 9).cube_counts == (130, 237, 108)
    assert grid_complex(37, 37).cube_counts == (1444, 2812, 1369)
    grid = grid_complex(6, 6)
    trace = run_to_tree(grid, GroupAction(grid, [coordinate_swap(grid, 0, 1)]))
    assert trace.final_complex.is_tree()
    for build in (lambda: hypercube_complex(3), lambda: box_complex(2, 2, 2)):
        with pytest.raises(AssertionError, match="3-cube check ran"):
            build()


def _rooted_everywhere(vs, es):
    """The graph renamed once per vertex so that it comes first and roots
    the breadth-first search."""
    for root in vs:
        name = {v: ("0" if v == root else "1") + v for v in vs}
        yield [name[v] for v in vs], [(name[u], name[v]) for u, v in es]


def _three_cube_graphs():
    """Six graphs that are not median, each rejected at some of its rootings
    by the 3-cube check or by the distinct-labels check just before it."""
    corners = ["".join(b) for b in itertools.product("01", repeat=3)]
    cube_edges = [
        (u, v)
        for u, v in itertools.combinations(corners, 2)
        if sum(a != b for a, b in zip(u, v)) == 1
    ]
    # the 3-cube minus 111 with a pendant vertex on 100: rooted at the
    # pendant, 000 has its neighbour 100 below it and 010, 001 above, so a
    # 3-cube check made only at vertices that lie below all three of their
    # squares would miss the corner 111
    pendant = (
        [v for v in corners if v != "111"] + ["p"],
        [e for e in cube_edges if "111" not in e] + [("100", "p")],
    )
    # two halves of a 3-cube, each missing its far corner, over the same
    # three vertices bxy, bxz, byz: from r the masks of x, y and z coincide
    halves = (
        ["r", "w1", "w2", "w3", "bxy", "bxz", "byz", "x", "y", "z", "c"],
        [("r", w) for w in ("w1", "w2", "w3")]
        + [("w1", "bxy"), ("w2", "bxy"), ("w1", "bxz"), ("w3", "bxz")]
        + [("w2", "byz"), ("w3", "byz")]
        + [(b, t) for b in ("bxy", "bxz", "byz") for t in "xyz" if t in b[1:]]
        + [(t, "c") for t in "xyz"],
    )
    # each of these holds an induced K2,3; once every edge flips one bit, two
    # vertices have at most two common neighbours when the labels are
    # distinct, and that check alone rejects some rootings
    k23 = (["a", "b", "x", "y", "z"], [(u, v) for u in "ab" for v in "xyz"])
    # from r: x and y over z, under two tops t and u
    two_tops = (
        ["r", "z", "x", "y", "t", "u"],
        [("r", "z"), ("z", "x"), ("z", "y")] + [(u, v) for u in "xy" for v in "tu"],
    )
    # from r: x and y over two common down-neighbours z and w, under t
    two_bottoms = (
        ["r", "z", "w", "x", "y", "t"],
        [("r", "z"), ("r", "w"), ("x", "t"), ("y", "t")]
        + [(u, v) for u in "zw" for v in "xy"],
    )
    # from r: three paths from t down to w, and a tail that gives the graph
    # enough vertices for three down-edges at t to span a cube
    three_paths = (
        ["r", "w", "p", "q", "s", "t", "e", "f"],
        [("r", "w"), ("r", "e"), ("e", "f")] + [(u, v) for u in "pqs" for v in "wt"],
    )
    return pendant, halves, k23, two_tops, two_bottoms, three_paths


def test_three_cube_check_holds_at_every_root(monkeypatch):
    from panelcollapse import complex as cplx

    verdicts = []
    check = cplx._three_cube_condition

    def recorded(*args):
        verdicts.append(check(*args))
        # the label check agrees with the vertex-link check wherever it runs
        assert verdicts[-1] == oracle.three_cube_condition(args[0])
        return verdicts[-1]

    monkeypatch.setattr(cplx, "_three_cube_condition", recorded)
    for graph in _three_cube_graphs():
        for vs, es in _rooted_everywhere(*graph):
            assert not _matches_reference(vs, es)
    # the 3-cube check itself rejects some rootings of the first graph
    assert False in verdicts


def test_three_cube_check_needs_the_bottom_corner(monkeypatch):
    from panelcollapse import complex as cplx

    source = inspect.getsource(cplx._three_cube_condition)
    mutants = {
        # the edges up from a square looked for at its bottom corner, which
        # has them, instead of at its top
        "link[b][p] & link[b][q] & ~walls_at[t]": "link[b][p] & link[b][q] & ~walls_at[b]",
        # no check of the walls leading down from the bottom corner
        "down[vertex_of[m ^ p]] & down[vertex_of[m ^ q]] & ~down[t]": "0",
    }
    for rule, broken in mutants.items():
        assert source.count(rule) == 1
        namespace = dict(vars(cplx))
        exec(source.replace(rule, broken), namespace)
        mutant = namespace["_three_cube_condition"]
        disagreements = []

        def recorded(*args):
            verdict = mutant(*args)
            disagreements.append(verdict != oracle.three_cube_condition(args[0]))
            return verdict

        monkeypatch.setattr(cplx, "_three_cube_condition", recorded)
        for graph in _three_cube_graphs():
            for vs, es in _rooted_everywhere(*graph):
                validate_graph(vs, es)
        assert True in disagreements, rule


def test_recogniser_matches_the_reference_on_a_sweep_slice(monkeypatch):
    from panelcollapse import complex as cplx

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    sweep = importlib.import_module("recogniser_sweep")
    verdicts = []
    check = cplx._three_cube_condition

    def recorded(*args):
        verdicts.append(check(*args))
        assert verdicts[-1] == oracle.three_cube_condition(args[0])
        return verdicts[-1]

    monkeypatch.setattr(cplx, "_three_cube_condition", recorded)
    counts, wrong = sweep.sweep(seed=5, count=400)
    assert wrong == []
    assert counts["median"] >= 40 and counts["connected"] - counts["median"] >= 200
    # the 3-cube check runs last, so each False is a graph that it alone
    # rejects, and each True a median graph
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 20


def _assert_earlier_tables(order, int_edges):
    """Whether the graph is connected and median, after checking that the
    recogniser gives it the earlier recogniser's verdict and tables."""
    report, differences = oracle.recogniser_differences(order, int_edges)
    assert differences == [], differences
    return report.passed


def test_recogniser_matches_its_earlier_tables():
    # rejections, among them some by the 3-cube check, at every root
    verdicts = [
        _assert_earlier_tables(*_structural_pass(vs, es)[::2])
        for graph in _three_cube_graphs()
        for vs, es in _rooted_everywhere(*graph)
    ]
    assert verdicts.count(False) >= 20 and True not in verdicts
    # every input and output of two descents, and the duals of every class
    # of wallspace the bench mixes; scripts/recogniser_sweep.py compares the
    # tables of each median graph of its sweep too
    grid, box = grid_complex(6, 6), box_complex(3, 3, 3)
    s3 = [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)]
    runs = [
        (grid, GroupAction(grid, [coordinate_swap(grid, 0, 1)])),
        (box, GroupAction(box, s3)),
    ]
    built = [
        cx
        for run in runs
        for step in iter_steps(*run)
        for cx in (step.result.input_complex, step.result.output_complex)
    ]
    built += [dualize_details(ws).complex for ws, _ in mixed_wallspaces(seed=9, per_class=3)]
    assert len(built) == 2 * (21 + 12) + 9 * 3
    assert all(_assert_earlier_tables(cx._order, cx._int_edges) for cx in built)


def test_recogniser_faults_are_internal_errors(monkeypatch):
    from panelcollapse import complex as cplx

    square = (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    # a rejection the median scan cannot confirm
    monkeypatch.setattr(cplx, "_median_walls", lambda *args: None)
    with pytest.raises(InternalInvariantError, match="median scan accepts"):
        validate_graph(*square)
    monkeypatch.undo()
    # a broken mask rule, a vertex taking only its first down-neighbour's
    # mask, rejects the square's top, and the median scan accepts the square
    rule = "masks[xs[0]] | masks[xs[1]]"
    source = inspect.getsource(cplx._median_walls)
    assert source.count(rule) == 1
    namespace = dict(vars(cplx))
    exec(source.replace(rule, "masks[xs[0]]"), namespace)
    monkeypatch.setattr(cplx, "_median_walls", namespace["_median_walls"])
    with pytest.raises(InternalInvariantError, match="median scan accepts"):
        CubeComplex(*square)


def test_largest_grid_under_the_vertex_limit():
    # 1444 vertices, just under MAX_VERTICES
    cx = grid_complex(37, 37)
    assert cx.cube_counts == (1444, 2812, 1369)
    assert len(cx.hyperplanes()) == 74


def test_rejection_at_the_vertex_limit_names_row_0_in_bounded_memory():
    # the first violating triple lies in row 0, so the scan builds the
    # interval row of vertex 0 and the cone rows it reads, not a table of
    # every pair
    grid = grid_complex(37, 37)
    chord = ((37, 37), (36, 35))
    tracemalloc.start()
    try:
        report = validate_graph(grid.vertices, [*grid.edges, chord])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.median_violation == ((0, 0), (0, 37), (37, 37))
    assert peak < 64 << 20


def test_rejection_past_row_0_reads_the_cached_cone_rows():
    # box 5^3 less its top corner: the three corners next to it have no
    # median, and every earlier triple has one, so rows 0 to 34 pass and
    # reuse the cone rows cached on the way
    box = box_complex(5, 5, 5)
    vs = [v for v in box.vertices if v != (5, 5, 5)]
    es = [e for e in box.edges if (5, 5, 5) not in e]
    report = validate_graph(vs, es)
    assert report.median_violation == ((0, 5, 5), (5, 0, 5), (5, 5, 0))
    assert vs.index((0, 5, 5)) == 35


def test_maximal_cube_counts_in_closed_form(tree4):
    # a grid's maximal cubes are its squares, a cube's is itself, a box's
    # are its unit cubes and a path's are its edges
    assert len(grid_complex(37, 37).maximal_cubes()) == 1369
    assert [len(m) for m in hypercube_complex(7).maximal_cubes()] == [128]
    assert len(box_complex(3, 2, 2).maximal_cubes()) == 12
    assert len(path_complex(5).maximal_cubes()) == 5
    assert len(tree4.maximal_cubes()) == 3
    assert CubeComplex(["v"], []).maximal_cubes() == (frozenset({"v"}),)


def _assert_lazy_tables_match_the_eager_ones(cx):
    cubes = oracle.eager_cubes(cx)
    assert cx.cube_counts == tuple(map(len, cubes))
    assert cx._crossing == oracle.eager_crossing(cubes, len(cx._wall_edges))
    for d in range(-1, len(cubes) + 1):
        assert cx._dim_cubes(d) == (cubes[d] if 0 <= d < len(cubes) else []), d
    assert list(cx._cubes) == cubes
    assert cx._maximal_cubes() == oracle.adjacency_maximal_cubes(cx, cubes)


def test_lazy_cube_tables_match_the_eager_reference_along_descents():
    # a step reads only the cubes of dimension 2 and up: the vertex and edge
    # lists of its output stay unbuilt
    steps = 0
    for instance in _descent_instances():
        for step in iter_steps(*instance):
            out = step.result.output_complex
            assert 0 not in out._cube_lists and 1 not in out._cube_lists
            assert "_cubes" not in vars(out)
            _assert_lazy_tables_match_the_eager_ones(step.result.input_complex)
            _assert_lazy_tables_match_the_eager_ones(out)
            steps += 1
    assert steps >= 50, steps


def _assert_step_reads_match_their_references(cx, families):
    for name, (table, reference) in oracle.step_reads(cx, families).items():
        assert table == reference, name


def _every_wall(cx):
    walls = len(cx._wall_edges)
    return [(1 << walls) - 1, *(1 << h for h in range(walls))]


def _assert_steps_read_what_the_build_recorded(cx, action):
    # a step reads the squares, the crossing masks and the maximal cubes
    # across its abutting walls from the build of its input
    steps = 0
    for step in iter_steps(cx, action):
        before = step.result.input_complex
        abutting = sum({1 << p.abutting for p in step.result.panels})
        _assert_step_reads_match_their_references(before, [abutting, *_every_wall(before)])
        steps += 1
    return steps


def test_step_reads_match_their_references_along_descents():
    steps = sum(
        _assert_steps_read_what_the_build_recorded(*instance)
        for instance in _descent_instances()
    )
    assert steps >= 50, steps


def test_step_reads_match_their_references_on_grids_and_boxes():
    grid = grid_complex(6, 6)
    box = box_complex(3, 3, 3)
    s3 = [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)]
    runs = [
        (grid, GroupAction(grid, [coordinate_swap(grid, 0, 1)])),
        (box, GroupAction(box, s3)),
        (box, GroupAction(box, [])),
    ]
    steps = [_assert_steps_read_what_the_build_recorded(*run) for run in runs]
    assert steps == [21, 12, 54]
    for cx in (grid_complex(12, 5), box_complex(2, 3, 1), hypercube_complex(5)):
        _assert_step_reads_match_their_references(cx, _every_wall(cx))


@given(wallspaces())
def test_lazy_cube_tables_match_the_eager_reference_on_duals(ws):
    dual = dualize_details(ws).complex
    cx = CubeComplex(dual.vertices, dual.edges)
    # a build lists no cube
    assert not cx._cube_lists and "_cubes" not in vars(cx)
    _assert_lazy_tables_match_the_eager_ones(cx)


def _assert_sides_and_signs_match_the_references(cx):
    planes = [(h.id, h.edges, h.minus, h.plus) for h in cx.hyperplanes()]
    assert planes == oracle.filtered_hyperplanes(cx)
    signs = cx.vertex_signs()
    raw, shape = oracle.sign_matrix(cx._masks, len(cx._wall_edges))
    if not cx._wall_edges:
        # a view cannot have a zero in its shape: no wall gives the empty view
        shape = (0,)
    assert (signs.format, signs.shape) == ("b", shape)
    assert signs.tobytes() == raw


def test_sides_and_signs_match_the_references():
    # no wall, a tree, more walls than a machine word holds, a cube and a box
    tree = CubeComplex("rabcd", [("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")])
    grid = grid_complex(37, 37)
    assert len(grid._wall_edges) == 74
    for cx in (
        CubeComplex(["v"], []),
        tree,
        grid,
        hypercube_complex(6),
        box_complex(3, 3, 3),
    ):
        # a build makes no sign matrix
        assert cx._signs is None
        _assert_sides_and_signs_match_the_references(cx)


@given(wallspaces())
def test_sides_and_signs_match_the_references_on_duals(ws):
    dual = dualize_details(ws).complex
    _assert_sides_and_signs_match_the_references(CubeComplex(dual.vertices, dual.edges))


def _assert_cubes_across_match_the_whole_scans(cx, masks, fresh=False):
    # the listings at the tops of the walls' edges against the scans of
    # every cube that ``carrier`` and ``Panel.cube_set`` once made
    carriers = [cx.carrier(h) for h in range(len(cx._wall_edges))]
    panels = extremal_panels(cx)
    cube_sets = [p.cube_set for p in panels]
    if fresh:
        # neither builds a list of cubes, and the build keeps no squares
        assert "_cubes" not in vars(cx) and cx._cube_lists == {}
    assert "_squares" not in vars(cx)
    cubes = [c for by_dim in cx._cubes[1:] for c in by_dim]
    for walls in masks:
        assert set(cx._cubes_across(walls)) == {c for c in cubes if c[1] & walls}
    assert carriers == [
        tuple(cx._vertex_set(c) for by_dim in cx._cubes for c in by_dim if c[1] >> h & 1)
        for h in range(len(cx._wall_edges))
    ]
    for p, cube_set in zip(panels, cube_sets):
        h, e, bit = p.abutting, p.extremalising, SIDES.index(p.side)
        assert cube_set == {
            cx._vertex_set((base, axes))
            for base, axes in cubes
            if axes >> h & 1 and not axes >> e & 1 and base >> e & 1 == bit
        }


def test_cubes_across_walls_match_the_whole_scans_along_descents():
    steps = 0
    for instance in _descent_instances():
        for step in iter_steps(*instance):
            before, after = step.result.input_complex, step.result.output_complex
            # the output's walls whose edges are diagonals, as a step lists
            diagonal = sum(
                1 << w
                for w, flip in enumerate(step.result.wall_crossings)
                if flip & (flip - 1)
            )
            _assert_cubes_across_match_the_whole_scans(before, _every_wall(before))
            _assert_cubes_across_match_the_whole_scans(after, [diagonal, *_every_wall(after)])
            steps += 1
    assert steps >= 50, steps


def test_cubes_across_walls_match_the_whole_scans_on_grids_and_boxes():
    for cx in (grid_complex(6, 6), box_complex(3, 3, 3), hypercube_complex(5)):
        _assert_cubes_across_match_the_whole_scans(cx, _every_wall(cx), fresh=True)
