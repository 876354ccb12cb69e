"""Core representation: validation, hyperplanes, cubes, hulls, crossings."""

import itertools
import random

import pytest

from panelcollapse.collapse import classify
from panelcollapse.complex import MAX_VERTICES, CubeComplex, validate_graph
from panelcollapse.errors import (
    InternalInvariantError,
    InvalidComplexError,
    PreconditionError,
    StructuralError,
)
from panelcollapse.pocset import dualize
from panelcollapse.randgen import (
    GeneratorConfig,
    cyclic_wallspace,
    random_complex_with_action,
    random_wallspace,
)

import oracle
from conftest import box_complex, grid_complex, hypercube_complex, path_complex


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
    with pytest.raises(StructuralError):
        CubeComplex(["a", "a"], [])
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


def test_carrier_of_cube_wall(cube3):
    h = cube3.hyperplanes()[0]
    carrier = h.carrier
    # every cube of the 3-cube except the two faces parallel to the wall
    assert frozenset(cube3.vertices) in carrier
    dims = sorted(len(c).bit_length() - 1 for c in carrier)
    assert dims == [1, 1, 1, 1, 2, 2, 2, 2, 3]


# -- cubes --------------------------------------------------------------------


def test_cube_counts_by_dimension(cube3, cube4):
    assert [len(cube3.cubes(d)) for d in range(4)] == [8, 12, 6, 1]
    assert [len(cube4.cubes(d)) for d in range(5)] == [16, 32, 24, 8, 1]
    assert cube3.cubes(5) == ()


def test_tree_has_no_squares(tree4):
    assert tree4.cubes(2) == ()


def test_corner_map_consistency(cube3):
    c = cube3.cubes(3)[0]
    assert c.dimension == 3
    seen = set()
    for bits in itertools.product((0, 1), repeat=3):
        v = c.corner(bits)
        seen.add(v)
        for i in range(3):
            flipped = list(bits)
            flipped[i] ^= 1
            w = c.corner(flipped)
            assert cube3.distance(v, w) == 1
    assert seen == set(c.vertices)


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
        cx.cube_axes(frozenset(vertices))
    with pytest.raises(StructuralError):
        cls.status(frozenset(vertices))


def test_subcube_enumeration(cube3):
    whole = frozenset(cube3.vertices)
    subs = list(cube3.subcubes(whole))
    assert len(subs) == 27  # 3^d faces of a d-cube
    assert sum(1 for s in subs if len(s) == 4) == 6
    faces = list(cube3.codim1_faces(whole))
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
    # the vectorized all-triples scan agrees with a direct computation on
    # arbitrary small connected graphs, median or not
    import numpy as np

    from panelcollapse.complex import _distances, _median_scan

    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(3, 11)
        edges = {(i, i + 1) for i in range(n - 1)}  # spine keeps it connected
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        dist = _distances(n, adj)
        ok, violation = _median_scan(dist)
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
    signs = cx.vertex_signs()
    for h, (members, plus) in zip(cx.hyperplanes(), walls):
        assert h.edges == {(order[a], order[b]) for a, b in members}
        assert h.plus == {order[i] for i in plus}
        assert h.minus == set(order) - h.plus
        assert signs[:, h.id].tolist() == [1 if i in plus else -1 for i in range(len(order))]
    for d, ref in enumerate(cubes):
        for c in ref:
            expected = {wall_of[e] for e in int_edges if set(e) <= c}
            assert cx.cube_axes(frozenset(order[i] for i in c)) == expected
    _mask_views_match_reference(cx, order, cubes, walls)
    return True


def _mask_views_match_reference(cx, order, cubes, walls):
    """The views read off the wall masks (maximal cubes, corner maps, faces,
    carriers, signs, crossing sets and hulls) against the reference cubes
    and walls."""
    plus = [side for _, side in walls]
    every = [c for ref in cubes for c in ref]

    def named(cs):
        return sorted(sorted(order[i] for i in c) for c in cs)

    for c in every:
        faces = [f for f in every if f <= c]
        vs = frozenset(order[i] for i in c)
        assert named(map(cx.index, f) for f in cx.subcubes(vs)) == named(faces)
        assert named(map(cx.index, f) for f in cx.codim1_faces(vs)) == named(
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
    for d in range(len(cubes)):
        for cube in cx.cubes(d):
            assert list(cube.axes) == sorted(cx.cube_axes(cube.vertices))
            assert set(cube.corners) == cube.vertices
            for i, v in enumerate(cube.corners):
                bits = format(i, f"0{d}b") if d else ""
                assert [cx.index(v) in plus[h] for h in cube.axes] == [
                    b == "1" for b in bits
                ]
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
            dual = dualize(ws)
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
        dual = dualize(ws)
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

    def refuse(dist):
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


def test_recogniser_faults_are_internal_errors(monkeypatch):
    from panelcollapse import complex as cplx

    square = (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    # a rejection the median scan cannot confirm
    monkeypatch.setattr(cplx, "_median_squares", lambda *args: None)
    with pytest.raises(InternalInvariantError, match="median scan accepts"):
        validate_graph(*square)
    # without its square, the walls of the 4-cycle do not match its masks
    monkeypatch.setattr(cplx, "_median_squares", lambda *args: [])
    with pytest.raises(InternalInvariantError, match="edge 'c' 'd' does not cross"):
        CubeComplex(*square)


def test_largest_grid_under_the_vertex_limit():
    # 1444 vertices, just under MAX_VERTICES
    cx = grid_complex(37, 37)
    assert cx.cube_counts == (1444, 2812, 1369)
    assert len(cx.hyperplanes()) == 74


def test_maximal_cube_counts_in_closed_form(tree4):
    # a grid's maximal cubes are its squares, a cube's is itself, a box's
    # are its unit cubes and a path's are its edges
    assert len(grid_complex(37, 37).maximal_cubes()) == 1369
    assert [len(m) for m in hypercube_complex(7).maximal_cubes()] == [128]
    assert len(box_complex(3, 2, 2).maximal_cubes()) == 12
    assert len(path_complex(5).maximal_cubes()) == 5
    assert len(tree4.maximal_cubes()) == 3
    assert CubeComplex(["v"], []).maximal_cubes() == (frozenset({"v"}),)
