"""Wallspace dualization and the wallspace-to-tree pipeline."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings

from panelcollapse import pocset
from panelcollapse.errors import InternalInvariantError, PreconditionError, StructuralError
from panelcollapse.fileio import parse_wallspace
from panelcollapse.pocset import (
    Wallspace,
    dualize,
    dualize_details,
    stallings_pipeline,
    symmetry_automorphism,
)
from panelcollapse.randgen import GeneratorConfig, cyclic_wallspace, random_wallspace
from panelcollapse.symmetry import complexity, run_to_tree

import oracle
from conftest import (
    DATA,
    SEVEN_CUBE_SIDES,
    pairwise_crossing_walls,
    rotation,
    six_point_walls,
    wallspaces,
)


def crossing_wallspace(n):
    """n pairwise-crossing walls realized on the 2^n orthant points."""
    pts = ["p" + "".join(map(str, bits)) for bits in itertools.product((0, 1), repeat=n)]
    walls = []
    for i in range(n):
        a = frozenset(p for p in pts if p[1 + i] == "0")
        walls.append((a, frozenset(pts) - a))
    return Wallspace.from_data(pts, walls)


SQUARE_WS = Wallspace.from_data(
    ["a", "b", "c", "d"],
    [({"a", "b"}, {"c", "d"}), ({"a", "c"}, {"b", "d"})],
)
NESTED_WS = Wallspace.from_data(
    ["a", "b", "c"],
    [({"a"}, {"b", "c"}), ({"a", "b"}, {"c"})],
)
# three pairwise crossing walls that p_i -> p_{i+2} permutes cyclically
TRIPLE_WS = Wallspace.from_data(*six_point_walls("012", "015", "045"))


def test_wallspace_validation():
    with pytest.raises(StructuralError):
        Wallspace.from_data(["a"], [({"a"}, set())])
    with pytest.raises(StructuralError):
        Wallspace.from_data(["a", "b"], [({"a"}, {"a", "b"})])
    with pytest.raises(StructuralError):
        Wallspace.from_data(
            ["a", "b"], [({"a"}, {"b"}), ({"b"}, {"a"})]
        )


def test_two_crossing_walls_give_square():
    assert dualize(SQUARE_WS).cube_counts == (4, 4, 1)


def test_two_nested_walls_give_path():
    cx = dualize(NESTED_WS)
    assert cx.cube_counts == (3, 2)


def test_pairwise_crossing_walls_give_hypercubes():
    for n in (2, 3, 4):
        cx = dualize(crossing_wallspace(n))
        assert cx.cube_counts[0] == 2 ** n
        assert cx.dimension == n


def test_empty_wall_list_gives_point():
    assert dualize(Wallspace.from_data(["x", "y"], [])).cube_counts == (1,)


def test_hyperplanes_biject_with_realized_walls():
    for ws in (SQUARE_WS, NESTED_WS, crossing_wallspace(3)):
        info = dualize_details(ws)
        wall_ids = set(info.wall_of_hyperplane.values())
        assert len(info.wall_of_hyperplane) == len(info.complex.hyperplanes())
        # every wall of these spaces is realized by some edge flip
        assert wall_ids == set(range(ws.wall_count))
        # and distinct hyperplanes flip distinct walls
        assert len(wall_ids) == len(info.wall_of_hyperplane)


def test_wall_map_matches_the_orientation_names():
    # reference rule: an edge's two orientation names differ at the index of
    # the wall it flips
    rng = random.Random(41)
    cfg = GeneratorConfig(max_points=7, max_walls=5)
    checked = 0
    while checked < 60:
        ws = (random_wallspace if checked % 2 else cyclic_wallspace)(rng, cfg)[0]
        if len(ws.walls) > 5:
            continue
        info = dualize_details(ws)
        cx = info.complex
        expected = {}
        for h, edges in enumerate(cx._wall_edges):
            flips = {
                next(i for i, (a, b) in enumerate(zip(u[1:], v[1:])) if a != b)
                for u, v in ((cx.vertices[a], cx.vertices[b]) for a, b in edges)
            }
            assert len(flips) == 1
            expected[h] = flips.pop()
        assert list(info.wall_of_hyperplane.items()) == sorted(expected.items())
        checked += 1


def test_dual_matches_the_brute_force_orientations():
    # the flip closure from one principal orientation reaches every
    # consistent orientation: the dual of a finite wallspace is connected
    spaces = [
        Wallspace.from_data(*parse_wallspace(path.read_text())[:2])
        for path in sorted(DATA.glob("*.ws"))
    ]
    rng = random.Random(53)
    cfg = GeneratorConfig(max_points=9, max_walls=10)
    drawn = 0
    while drawn < 300:
        ws = (random_wallspace if drawn % 2 else cyclic_wallspace)(rng, cfg)[0]
        if len(ws.walls) <= 10:
            spaces.append(ws)
            drawn += 1
    sizes = []
    for ws in spaces:
        info = dualize_details(ws)
        cx = info.complex
        names, edges = oracle.dual_orientations(ws.walls)
        assert set(cx.vertices) == names, ws
        assert {frozenset(e) for e in cx.edges} == edges, ws
        for p in ws.points:
            side = "".join("-" if p in a else "+" for a, _ in ws.walls)
            assert info.principal[p] == "o" + side
        sizes.append(len(ws.walls))
    assert max(sizes) >= 8 and sizes.count(1) + sizes.count(2) >= 10, sizes


def test_principal_distance_equals_wall_separation():
    for ws in (SQUARE_WS, NESTED_WS, crossing_wallspace(3)):
        info = dualize_details(ws)
        for p, q in itertools.combinations(ws.points, 2):
            d = info.complex.distance(info.principal[p], info.principal[q])
            assert d == len(ws.separating(p, q))


def test_symmetry_pushes_to_automorphism():
    info = dualize_details(SQUARE_WS)
    sym = {"a": "a", "d": "d", "b": "c", "c": "b"}
    g = symmetry_automorphism(info, sym)
    assert g.preserves_edges() is None
    assert not g.is_identity


def test_symmetry_must_preserve_walls():
    with pytest.raises(StructuralError):
        SQUARE_WS.wall_permutation({"a": "b", "b": "a", "c": "c", "d": "d"})


def test_stallings_three_crossing_walls():
    res = stallings_pipeline(crossing_wallspace(3))
    assert res.tree.cube_counts == (8, 7)
    assert complexity(res.tree, res.action).is_zero
    assert not res.subdivided


def test_stallings_nested_is_trivial():
    res = stallings_pipeline(NESTED_WS)
    assert res.trace.step_count == 0
    assert res.tree.cube_counts == (3, 2)


def test_stallings_square_with_rotation():
    sym = {"a": "a", "d": "d", "b": "c", "c": "b"}
    res = stallings_pipeline(SQUARE_WS, [sym])
    assert res.tree.cube_counts == (4, 3)
    assert res.group_order == 2
    assert not res.subdivided
    # the involution preserves the tree
    g = next(g for g in res.action.elements if not g.is_identity)
    edge_set = {frozenset(e) for e in res.tree.edges}
    assert {frozenset({g(u), g(v)}) for u, v in res.tree.edges} == edge_set
    # edge stabilisers divide wall stabiliser order times 2^dim
    dim = res.dual_info.complex.dimension
    for size in res.edge_stabiliser_sizes.values():
        assert any(
            (w * (1 << dim)) % size == 0 for w in res.wall_stabiliser_sizes
        )


def test_stallings_with_inverting_symmetry_subdivides():
    # a symmetry swapping the two sides of a wall forces subdivision
    ws = Wallspace.from_data(["a", "b"], [({"a"}, {"b"})])
    res = stallings_pipeline(ws, [{"a": "b", "b": "a"}])
    assert res.subdivided
    assert res.tree.validation_report.passed
    assert complexity(res.tree, res.action).is_zero


def test_stallings_edge_fixed_by_the_whole_group():
    # the diagonal edge of the collapsed 3-cube is fixed by the rotation of
    # order 3, which divides no wall stabiliser (all trivial) times 2^3
    res = stallings_pipeline(TRIPLE_WS, [rotation(6, 2)])
    assert res.group_order == 3
    assert res.wall_stabiliser_sizes == (1, 1, 1)
    assert sorted(res.edge_stabiliser_sizes.values()) == [1] * 6 + [3]
    diagonal = next(e for e, k in res.edge_stabiliser_sizes.items() if k == 3)
    assert res.trace.edge_origins[diagonal] == {0, 1, 2}


def test_stallings_rejects_origins_moved_by_a_stabiliser(monkeypatch):
    def corrupted_run(cx, action):
        trace = run_to_tree(cx, action)
        origins = dict(trace.edge_origins)
        diagonal = max(origins, key=lambda e: len(origins[e]))
        origins[diagonal] = frozenset({0})
        return dataclasses.replace(trace, edge_origins=origins)

    monkeypatch.setattr(pocset, "run_to_tree", corrupted_run)
    with pytest.raises(InternalInvariantError, match="origin walls"):
        stallings_pipeline(TRIPLE_WS, [rotation(6, 2)])


def test_stallings_refuses_an_oversized_subdivision():
    ws = Wallspace.from_data(*six_point_walls(*SEVEN_CUBE_SIDES))
    with pytest.raises(PreconditionError, match="2187 vertices; the limit is 1500"):
        stallings_pipeline(ws, [rotation(6, 1)])


def test_dualize_refuses_too_many_orientations():
    # 15 pairwise-crossing walls have 2**15 consistent orientations; the flip
    # closure stops after the first 1501 of them
    ws = Wallspace.from_data(*pairwise_crossing_walls(15))
    message = "wallspace has more than 1500 consistent orientations; the limit is 1500"
    with pytest.raises(PreconditionError) as excinfo:
        dualize_details(ws)
    assert str(excinfo.value) == message


@given(wallspaces())
@settings(max_examples=40)
def test_dual_complex_always_validates(ws):
    info = dualize_details(ws)
    assert info.complex.validation_report.passed
    # flips and walls stay in bijection
    for h, wall in info.wall_of_hyperplane.items():
        assert 0 <= wall < ws.wall_count


@given(wallspaces())
@settings(max_examples=25)
def test_pipeline_soundness(ws):
    res = stallings_pipeline(ws)
    tree = res.tree
    assert tree.is_tree()
    assert tree.cube_counts[0] - 1 == (
        tree.cube_counts[1] if len(tree.cube_counts) > 1 else 0
    )
    assert complexity(tree, res.action).is_zero
