"""Wallspace dualization and the wallspace-to-tree pipeline."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings

from panelcollapse import symmetry
from panelcollapse.complex import CubeComplex
from panelcollapse.errors import InternalInvariantError, PreconditionError, StructuralError
from panelcollapse.fileio import parse_wallspace
from panelcollapse.pocset import (
    Wallspace,
    dualize_details,
    stallings_pipeline,
    symmetry_automorphism,
)
from panelcollapse.randgen import GeneratorConfig, cyclic_wallspace, random_wallspace
from panelcollapse.symmetry import (
    GroupAction,
    _close,
    complexity,
    push_action,
)

import oracle
from conftest import (
    DATA,
    NONABELIAN_WS,
    SEVEN_CUBE_SIDES,
    assert_same_tables,
    data_wallspace,
    mixed_wallspaces,
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
    assert dualize_details(SQUARE_WS).complex.cube_counts == (4, 4, 1)


def test_two_nested_walls_give_path():
    cx = dualize_details(NESTED_WS).complex
    assert cx.cube_counts == (3, 2)


def test_pairwise_crossing_walls_give_hypercubes():
    for n in (2, 3, 4):
        cx = dualize_details(crossing_wallspace(n)).complex
        assert cx.cube_counts[0] == 2 ** n
        assert cx.dimension == n


def test_empty_wall_list_gives_point():
    assert dualize_details(Wallspace.from_data(["x", "y"], [])).complex.cube_counts == (1,)


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


def _sign_mask(name):
    """The orientation mask that a dual vertex name spells: bit i for a
    ``+`` in place i after the ``o``."""
    return sum(1 << i for i, c in enumerate(name[1:]) if c == "+")


def _image_name(name, perm, swaps):
    """The name of the image orientation under a wall permutation: the sign
    of wall i moves to place ``perm[i]``, flipped when ``swaps[i]``."""
    signs = [None] * len(perm)
    for i, c in enumerate(name[1:]):
        signs[perm[i]] = "+-"[(c == "+") ^ swaps[i] ^ 1]
    return "o" + "".join(signs)


def test_the_dual_is_built_as_from_its_named_orientations():
    # the dual is built from index pairs; the public constructor, given the
    # brute-force orientation names and edges, must build the same tables,
    # and the masks, principal orientations, wall map and pushed symmetries
    # must match their definitions on the names
    spaces = [
        (Wallspace.from_data(points, walls), syms)
        for points, walls, syms in (
            parse_wallspace(path.read_text()) for path in sorted(DATA.glob("*.ws"))
        )
    ]
    spaces += [
        (ws, [rotate] if rotate else [])
        for ws, rotate in mixed_wallspaces(seed=3, per_class=4)
    ]
    pushed = 0
    for ws, syms in spaces:
        info = dualize_details(ws)
        cx = info.complex
        names, edges = oracle.dual_orientations(ws.walls)
        named = CubeComplex(sorted(names, reverse=True), [tuple(e) for e in edges])
        assert_same_tables(cx, named)
        assert info.orientations == {v: _sign_mask(v) for v in cx.vertices}
        for p in ws.points:
            side = "".join("-" if p in a else "+" for a, _ in ws.walls)
            assert info.principal[p] == "o" + side
        for h, wall_edges in enumerate(cx._wall_edges):
            (flip,) = {
                _sign_mask(cx.vertices[a]) ^ _sign_mask(cx.vertices[b])
                for a, b in wall_edges
            }
            assert info.wall_of_hyperplane[h] == flip.bit_length() - 1
        for sym in syms:
            perm, swaps = ws.wall_permutation(sym)
            expected = tuple(
                cx.index(_image_name(v, perm, swaps)) for v in cx.vertices
            )
            assert symmetry_automorphism(info, sym).perm == expected
            pushed += 1
    assert len(spaces) >= 40 and pushed >= 25, (len(spaces), pushed)


def test_wall_permutation_matches_the_side_sets():
    # a point map sends wall i onto wall perm[i], sides swapped when
    # swaps[i], exactly when the image point sets are that wall's sides
    for ws, rotate in mixed_wallspaces(seed=5, per_class=2):
        maps = [rotate] if rotate else []
        maps.append(dict(zip(ws.points, reversed(ws.points))))
        # not injective: p1 folds onto p0
        maps.append({ws.points[1]: ws.points[0]})
        for mapping in maps:
            images = [
                tuple(frozenset(mapping.get(p, p) for p in side) for side in wall)
                for wall in ws.walls
            ]
            if all(image in ws.walls or image[::-1] in ws.walls for image in images):
                perm, swaps = ws.wall_permutation(mapping)
                for (ia, ib), t, s in zip(images, perm, swaps):
                    assert ws.walls[t] == ((ib, ia) if s else (ia, ib))
            else:
                with pytest.raises(StructuralError, match="does not preserve wall"):
                    ws.wall_permutation(mapping)
    # the image of one side is a wall's side, but not that of the other
    for fold in ({"c": "a", "d": "b"}, {"a": "c", "b": "c", "c": "a", "d": "b"}):
        with pytest.raises(StructuralError, match=r"wall \['a', 'b'\]"):
            SQUARE_WS.wall_permutation(fold)


def test_a_symmetry_naming_an_unknown_point_is_refused():
    # a key that is not a point used to be ignored, giving the identity
    for mapping, name in (({"zz": "a"}, "zz"), ({"a": "z"}, "z")):
        with pytest.raises(StructuralError, match=rf"unknown points \['{name}'\]$"):
            SQUARE_WS.wall_permutation(mapping)
        with pytest.raises(StructuralError, match=rf"unknown points \['{name}'\]$"):
            stallings_pipeline(SQUARE_WS, [mapping])


def _check_stabiliser_reports(ws, syms):
    """Check the pipeline's stabiliser reports against their definition: an
    element stabilises a wall when ``wall_image`` fixes it, and a tree edge
    when it maps the edge's ends onto themselves, and then it maps the
    edge's origin walls onto themselves.  Returns the result."""
    res = stallings_pipeline(ws, syms)
    cx = res.dual_info.complex
    action = GroupAction(cx, [symmetry_automorphism(res.dual_info, m) for m in syms])
    group = _close(cx, action.generators)
    assert res.wall_stabiliser_sizes == tuple(
        sum(action.wall_image(g, h) == h for g in group)
        for h in range(len(cx.hyperplanes()))
    )
    if res.subdivided:
        cx, action = push_action(cx, action)
        group = _close(cx, action.generators)
    assert res.group_order == len(group)
    assert list(res.edge_stabiliser_sizes) == list(res.tree.edges)
    for (u, v), size in res.edge_stabiliser_sizes.items():
        fixing = [g for g in group if {g(u), g(v)} == {u, v}]
        assert size == len(fixing)
        origins = res.trace.edge_origins[(u, v)]
        for g in fixing:
            assert {action.wall_image(g, h) for h in origins} == origins
    return res


def test_stabiliser_reports_match_their_definition():
    # the reports are the group order over orbit sizes under the generators
    rng = random.Random(23)
    cfg = GeneratorConfig(max_points=7, max_walls=3)
    checked = subdivided = 0
    while checked < 60:
        ws, rotate = cyclic_wallspace(rng, cfg)
        if ws.wall_count > 3:
            continue
        subdivided += _check_stabiliser_reports(ws, [rotate]).subdivided
        checked += 1
    assert subdivided >= 10, subdivided
    # non-abelian: S3 on the 3-cube keeps its walls' sides, B3 subdivides
    reports = [_check_stabiliser_reports(*data_wallspace(n)) for n in NONABELIAN_WS]
    assert [(r.group_order, r.subdivided) for r in reports] == [(6, False), (48, True)]


def test_stabiliser_reports_match_on_mixed_wallspaces():
    for ws, rotate in mixed_wallspaces(59, 6):
        _check_stabiliser_reports(ws, [rotate] if rotate else [])


def test_principal_distance_equals_wall_separation():
    for ws in (SQUARE_WS, NESTED_WS, crossing_wallspace(3)):
        info = dualize_details(ws)
        for p, q in itertools.combinations(ws.points, 2):
            d = info.complex.distance(info.principal[p], info.principal[q])
            assert d == sum((p in a) != (q in a) for a, _ in ws.walls)


def test_symmetry_pushes_to_automorphism():
    info = dualize_details(SQUARE_WS)
    sym = {"a": "a", "d": "d", "b": "c", "c": "b"}
    g = symmetry_automorphism(info, sym)
    assert g.preserves_edges() is None
    assert g.perm != tuple(range(info.complex.n))


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
    g = res.action.generators[0]
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


def _corrupt_the_lift(monkeypatch, corrupt):
    """Make the run's one step hand ``_trace`` the output walls' crossing
    masks that ``corrupt(result)`` returns instead of the step's own; with
    one step, those masks are the original walls under each tree edge."""
    iter_steps = symmetry.iter_steps

    def corrupted_steps(cx, action):
        (step,) = iter_steps(cx, action)
        result = dataclasses.replace(step.result)
        vars(result)["wall_crossings"] = corrupt(step.result)
        yield dataclasses.replace(step, result=result)

    monkeypatch.setattr(symmetry, "iter_steps", corrupted_steps)


def test_stallings_rejects_origins_moved_by_a_stabiliser(monkeypatch):
    # the diagonal crosses all three walls and the whole group fixes it
    def moved(result):
        crossings = list(result.wall_crossings)
        crossings[crossings.index(0b111)] = 0b001
        return tuple(crossings)

    origins = stallings_pipeline(TRIPLE_WS, [rotation(6, 2)]).trace.edge_origins
    diagonal = next(e for e, hs in origins.items() if len(hs) == 3)
    _corrupt_the_lift(monkeypatch, moved)
    with pytest.raises(InternalInvariantError) as excinfo:
        stallings_pipeline(TRIPLE_WS, [rotation(6, 2)])
    assert str(excinfo.value) == (
        f"a generator maps edge {diagonal} but not its origin walls [0] "
        "onto its image's"
    )


def test_stallings_rejects_origins_a_generator_does_not_carry(monkeypatch):
    # only the identity fixes this edge, so no element stabilising it can
    # see its origins moved; the generator carrying it to another edge does
    sizes = stallings_pipeline(TRIPLE_WS, [rotation(6, 2)]).edge_stabiliser_sizes
    edge = next(e for e, k in sizes.items() if k == 1)

    def shifted(result):
        crossings = list(result.wall_crossings)
        w = result.output_complex.dual_hyperplane(*edge)
        crossings[w] = 1 << crossings[w].bit_length() % 3
        return tuple(crossings)

    _corrupt_the_lift(monkeypatch, shifted)
    with pytest.raises(InternalInvariantError, match="but not its origin walls"):
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


def test_walls_on_points_of_mixed_types_are_canonical():
    # the points sort by repr, 'a' first; each wall is ordered on the
    # points' indices, so no int is compared with a str
    ws = Wallspace.from_data([1, "a", 2], [({1}, {"a", 2}), ({"a"}, {1, 2})])
    assert ws.points == ("a", 1, 2)
    assert ws.walls == (
        (frozenset({"a"}), frozenset({1, 2})),
        (frozenset({"a", 2}), frozenset({1})),
    )
    assert dualize_details(ws).complex.n == 3
