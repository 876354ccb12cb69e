"""Crossing pairs, extremality, panel construction, no-facing-panels."""

import itertools
import random
from collections import Counter

import pytest

from panelcollapse.collapse import INTERNAL, classify, fundament
from panelcollapse.errors import PreconditionError
from panelcollapse.panels import (
    SIDES,
    _panel,
    block,
    build_panel,
    codim2_hyperplanes,
    extremal_panels,
    find_extremal_panel,
    is_extremal,
    no_facing_panels,
)
from panelcollapse.randgen import GeneratorConfig, random_complex_with_action
from panelcollapse.symmetry import (
    Automorphism, GroupAction, equivariant_collapse_step, iter_steps,
)

import oracle
from conftest import box_complex, coordinate_swap


# every public entry point taking a wall id, called with ``h`` in one slot
WALL_ID_CALLS = {
    "carrier": lambda cx, h: cx.carrier(h),
    "build_panel abutting": lambda cx, h: build_panel(cx, h, 0, "+"),
    "build_panel extremalising": lambda cx, h: build_panel(cx, 0, h, "+"),
    "is_extremal abutting": lambda cx, h: is_extremal(cx, h, 0, "-"),
    "is_extremal extremalising": lambda cx, h: is_extremal(cx, 0, h, "-"),
    "block first": lambda cx, h: block(cx, h, 0),
    "block second": lambda cx, h: block(cx, 0, h),
    "wall_image": lambda cx, h: GroupAction(cx, []).wall_image(Automorphism(cx, {}), h),
    "side_image": lambda cx, h: GroupAction(cx, []).side_image(
        Automorphism(cx, {}), h, "+"
    ),
}


@pytest.mark.parametrize("name", WALL_ID_CALLS)
def test_wall_ids_outside_the_walls_raise_index_error(cube3, name):
    # the 3-cube has walls 0, 1 and 2; ``CubeComplex.sign`` has its own test
    for h in (-1, 3):
        with pytest.raises(IndexError, match=f"^no wall {h}$"):
            WALL_ID_CALLS[name](cube3, h)


# every public entry point taking a side, called with ``side``
SIDE_CALLS = {
    "Hyperplane.side": lambda cx, side: cx.hyperplanes()[0].side(side),
    "build_panel": lambda cx, side: build_panel(cx, 0, 1, side),
    "is_extremal": lambda cx, side: is_extremal(cx, 0, 1, side),
    "side_image": lambda cx, side: GroupAction(cx, []).side_image(
        Automorphism(cx, {}), 0, side
    ),
}


@pytest.mark.parametrize("name", SIDE_CALLS)
def test_a_side_other_than_minus_or_plus_is_refused(cube3, name):
    for side in ("x", "", "+-", None, 1):
        message = f"side must be one of {SIDES}, got {side!r}"
        with pytest.raises(PreconditionError) as info:
            SIDE_CALLS[name](cube3, side)
        assert str(info.value) == message
    for side in SIDES:
        SIDE_CALLS[name](cube3, side)


def test_crossing_pairs(cube3, tree4, domino):
    assert codim2_hyperplanes(cube3) == ((0, 1), (0, 2), (1, 2))
    assert codim2_hyperplanes(tree4) == ()
    assert len(codim2_hyperplanes(domino)) == 2


def test_every_pair_extremal_inside_one_cube(cube3):
    for a, b in codim2_hyperplanes(cube3):
        for h, e in ((a, b), (b, a)):
            for side in ("-", "+"):
                assert is_extremal(cube3, h, e, side)


def test_extremality_in_strip(strip3):
    # the long wall is crossed by three transverse walls; only the two end
    # ones are extremal, and only toward the outside
    long_wall = next(h.id for h in strip3.hyperplanes() if len(h.edges) == 4)
    transverse = sorted(h.id for h in strip3.hyperplanes() if h.id != long_wall)
    first, middle, last = transverse
    assert not is_extremal(strip3, long_wall, middle, "-")
    assert not is_extremal(strip3, long_wall, middle, "+")
    ends = {
        (e, side)
        for e in (first, last)
        for side in ("-", "+")
        if is_extremal(strip3, long_wall, e, side)
    }
    # one admissible side per end wall
    assert len(ends) == 2
    assert {e for e, _ in ends} == {first, last}
    # transverse walls are extremal in both directions: their wall complexes
    # are single edges
    for t in transverse:
        assert is_extremal(strip3, t, long_wall, "-")
        assert is_extremal(strip3, t, long_wall, "+")


def test_square_pair_extremal(square):
    assert is_extremal(square, 0, 1, "+")
    assert is_extremal(square, 1, 0, "-")


def test_non_crossing_pair_rejected(tree4, domino):
    with pytest.raises(PreconditionError):
        is_extremal(tree4, 0, 1, "+")
    # the two short walls of the domino do not cross each other
    short = sorted(h.id for h in domino.hyperplanes() if len(h.edges) == 2)
    with pytest.raises(PreconditionError):
        is_extremal(domino, short[0], short[1], "+")


def test_bad_side_rejected(square):
    with pytest.raises(PreconditionError):
        is_extremal(square, 0, 1, "north")


def test_panel_of_cube_is_a_face(cube3):
    p = find_extremal_panel(cube3)
    assert p is not None
    assert len(p.internal_edges) == 2
    assert max(len(c) for c in p.cube_set) == 4
    assert len(p.vertex_set) == 4


def test_find_extremal_panel_none_on_trees(tree4):
    assert find_extremal_panel(tree4) is None


def test_square_has_four_edge_panels(square):
    panels = extremal_panels(square)
    assert [p.triple for p in panels] == [
        (0, 1, "-"),
        (0, 1, "+"),
        (1, 0, "-"),
        (1, 0, "+"),
    ]
    for p in panels:
        assert len(p.internal_edges) == 1
        assert len(p.vertex_set) == 2
    assert find_extremal_panel(square).triple == (0, 1, "-")


def test_panel_not_built_when_not_extremal(strip3):
    long_wall = next(h.id for h in strip3.hyperplanes() if len(h.edges) == 4)
    transverse = sorted(h.id for h in strip3.hyperplanes() if h.id != long_wall)
    with pytest.raises(PreconditionError):
        build_panel(strip3, long_wall, transverse[1], "+")


def test_block_carrier(cube3, square):
    b = block(cube3, 0, 1)
    assert frozenset(cube3.vertices) in b.maximal_cubes
    assert len(b.maximal_cubes) == 1
    bsq = block(square, 0, 1)
    assert bsq.maximal_cubes == frozenset({frozenset(square.vertices)})


def test_no_facing_panels_cases(square):
    p_plus = build_panel(square, 0, 1, "+")
    p_minus = build_panel(square, 0, 1, "-")
    q_plus = build_panel(square, 1, 0, "+")
    assert no_facing_panels(square, [p_plus])
    # two adjacent edge panels touch at a corner
    assert no_facing_panels(square, [p_plus, q_plus])
    # opposite edge panels are disjoint and share the square
    assert not no_facing_panels(square, [p_plus, p_minus])


def test_panel_vertex_sets_convex(cube3, strip3):
    for cx in (cube3, strip3):
        for p in extremal_panels(cx):
            hull = cx.convex_hull(p.vertex_set)
            assert hull == p.vertex_set


def test_extremal_panel_maximal_cubes_unique_containment(cube3, strip3, domino):
    # each maximal cube of an extremal panel sits in exactly one maximal cube
    for cx in (cube3, strip3, domino):
        maximal = cx.maximal_cubes()
        for p in extremal_panels(cx):
            panel_maximal = [
                c for c in p.cube_set if not any(c < d for d in p.cube_set)
            ]
            for c in panel_maximal:
                containers = [m for m in maximal if c <= m]
                assert len(containers) == 1


def _automorphisms_of_square(square):
    mapping_rot = {"00": "01", "01": "11", "11": "10", "10": "00"}
    mapping_diag = {"00": "00", "11": "11", "01": "10", "10": "01"}
    return GroupAction(square, [mapping_rot, mapping_diag])


def test_extremality_is_automorphism_invariant(square):
    action = _automorphisms_of_square(square)
    assert action.order == 8
    # invariance under the generators implies it under the group
    for g in action.generators:
        for h, e in ((0, 1), (1, 0)):
            for side in ("-", "+"):
                gh, _ = action.side_image(g, h, "+")
                ge, gside = action.side_image(g, e, side)
                assert is_extremal(square, h, e, side) == is_extremal(
                    square, gh, ge, gside
                )


def test_orbit_of_extremal_panel_has_no_facing_panels(square, cube3):
    # inversion-free subgroups only
    diag = {"00": "00", "11": "11", "01": "10", "10": "01"}
    action = GroupAction(square, [diag])
    assert action.is_inversion_free
    for p in extremal_panels(square):
        orbit = action.panel_orbit(p)
        assert no_facing_panels(square, orbit)

    rot = {v: v[1] + v[2] + v[0] for v in cube3.vertices}
    action3 = GroupAction(cube3, [rot])
    assert action3.is_inversion_free
    for p in extremal_panels(cube3)[:4]:
        orbit = action3.panel_orbit(p)
        assert no_facing_panels(cube3, orbit)


def test_panel_identity_is_the_triple(cube3):
    # the same face arises as a panel for two different abutting walls
    p1 = build_panel(cube3, 0, 2, "+")
    p2 = build_panel(cube3, 1, 2, "+")
    assert p1.vertex_set == p2.vertex_set
    assert p1 != p2
    assert p1.internal_edges != p2.internal_edges


def _panel_edges_by_both_ends(cx, h, e, side):
    """H's edges on the side of E when both ends of each have their copy
    across E, else None: extremality as defined, without the square lemma."""
    masks, vertex_of, flip = cx._masks, cx._vertex_of, 1 << e
    edges = tuple(
        (a, b) for a, b in cx._wall_edges[h] if masks[a] >> e & 1 == SIDES.index(side)
    )
    if all(masks[a] ^ flip in vertex_of and masks[b] ^ flip in vertex_of for a, b in edges):
        return edges
    return None


def test_panel_looks_up_one_end_as_the_two_ended_definition(
    cube3, cube4, square, domino, strip3, tree4
):
    # ``_panel`` looks up one end's copy across E per H-edge; with H and E
    # crossing, the other end's copy is then a vertex too.  Every crossing
    # pair, both orders and both sides, on every complex met while running
    # the fixtures and seeded random complexes down to trees
    instances = [
        (cx, GroupAction(cx, [])) for cx in (cube3, cube4, square, domino, strip3, tree4)
    ]
    rng = random.Random(53)
    cfg = GeneratorConfig(max_points=7, max_walls=5, max_vertices=60)
    instances += [random_complex_with_action(rng, cfg) for _ in range(80)]
    tally = Counter()
    for cx, action in instances:
        complexes = [cx] + [
            step.result.output_complex for step in iter_steps(cx, action)
        ]
        for cx in complexes:
            for a, b in codim2_hyperplanes(cx):
                for h, e in ((a, b), (b, a)):
                    for s in SIDES:
                        p = _panel(cx, h, e, SIDES.index(s))
                        expected = _panel_edges_by_both_ends(cx, h, e, s)
                        assert (p._edges if p else None) == expected, (cx, h, e, s)
                        tally[p is not None] += 1
    assert tally[True] >= 500 and tally[False] >= 500, tally


def test_panel_kernel_matches_reference(cube3, cube4, square, domino, strip3, tree4):
    """Extremality, panels, blocks, cube status, persistent subcubes and
    panel orbits against the graph-level reference, on every complex met
    while running the fixtures and 150 random complexes down to trees."""
    box = box_complex(2, 2, 1)
    instances = [
        (cx, GroupAction(cx, []))
        for cx in (cube3, cube4, square, domino, strip3, tree4, box)
    ]
    instances += [
        (cube3, GroupAction(cube3, [coordinate_swap(cube3, 0, 1), coordinate_swap(cube3, 1, 2)])),
        (cube4, GroupAction(cube4, [coordinate_swap(cube4, 0, 3)])),
        (box, GroupAction(box, [coordinate_swap(box, 0, 1)])),
    ]
    rng = random.Random(4)
    cfg = GeneratorConfig(max_points=7, max_walls=5, max_vertices=60)
    instances += [random_complex_with_action(rng, cfg) for _ in range(150)]

    def names(cx, vs):
        return frozenset(cx.vertices[i] for i in vs)

    tally = Counter()
    for cx, action in instances:
        while True:
            ref = oracle.PanelReference(cx)
            pairs = codim2_hyperplanes(cx)
            assert list(pairs) == ref.crossing_pairs()
            judged = []
            for a, b in pairs:
                for h, e in ((a, b), (b, a)):
                    for s in SIDES:
                        verdict = is_extremal(cx, h, e, s)
                        assert verdict == ref.is_extremal(h, e, s), (cx, h, e, s)
                        tally[verdict] += 1
                        if not verdict:
                            continue
                        judged.append((h, e, s))
                        p = build_panel(cx, h, e, s)
                        cubes, internal, vertices = ref.panel(h, e, s)
                        assert p.cube_set == {names(cx, c) for c in cubes}
                        assert {frozenset(edge) for edge in p.internal_edges} == {
                            names(cx, edge) for edge in internal
                        }
                        assert p.vertex_set == names(cx, vertices)
                        assert p.block.maximal_cubes == {
                            names(cx, c) for c in ref.block_maximal_cubes(h, e)
                        }
            judged.sort(key=lambda t: (t[0], t[1], SIDES.index(t[2])))
            assert [p.triple for p in extremal_panels(cx)] == judged
            first = find_extremal_panel(cx)
            assert (first.triple if first else None) == (judged[0] if judged else None)
            step = equivariant_collapse_step(cx, action)
            if step is None:
                break
            family = action.panel_orbit(build_panel(cx, *step.panel_triple))
            assert family == step.result.panels
            triples = [p.triple for p in family]
            assert triples == ref.orbit(action, step.panel_triple)
            tally["orbit > 1"] += len(family) > 1
            cls = classify(cx, family)
            for c in ref.cubes:
                status = cls.status(names(cx, c))
                assert status == ref.status(c, triples), (cx, sorted(c), triples)
                tally[status] += 1
                if status == INTERNAL:
                    continue
                f = fundament(cls, names(cx, c))
                kept, salient, separators, partner = ref.persistent(c, triples)
                assert f.persistent == names(cx, kept)
                assert f.salient == names(cx, salient)
                assert f.separators == separators
                # the partner of v is the vertex of the salient subcube
                # across the separators
                for v, w in partner.items():
                    v, w = cx.vertices[v], cx.vertices[w]
                    assert w in f.salient
                    assert cx.crossing_set(v, w) == f.separators
            cx, action = step.result.output_complex, step.action
    assert tally[True] >= 200 and tally[False] >= 200, tally
    assert min(tally["internal"], tally["external"], tally["completely-external"]) >= 100, tally
    assert tally["orbit > 1"] >= 20, tally


def _facing_free_by_definition(panels):
    """No two vertex-disjoint panels whose blocks share a maximal cube, read
    off the vertex-set and block views."""
    return not any(
        not p.vertex_set & q.vertex_set
        and p.block.maximal_cubes & q.block.maximal_cubes
        for p, q in itertools.combinations(panels, 2)
    )


def test_no_facing_panels_matches_the_definition(cube3, cube4, square, domino, strip3, tree4):
    tally = Counter()

    def check(cx, family):
        verdict = no_facing_panels(cx, family)
        assert verdict == _facing_free_by_definition(family), (cx, family)
        tally[verdict] += 1

    for cx in (cube3, cube4, square, domino, strip3, tree4, box_complex(2, 2, 1)):
        every = extremal_panels(cx)
        for k in (2, 3):
            for family in itertools.combinations(every, k):
                check(cx, family)
    rng = random.Random(47)
    cfg = GeneratorConfig(max_points=7, max_walls=5, max_vertices=60)
    for _ in range(60):
        cx, action = random_complex_with_action(rng, cfg)
        while True:
            every = extremal_panels(cx)
            for family in itertools.combinations(every, 2):
                check(cx, family)
            step = equivariant_collapse_step(cx, action)
            if step is None:
                break
            check(cx, step.result.panels)
            cx, action = step.result.output_complex, step.action
    assert tally[True] >= 1000 and tally[False] >= 1000, tally


def _complexes_met(fixtures):
    """The fixtures and every complex met while running the descent
    instances down to trees."""
    from test_collapse import _descent_instances

    complexes = list(fixtures)
    for cx, action in _descent_instances():
        complexes += [cx] + [s.result.output_complex for s in iter_steps(cx, action)]
    return complexes


def test_panels_order_by_abutting_extremalising_and_side(
    cube3, cube4, square, domino, strip3, tree4
):
    # the side is kept as a bit, so the field order is the canonical order,
    # minus before plus, though '+' sorts before '-' as a string
    rng = random.Random(59)
    both_sides = 0
    for cx in _complexes_met((cube3, cube4, square, domino, strip3, tree4)):
        every = extremal_panels(cx)
        expected = sorted(every, key=lambda p: (*p.triple[:2], SIDES.index(p.side)))
        shuffled = list(every)
        rng.shuffle(shuffled)
        assert list(every) == expected
        assert sorted(shuffled) == sorted(reversed(every)) == expected
        both_sides += len(every) - len({p.triple[:2] for p in every})
    assert both_sides >= 100, both_sides


def test_panel_identity_matches_a_reference_keyed_by_the_triple(
    cube3, cube4, square, domino, strip3, tree4
):
    # a panel's side read off its internal edges, which lie on it
    checked = 0
    for cx in _complexes_met((cube3, cube4, square, domino, strip3, tree4)):
        every = extremal_panels(cx)
        for p in every:
            h, e = p.abutting, p.extremalising
            side = SIDES[cx._masks[p._edges[0][0]] >> e & 1]
            assert p.side == side and p.triple == (h, e, side)
            assert repr(p) == f"Panel(h{h}, e{e}, {side})"
            assert p == build_panel(cx, h, e, side)
            assert hash(p) == hash(build_panel(cx, h, e, side))
        for p, q in itertools.combinations(every, 2):
            assert p != q and p.triple != q.triple
        assert len(set(every)) == len(every)
        checked += len(every)
    assert checked >= 500, checked


def test_a_bad_side_on_a_non_crossing_pair_is_refused_as_a_bad_side(tree4):
    # the wall ids are checked first, then the side, then the crossing
    message = f"side must be one of {SIDES}, got 'x'"
    for call in (build_panel, is_extremal):
        with pytest.raises(PreconditionError) as info:
            call(tree4, 0, 1, "x")
        assert str(info.value) == message
        with pytest.raises(IndexError, match="^no wall 3$"):
            call(tree4, 3, 1, "x")
        with pytest.raises(PreconditionError, match="^hyperplanes 0 and 1 do not cross$"):
            call(tree4, 0, 1, "+")
    with pytest.raises(PreconditionError, match="^hyperplanes 0 and 1 do not cross$"):
        block(tree4, 0, 1)
