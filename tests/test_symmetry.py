"""Actions, inversions, subdivision, complexity, and the collapse driver."""

import gc
import importlib
import random
import weakref
from collections import Counter

import pytest

from panelcollapse import panels, symmetry
from panelcollapse.cli import main
from panelcollapse.complex import CubeComplex, _bits
from panelcollapse.collapse import CollapseResult, classify, fundament
from panelcollapse.errors import InternalInvariantError, PreconditionError, StructuralError
from panelcollapse.fileio import format_vertex, parse_complex
from panelcollapse.panels import extremal_panels, find_extremal_panel
from panelcollapse.pocset import Wallspace, dualize_details, symmetry_automorphism
from panelcollapse.randgen import (
    GeneratorConfig,
    cyclic_wallspace,
    random_complex_with_action,
)
from panelcollapse.symmetry import (
    Automorphism,
    ComplexityVector,
    GroupAction,
    StepRecord,
    StepResult,
    complexity,
    equivariant_collapse_step,
    iter_steps,
    push_action,
    run_to_tree,
)

from conftest import (
    DATA,
    NONABELIAN_WS,
    SEVEN_CUBE_SIDES,
    assert_same_tables,
    box_complex,
    coordinate_swap,
    data_wallspace,
    grid_complex,
    hypercube_complex,
    mixed_wallspaces,
    path_complex,
    rotation,
    six_point_walls,
)
from test_collapse import _descent_instances


# the package re-exports the function ``collapse`` under the module's name
collapse_module = importlib.import_module("panelcollapse.collapse")


def cube3_rotation(cube3):
    return {v: v[1] + v[2] + v[0] for v in cube3.vertices}


def square_diagonal(square):
    return {"00": "00", "11": "11", "01": "10", "10": "01"}


# -- actions -------------------------------------------------------------------


def test_identity_action_report(cube3):
    action = GroupAction(cube3, [])
    assert action.order == 1 and action.is_inversion_free


def test_edge_reflection_is_inversion():
    edge = CubeComplex(["a", "b"], [("a", "b")])
    action = GroupAction(edge, [{"a": "b", "b": "a"}])
    assert action.order == 2
    assert action.inversions() == (0,)
    with pytest.raises(
        PreconditionError, match=r"^action inverts hyperplane 0; subdivide first$"
    ):
        equivariant_collapse_step(edge, action)


def test_square_rotation_inversions(square):
    rot = {"00": "01", "01": "11", "11": "10", "10": "00"}
    action = GroupAction(square, [rot])
    assert action.order == 4
    # the rotation itself swaps the two walls; its square preserves each wall
    # while swapping its halfspaces
    assert action.inversions() == (0, 1)


def test_non_edge_preserving_rejected(square):
    # swapping one edge's endpoints while fixing the rest breaks an edge: it
    # sends the edge 00 10 onto the square's diagonal 01 10
    with pytest.raises(StructuralError, match="^permutation breaks edge '00' '10'$"):
        GroupAction(square, [{"00": "01", "01": "00"}])
    with pytest.raises(StructuralError):
        GroupAction(square, [{"00": "01", "01": "01"}])
    # on the path 0-1-2-3, swapping 1 and 3 sends the edge 0 1 onto the pair
    # 0 3, at distance 3
    with pytest.raises(StructuralError, match="^permutation breaks edge 0 1$"):
        GroupAction(path_complex(3), [{1: 3, 3: 1}])


def test_an_automorphism_of_another_complex_is_refused(square):
    # the swap 0<->2 of the star K1,3 preserves the star's edges, but read
    # on the square it sends the edge 00 01 onto 10 01
    star = CubeComplex([0, 1, 2, 3], [(0, 1), (1, 2), (1, 3)])
    swap = Automorphism(star, {0: 2, 2: 0})
    # the reversal of an 8-vertex path is longer than the square's vertices
    reverse = Automorphism(path_complex(7), {i: 7 - i for i in range(8)})
    own = Automorphism(square, square_diagonal(square))
    action = GroupAction(square, [own])
    for g in (swap, reverse):
        with pytest.raises(PreconditionError, match="another complex"):
            GroupAction(square, [g])
        with pytest.raises(PreconditionError, match="another complex"):
            action.side_image(g, 0, "+")
        with pytest.raises(PreconditionError, match="another complex"):
            action.wall_image(g, 0)
        with pytest.raises(PreconditionError, match="different complexes"):
            own * g
        with pytest.raises(PreconditionError, match="does not act on this complex"):
            push_action(square, GroupAction(g.complex, [g]))
    # one complex built twice is the same complex
    twin = Automorphism(hypercube_complex(2), square_diagonal(square))
    assert GroupAction(square, [twin]).order == 2
    assert (own * twin).perm == tuple(range(square.n))


def test_full_cube_symmetry_group(cube3):
    rot = cube3_rotation(cube3)
    swap = {v: v[1] + v[0] + v[2] for v in cube3.vertices}
    flip = {v: ("1" if v[0] == "0" else "0") + v[1:] for v in cube3.vertices}
    action = GroupAction(cube3, [rot, swap, flip])
    assert action.order == 48
    # one orbit of walls
    group = symmetry._close(cube3, action.generators)
    assert {action.wall_image(g, 0) for g in group} == {0, 1, 2}


def test_automorphism_algebra(cube3):
    g = Automorphism(cube3, cube3_rotation(cube3))
    identity = tuple(range(cube3.n))
    assert (g * g * g).perm == identity
    assert (g * g).perm != identity
    assert g.apply_set(frozenset({"000", "001"})) == frozenset({"000", "010"})


# -- subdivision ----------------------------------------------------------------


def test_subdivide_edge():
    edge = CubeComplex(["a", "b"], [("a", "b")])
    sub, pushed = push_action(edge, GroupAction(edge, [{"a": "b", "b": "a"}]))
    assert sub.cube_counts == (3, 2)
    assert pushed.generators[0]("a|b") == "a|b"


def test_subdivide_square(square):
    sub, _ = push_action(square, GroupAction(square, []))
    assert sub.cube_counts == (9, 12, 4)


def test_subdivision_removes_inversions():
    edge = CubeComplex(["a", "b"], [("a", "b")])
    action = GroupAction(edge, [{"a": "b", "b": "a"}])
    assert not action.is_inversion_free
    sub, pushed = push_action(edge, action)
    assert pushed.order == 2 and pushed.is_inversion_free
    involution = pushed.generators[0]
    fixed = frozenset(v for v in pushed.complex.vertices if involution(v) == v)
    assert fixed == frozenset({"a|b"})


def test_subdivide_cube_counts(cube3):
    sub, _ = push_action(cube3, GroupAction(cube3, []))
    assert sub.cube_counts[0] == sum(cube3.cube_counts)
    assert sub.validation_report.passed
    # subdivision of a d-cube has 3^d vertices and dimension d
    assert sub.cube_counts[0] == 27 and sub.dimension == 3


def _named_subdivision(cx):
    """The first subdivision built by the public constructor from named
    cubes: each cube named by its corners in index order joined by ``|``,
    and joined to its codimension-1 faces.  Returns it and the namer."""

    def name(vs):
        return "|".join(format_vertex(v) for v in sorted(vs, key=cx.index))

    names, edges = [], []
    for d in range(cx.dimension + 1):
        for vs in cx.cube_vertexsets(d):
            names.append(name(vs))
            if d:
                edges += [(name(f), name(vs)) for f in cx.subcubes(vs, d - 1)]
    return CubeComplex(names, edges), name


def test_the_subdivision_is_built_as_from_its_named_cubes(square, cube3):
    # push_action builds from index pairs and pushes generators as cube
    # index permutations; the public build from named cubes must have the
    # same tables, and each pushed generator must map each cube's name to
    # its image's
    instances = [
        (square, GroupAction(square, [coordinate_swap(square, 0, 1)])),
        (cube3, GroupAction(cube3, [coordinate_swap(cube3, 0, 1)])),
    ]
    for ws, rotate in mixed_wallspaces(seed=7, per_class=3):
        if rotate:
            info = dualize_details(ws)
            g = symmetry_automorphism(info, rotate)
            instances.append((info.complex, GroupAction(info.complex, [g])))
    inverting = 0
    for cx, action in instances:
        named, name = _named_subdivision(cx)
        sub, pushed = push_action(cx, action)
        assert_same_tables(sub, named)
        assert pushed.is_inversion_free
        for g, h in zip(action.generators, pushed.generators, strict=True):
            mapping = {
                name(vs): name(g.apply_set(vs))
                for d in range(cx.dimension + 1)
                for vs in cx.cube_vertexsets(d)
            }
            assert h == Automorphism(sub, mapping)
        inverting += not action.is_inversion_free
    assert len(instances) == 20 and inverting >= 9, (len(instances), inverting)


def test_pushforward_refuses_a_mapping_that_breaks_edges():
    # on the square a-b-d-c, swapping a and b alone is a bijection that
    # breaks edges; pushed forward it would send both a|c and b|d to a|b|c|d,
    # so no action holding it reaches push_action
    cx = CubeComplex(list("abcd"), [("a", "b"), ("b", "d"), ("d", "c"), ("c", "a")])
    with pytest.raises(StructuralError, match="permutation breaks edge"):
        GroupAction(cx, [{"a": "b", "b": "a"}])
    swap = GroupAction(cx, [{"a": "b", "b": "a", "c": "d", "d": "c"}])
    assert push_action(cx, swap)[1].generators[0]("a|c") == "b|d"


def test_subdivision_refuses_colliding_names():
    # the path a|b - a - b - s: the edge {a, b} is also named a|b
    cx = CubeComplex(["a|b", "a", "b", "s"], [("a|b", "a"), ("a", "b"), ("b", "s")])
    message = r"subdivision names two cubes 'a\|b': '\|' .* is reserved"
    with pytest.raises(PreconditionError, match=message):
        push_action(cx, GroupAction(cx, []))
    reversal = {"a|b": "s", "s": "a|b", "a": "b", "b": "a"}
    with pytest.raises(PreconditionError, match=message):
        push_action(cx, GroupAction(cx, [reversal]))


# -- complexity -------------------------------------------------------------------


def test_complexity_examples(cube3, tree4):
    trivial = GroupAction(cube3, [])
    assert complexity(cube3, trivial).entries == (1, 6)
    assert complexity(tree4, GroupAction(tree4, [])).is_zero

    rot = cube3_rotation(cube3)
    swap = {v: v[1] + v[0] + v[2] for v in cube3.vertices}
    flip = {v: ("1" if v[0] == "0" else "0") + v[1:] for v in cube3.vertices}
    full = GroupAction(cube3, [rot, swap, flip])
    assert complexity(cube3, full).entries == (1, 1)


def test_complexity_is_kept_on_the_action_of_its_complex(cube3, square):
    action = GroupAction(cube3, [cube3_rotation(cube3)])
    vector = complexity(cube3, action)
    assert complexity(cube3, action) is vector
    # an equal complex built apart is the complex the action acts on
    assert complexity(CubeComplex(cube3.vertices, cube3.edges), action) is vector
    with pytest.raises(PreconditionError, match="does not act on this complex"):
        complexity(square, action)


def test_complexity_ordering():
    a = ComplexityVector(entries=(1, 6))
    b = ComplexityVector(entries=(3,))
    c = ComplexityVector(entries=())
    assert c < b < a
    assert ComplexityVector(entries=(0, 3)) == b


def test_complexity_order_is_the_padded_lexicographic_order():
    # vectors of different lengths compare after padding with leading zeros
    rng = random.Random(5)
    vectors = []
    for _ in range(60):
        entries = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(rng.randint(0, 4)))
        vectors.append(ComplexityVector(entries=entries))
    for a in vectors:
        assert a.is_zero == (not any(a.entries))
        for b in vectors:
            width = max(len(a.entries), len(b.entries))
            pa = (0,) * (width - len(a.entries)) + a.entries
            pb = (0,) * (width - len(b.entries)) + b.entries
            assert (a < b, a <= b, a == b, a > b) == (pa < pb, pa <= pb, pa == pb, pa > pb)
            if a == b:
                assert hash(a) == hash(b)


def test_complexity_vectors_do_not_order_against_other_types():
    v = ComplexityVector(entries=(1,))
    with pytest.raises(TypeError):
        v < 3
    with pytest.raises(TypeError):
        v >= (1,)
    assert v != (1,)


# -- the driver -------------------------------------------------------------------


def test_step_on_conflict_square(square):
    action = GroupAction(square, [square_diagonal(square)])
    step = equivariant_collapse_step(square, action)
    out = step.result.output_complex
    assert out.cube_counts == (4, 3)
    assert step.orbit_size == 2
    assert step.complexity_after.is_zero
    assert step.action.order == 2 and step.action.is_inversion_free
    # the involution still acts: output edges are permuted
    g = step.action.generators[0]
    for u, v in out.edges:
        assert out.distance(g(u), g(v)) == 1


def test_a_group_beyond_the_cap_runs_to_a_tree():
    # the 8-cube under all coordinate permutations, a group of order 40320:
    # the run reads only the generators, and only ``order`` closes the group
    cube = hypercube_complex(8)
    cycle = {v: v[1:] + v[0] for v in cube.vertices}
    action = GroupAction(cube, [coordinate_swap(cube, 0, 1), cycle])
    trace = run_to_tree(cube, action)
    assert trace.step_count == 1 and trace.steps[0].orbit_size == 56
    assert trace.final_complex.is_tree() and trace.final_complex.n == 256
    cap = f"GROUP_SIZE_CAP = {symmetry.GROUP_SIZE_CAP}"
    with pytest.raises(PreconditionError, match=cap):
        action.order


@pytest.mark.xfail(strict=True, raises=InternalInvariantError, reason=(
    "known defect: on these draws two fundaments disagree on a shared face, "
    "and the collapsed 1-skeleton of one step is not median"
))
@pytest.mark.parametrize(
    "seed, draw, step",
    [(60, 34, 1), (88, 20, 1), (102, 27, 4), (102, 30, 5), (107, 38, 8), (281, 44, 4)],
)
def test_known_fuzz_failures_run_to_a_tree(seed, draw, step):
    # draw ``draw`` (from 0) of ``PANELCOLLAPSE_SEED=seed panelcollapse fuzz``;
    # any other error, or this one at another step, fails the test outright,
    # and so does a run that reaches a tree, since the mark is strict
    rng, cfg = random.Random(seed), GeneratorConfig(max_vertices=120)
    for _ in range(draw):
        random_complex_with_action(rng, cfg)
    cx, action = random_complex_with_action(rng, cfg)
    try:
        run_to_tree(cx, action)
    except InternalInvariantError as exc:
        message = str(exc)
        assert message.startswith(f"step {step}, panel "), message
        assert "collapsed 1-skeleton failed validation" in message, message
        raise


def test_provenance_digests_repeat():
    # the digests of two long runs; any change to the panels chosen, the
    # diagonals added or the walls lifted changes them
    grid = grid_complex(12, 12)
    trace = run_to_tree(grid, GroupAction(grid, [coordinate_swap(grid, 0, 1)]))
    assert (trace.provenance_digest(), trace.step_count) == ("274ace38a0f1", 78)
    box = box_complex(4, 4, 4)
    trace = run_to_tree(box, GroupAction(box, []))
    assert (trace.provenance_digest(), trace.step_count) == ("a1743ad7e2fe", 112)


def test_step_on_cube_trivial_group(cube3):
    trivial = GroupAction(cube3, [])
    step = equivariant_collapse_step(cube3, trivial)
    assert step.result.output_complex.cube_counts == (8, 10, 3)
    assert step.complexity_before.entries == (1, 6)
    assert step.complexity_after.entries == (3,)


def test_step_none_on_tree(tree4):
    assert equivariant_collapse_step(tree4, GroupAction(tree4, [])) is None


def test_step_requires_inversion_free(square):
    rot = {"00": "01", "01": "11", "11": "10", "10": "00"}
    action = GroupAction(square, [rot])
    with pytest.raises(PreconditionError, match="subdivide"):
        equivariant_collapse_step(square, action)


def test_run_to_tree_cube(cube3):
    trace = run_to_tree(cube3, GroupAction(cube3, []))
    assert trace.step_count <= 4
    assert trace.final_complex.cube_counts == (8, 7)
    # every tree edge sits on original walls
    walls = {h.id for h in cube3.hyperplanes()}
    for e, origins in trace.edge_origins.items():
        assert origins and origins <= walls


def test_internal_errors_name_the_step_and_panel(cube3, monkeypatch):
    steps = run_to_tree(cube3, GroupAction(cube3, [])).steps
    collapse = symmetry.collapse
    calls = []

    def failing_collapse(cx, panels):
        calls.append(cx)
        if len(calls) == 2:
            raise InternalInvariantError("boom")
        return collapse(cx, panels)

    monkeypatch.setattr(symmetry, "collapse", failing_collapse)
    h, e, s = steps[1].panel_triple
    with pytest.raises(InternalInvariantError) as exc:
        run_to_tree(cube3, GroupAction(cube3, []))
    assert str(exc.value) == f"step 2, panel (h{h},h{e},{s}): boom"


def test_each_step_makes_one_facing_check(monkeypatch):
    calls = []
    check = panels.no_facing_panels

    def counted(cx, family):
        calls.append(len(family))
        return check(cx, family)

    for module in (panels, collapse_module, symmetry):
        monkeypatch.setattr(module, "no_facing_panels", counted)
    box = box_complex(3, 3, 3)
    s3 = [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)]
    trace = run_to_tree(box, GroupAction(box, s3))
    assert trace.step_count > 0 and len(calls) == trace.step_count
    assert calls == [s.orbit_size for s in trace.steps]


def test_a_facing_refusal_in_the_step_is_internal(monkeypatch, capsys):
    # the step leaves the orbit's facing check to collapse; an orbit with
    # facing panels breaks the step's own guarantee, not a precondition
    cube3 = parse_complex((DATA / "cube3.cc").read_text())
    h, e, s = find_extremal_panel(cube3).triple
    monkeypatch.setattr(collapse_module, "no_facing_panels", lambda cx, family: False)
    message = (
        f"step 1, panel (h{h},h{e},{s}): orbit of an extremal panel under an "
        "inversion-free action has facing panels"
    )
    with pytest.raises(InternalInvariantError) as exc:
        run_to_tree(cube3, GroupAction(cube3, []))
    assert str(exc.value) == message
    assert main(["run", str(DATA / "cube3.cc"), str(DATA / "trivial.act")]) == 2
    assert capsys.readouterr().err == f"internal invariant breached: {message}\n"


def test_run_to_tree_on_tree_is_empty(tree4):
    trace = run_to_tree(tree4, GroupAction(tree4, []))
    assert trace.step_count == 0
    assert trace.final_complex is tree4


def test_run_to_tree_4cube(cube4):
    trace = run_to_tree(cube4, GroupAction(cube4, []))
    assert trace.final_complex.cube_counts == (16, 15)
    assert trace.step_count <= sum(cube4.cube_counts[2:])


def test_a_run_keeps_no_intermediate_complex(cube4, monkeypatch):
    outputs = []
    collapse = symmetry.collapse

    def recorded(cx, panels):
        result = collapse(cx, panels)
        outputs.append(weakref.ref(result.output_complex))
        return result

    monkeypatch.setattr(symmetry, "collapse", recorded)
    box = box_complex(2, 2, 2)
    s3 = [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)]
    for cx, action in ((cube4, GroupAction(cube4, [])), (box, GroupAction(box, s3))):
        outputs.clear()
        trace = run_to_tree(cx, action)
        gc.collect()
        alive = [ref() for ref in outputs if ref() is not None]
        assert trace.step_count == len(outputs) > 1
        assert len(alive) == 1 and alive[0] is trace.final_complex


def test_step_records_match_the_step_results():
    instances = [(box_complex(3, 3), GroupAction(box_complex(3, 3), []))]
    instances += _random_runs(31, 20)
    for cx, action in instances:
        steps = list(iter_steps(cx, action))
        records = symmetry._trace(cx, action, steps).steps
        assert len(records) == len(steps)
        for record, step in zip(records, steps):
            assert record == StepRecord(
                panel_triple=step.panel_triple,
                orbit_size=step.orbit_size,
                complexity_before=step.complexity_before,
                complexity_after=step.complexity_after,
                cube_counts=step.result.output_complex.cube_counts,
                diagonal_count=len(step.result.diagonal_edges),
            )


def test_strict_descent_and_validity_random():
    rng = random.Random(99)
    for _ in range(6):
        cx, action = random_complex_with_action(
            rng, GeneratorConfig(max_points=7, max_walls=6, max_vertices=80)
        )
        steps = list(iter_steps(cx, action))
        trace = symmetry._trace(cx, action, steps)
        for step in steps:
            assert step.complexity_after < step.complexity_before
            assert step.result.output_complex.validation_report.passed
        assert trace.final_complex.is_tree()


def test_equivariance_of_fundaments(square, cube3):
    # images of fundaments are fundaments of images
    cases = [
        (square, GroupAction(square, [square_diagonal(square)])),
        (cube3, GroupAction(cube3, [cube3_rotation(cube3)])),
    ]
    for cx, action in cases:
        panel = extremal_panels(cx)[0]
        orbit = action.panel_orbit(panel)
        cls = classify(cx, orbit)
        cubes = [vs for d in range(cx.dimension + 1) for vs in cx.cube_vertexsets(d)]
        # equivariance under the generators implies it under the group
        for g in action.generators:
            for vs in cubes:
                f = fundament(cls, vs)
                gf = fundament(cls, g.apply_set(vs))
                assert {g.apply_set(c) for c in f.ordinary_cubes} == set(
                    gf.ordinary_cubes
                )
                assert {
                    (
                        g.apply_set(p),
                        frozenset(action.wall_image(g, a) for a in s),
                    )
                    for p, s in f.diagonal_pairs()
                } == set(gf.diagonal_pairs())


def test_fixed_point_sets_preserved(square):
    action = GroupAction(square, [square_diagonal(square)])
    trace = run_to_tree(square, action)
    before = symmetry._close(square, action.generators)
    after = symmetry._close(trace.final_complex, trace.final_action.generators)
    for g_before, g_after in zip(before, after):
        assert frozenset(v for v in square.vertices if g_before(v) == v) == frozenset(
            v for v in trace.final_complex.vertices if g_after(v) == v
        )


def test_termination_bound_examples(cube3, cube4):
    for cx in (cube3, cube4):
        trace = run_to_tree(cx, GroupAction(cx, []))
        assert trace.step_count <= sum(cx.cube_counts[2:])


def test_run_to_tree_box():
    from conftest import box_complex

    cx = box_complex(3, 2, 2)
    trace = run_to_tree(cx, GroupAction(cx, []))
    assert trace.final_complex.cube_counts == (36, 35)
    assert trace.step_count <= sum(cx.cube_counts[2:])
    walls = {h.id for h in cx.hyperplanes()}
    assert all(hs and hs <= walls for hs in trace.edge_origins.values())


def _random_runs(seed, count):
    rng = random.Random(seed)
    cfg = GeneratorConfig(max_points=7, max_walls=5, max_vertices=60)
    return [random_complex_with_action(rng, cfg) for _ in range(count)]


def test_transfer_carries_the_closed_group_over(cube3):
    instances = [(cube3, GroupAction(cube3, [cube3_rotation(cube3)]))]
    instances += _random_runs(23, 30)
    moved = 0
    for cx, action in instances:
        for step in iter_steps(cx, action):
            out = step.result.output_complex
            fresh = GroupAction(out, [g.perm for g in action.generators])
            assert all(g.complex is out for g in step.action.generators)
            assert step.action.generators == fresh.generators
            moved += action.order > 1
            action = step.action
    assert moved >= 10, moved


def test_transfer_rejects_a_generator_breaking_an_edge(square):
    action = GroupAction(square, [square_diagonal(square)])
    path = CubeComplex(square.vertices, [("00", "01"), ("01", "11"), ("10", "11")])
    with pytest.raises(InternalInvariantError, match="does not survive"):
        action.transfer(path)


def test_each_step_starts_from_the_previous_complexity(cube4):
    instances = [(cube4, GroupAction(cube4, []))] + _random_runs(29, 20)
    for cx, action in instances:
        gens = [g.perm for g in action.generators]
        steps = list(iter_steps(cx, action))
        trace = symmetry._trace(cx, action, steps)
        for before, after in zip(trace.steps, trace.steps[1:]):
            assert after.complexity_before == before.complexity_after
        for step in steps:
            out = step.result.output_complex
            assert step.complexity_after == complexity(out, GroupAction(out, gens))
        if trace.steps:
            assert trace.steps[0].complexity_before == complexity(
                cx, GroupAction(cx, gens)
            )


def _carried_instances():
    """Actions whose runs carry cube orbits: the descent instances, the
    3x3x3 box under S3, the 6x6 grid under the transposition, draws at the
    ``fuzz`` configuration (whose diagonal cubes reach dimension 3), S3 and
    B3 on the dual 3-cube, and inverted wallspaces with their actions
    pushed to the subdivision."""
    box, grid = box_complex(3, 3, 3), grid_complex(6, 6)
    instances = _descent_instances() + [
        (box, GroupAction(box, [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)])),
        (grid, GroupAction(grid, [coordinate_swap(grid, 0, 1)])),
    ]
    rng, cfg = random.Random(11), GeneratorConfig(max_vertices=120)
    instances += [random_complex_with_action(rng, cfg) for _ in range(30)]
    wallspaces = [data_wallspace(name) for name in (*NONABELIAN_WS, "inverted.ws")]
    wallspaces += [(ws, [r]) for ws, r in mixed_wallspaces(47, 3) if r is not None]
    for ws, syms in wallspaces:
        info = dualize_details(ws)
        cx = info.complex
        action = GroupAction(cx, [symmetry_automorphism(info, m) for m in syms])
        if not action.is_inversion_free:
            cx, action = push_action(cx, action)
        instances.append((cx, action))
    return instances


def test_carried_complexity_equals_the_full_recount():
    # each step's output action carries its cube orbit representatives over
    # from its input's (``_carried_reps``); ``cube_orbit_count`` recounts
    # them from every cube, and steps that add diagonal walls and steps that
    # drop the dimension both occur
    carried = diagonal = dropped = pushed = 0
    diagonal_cubes = Counter()
    for cx, action in _carried_instances():
        # a subdivision names each vertex by its cube's corners joined by "|"
        pushed += any("|" in v for v in cx.vertices if isinstance(v, str))
        for step in iter_steps(cx, action):
            out = step.action
            dims = range(out.complex.dimension, 1, -1)
            assert step.complexity_after.entries == tuple(map(out.cube_orbit_count, dims))
            if out.generators:
                carried += 1
                result = step.result
                diagonal += any(f & (f - 1) for f in result.wall_crossings)
                dropped += result.output_complex.dimension < cx.dimension
                diagonal_cubes.update(
                    axes.bit_count() for _, axes in out._cube_reps
                    if any(result.wall_crossings[w].bit_count() > 1 for w in _bits(axes))
                )
            cx = step.result.output_complex
    assert carried >= 100 and diagonal >= 20 and dropped >= 20 and pushed >= 10, (
        carried, diagonal, dropped, pushed
    )
    assert diagonal_cubes[2] and diagonal_cubes[3], diagonal_cubes


def test_fuzz_recounts_the_carried_complexity(monkeypatch, capsys):
    # a carried count one orbit short is caught by the recount at its step
    # (draw 2 of seed 11 runs two steps under a group of order 2)
    monkeypatch.setenv("PANELCOLLAPSE_SEED", "11")
    assert main(["fuzz", "--count", "3"]) == 0
    carried_reps = symmetry._carried_reps
    monkeypatch.setattr(symmetry, "_carried_reps", lambda *a: carried_reps(*a)[1:])
    assert main(["fuzz", "--count", "3"]) == 2
    err = capsys.readouterr().err
    assert "step 1, panel (h" in err and "carried complexity" in err, err


def test_cube_orbit_count_matches_vertex_set_orbits():
    # every action, the trivial one too, is counted from the orbits of its
    # listed cubes, and 0 beyond the dimension; the drawn and the trivial
    # action against brute-force orbits
    rng = random.Random(37)
    moved = 0
    for _ in range(40):
        cx, drawn = random_complex_with_action(rng, GeneratorConfig())
        moved += drawn.order > 1
        for action in (drawn, GroupAction(cx, [])):
            group = symmetry._close(cx, action.generators)
            for d in range(cx.dimension + 2):
                orbits = {
                    frozenset(g.apply_set(vs) for g in group)
                    for vs in cx.cube_vertexsets(d)
                }
                assert action.cube_orbit_count(d) == len(orbits)
    assert moved >= 10, moved



def _inversions_by_definition(action):
    """Every wall that some element of the closed group maps the plus side
    of onto its minus side, read off ``side_image``, ascending."""
    walls = {
        h.id
        for g in symmetry._close(action.complex, action.generators)
        for h in action.complex.hyperplanes()
        if action.side_image(g, h.id, "+") == (h.id, "-")
    }
    return tuple(sorted(walls))


def test_inversions_match_the_side_image_definition(square):
    edge = CubeComplex(["a", "b"], [("a", "b")])
    actions = [
        GroupAction(edge, [{"a": "b", "b": "a"}]),
        GroupAction(square, [{"00": "01", "01": "11", "11": "10", "10": "00"}]),
        GroupAction(square, [square_diagonal(square)]),
    ]
    # duals of rotation-invariant wallspaces, before any subdivision
    for sides, shift in ((SEVEN_CUBE_SIDES, 1), (("012", "015", "045"), 2)):
        info = dualize_details(Wallspace.from_data(*six_point_walls(*sides)))
        actions.append(
            GroupAction(info.complex, [symmetry_automorphism(info, rotation(6, shift))])
        )
    rng = random.Random(41)
    cfg = GeneratorConfig(max_points=6, max_walls=4)
    while len(actions) < 125:
        ws, rotate = cyclic_wallspace(rng, cfg)
        info = dualize_details(ws)
        if info.complex.n <= 200:
            actions.append(
                GroupAction(info.complex, [symmetry_automorphism(info, rotate)])
            )
    actions += [action for _, action in _random_runs(43, 40)]
    # non-abelian: S3 and B3 on the dual 3-cube, each also pushed to the
    # subdivision, where B3 inverts no wall
    for name in NONABELIAN_WS:
        ws, syms = data_wallspace(name)
        info = dualize_details(ws)
        action = GroupAction(
            info.complex, [symmetry_automorphism(info, m) for m in syms]
        )
        actions += [action, push_action(info.complex, action)[1]]
    inverting = 0
    for action in actions:
        expected = _inversions_by_definition(action)
        assert action.inversions() == expected
        inverting += bool(expected)
    assert inverting >= 12, inverting
    assert [a.order for a in actions[-4:]] == [6, 6, 48, 48]
    assert [bool(a.inversions()) for a in actions[-4:]] == [False, False, True, False]


def test_the_step_loop_builds_no_vertex_sets(monkeypatch):
    def runs():
        box = box_complex(3, 3, 3)
        grid = grid_complex(6, 6)
        return [
            run_to_tree(box, GroupAction(
                box, [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)]
            )),
            run_to_tree(grid, GroupAction(grid, [coordinate_swap(grid, 0, 1)])),
        ]

    expected = [(t.provenance_digest(), t.step_count) for t in runs()]

    def refuse(*args):
        raise AssertionError("the step loop built a public view")

    monkeypatch.setattr(CubeComplex, "_vertex_set", refuse)
    monkeypatch.setattr(CubeComplex, "hyperplanes", refuse)
    monkeypatch.setattr(CubeComplex, "vertex_signs", refuse)
    monkeypatch.setattr(panels, "block", refuse)
    monkeypatch.setattr(CollapseResult, "edge_provenance", property(refuse))
    monkeypatch.setattr(symmetry, "_close", refuse)
    assert [(t.provenance_digest(), t.step_count) for t in runs()] == expected


# -- one maker for each fact of a step -----------------------------------------


def test_a_step_result_is_the_record_a_run_keeps():
    for cx, action in _descent_instances() + _random_runs(31, 20):
        steps = list(iter_steps(cx, action))
        for step in steps:
            assert isinstance(step, StepRecord) and type(step) is StepResult
            assert step.cube_counts == step.result.output_complex.cube_counts
            assert step.diagonal_count == len(step.result.diagonal_edges)
        records = symmetry._trace(cx, action, steps).steps
        assert all(type(record) is StepRecord for record in records)


def test_a_panel_orbit_keeps_the_panel_it_was_given(monkeypatch):
    built = []
    build_panel = symmetry.build_panel

    def counted(cx, h, e, side):
        built.append((h, e, side))
        return build_panel(cx, h, e, side)

    monkeypatch.setattr(symmetry, "build_panel", counted)
    box = box_complex(3, 3, 3)
    cases = [
        (box, GroupAction(box, [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)])),
        (box, GroupAction(box, [])),
    ] + _random_runs(37, 10)
    sizes = set()
    for cx, action in cases:
        for panel in extremal_panels(cx):
            built.clear()
            orbit = action.panel_orbit(panel)
            assert any(p is panel for p in orbit)
            assert sorted(built) == sorted(p.triple for p in orbit if p is not panel)
            sizes.add(len(orbit))
    assert 1 in sizes and max(sizes) >= 6, sizes


def test_a_run_under_the_trivial_group_builds_no_orbit_panel(monkeypatch):
    box = box_complex(3, 3)
    expected = run_to_tree(box, GroupAction(box, [])).lines()

    def refuse(*args):
        raise AssertionError("panel_orbit rebuilt a panel")

    monkeypatch.setattr(symmetry, "build_panel", refuse)
    trace = run_to_tree(box, GroupAction(box, []))
    assert trace.step_count > 0 and trace.lines() == expected


def test_a_panel_orbit_refuses_a_foreign_panel_or_a_non_panel():
    cube_panel = find_extremal_panel(hypercube_complex(3))
    for cx in (grid_complex(3, 3), path_complex(2)):
        with pytest.raises(
            PreconditionError, match=r"^panel was built on another complex$"
        ):
            GroupAction(cx, []).panel_orbit(cube_panel)
    grid = grid_complex(3, 3)
    with pytest.raises(PreconditionError, match=r"^not a panel: \(0, 1, '-'\)$"):
        GroupAction(grid, []).panel_orbit((0, 1, "-"))
    # a panel of an equal complex built apart is its own complex's panel
    twin = grid_complex(3, 3)
    panel = find_extremal_panel(twin)
    assert GroupAction(grid, []).panel_orbit(panel) == (panel,)


def test_a_run_under_the_trivial_group_parses_no_side(monkeypatch):
    # the walk, the classification and the fundaments carry a panel's side
    # as a bit; a side string is read only where a caller hands one in
    box = box_complex(3, 3)
    expected = run_to_tree(box, GroupAction(box, [])).lines()

    def refuse(side):
        raise AssertionError(f"side {side!r} parsed on the step path")

    for module in (panels, symmetry):
        monkeypatch.setattr(module, "_side_bit", refuse)
    trace = run_to_tree(box, GroupAction(box, []))
    assert trace.step_count > 0 and trace.lines() == expected
