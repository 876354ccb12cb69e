"""Classification, persistent/salient subcubes, fundaments, collapse."""

import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given

from panelcollapse.collapse import (
    COMPLETELY_EXTERNAL,
    EXTERNAL,
    INTERNAL,
    CollapseResult,
    _deletion_connected,
    classify,
    collapse,
    fundament,
    _persistent,
    hyperplane_provenance,
)
from panelcollapse.errors import (
    InternalInvariantError,
    InvalidComplexError,
    PreconditionError,
)
from panelcollapse.complex import CubeComplex
from panelcollapse.fileio import parse_complex
from panelcollapse.panels import (
    build_panel,
    extremal_panels,
    find_extremal_panel,
    no_facing_panels,
)
from panelcollapse.randgen import (
    GeneratorConfig,
    random_complex_with_action,
)
from panelcollapse import symmetry
from panelcollapse.symmetry import GroupAction, iter_steps

import oracle
from conftest import (
    DATA,
    assert_same_tables,
    box_complex,
    coordinate_swap,
    hypercube_complex,
    wallspaces,
)


def cube_panel(cube3):
    """The canonical single panel of the 3-cube: a 2-face with 2 internal
    edges."""
    return find_extremal_panel(cube3)


def conflict_panels(square):
    """Two edge panels of a square touching in one corner (the images of one
    another under the diagonal symmetry)."""
    return [build_panel(square, 0, 1, "+"), build_panel(square, 1, 0, "+")]


# -- classification -------------------------------------------------------------


def test_classify_square_single_edge_panel(square):
    p = build_panel(square, 0, 1, "+")
    cls = classify(square, [p])
    assert cls.internal_edges == p.internal_edges
    external_edges = [
        e for e in square.edges if cls.status(frozenset(e)) != INTERNAL
    ]
    assert len(external_edges) == 3
    # the square itself keeps an external parallel copy of the panel edge
    assert cls.status(frozenset(square.vertices)) == EXTERNAL
    internal_edge = next(iter(p.internal_edges))
    assert cls.status(frozenset(internal_edge)) == INTERNAL


def test_classify_cube_single_panel(cube3):
    p = cube_panel(cube3)
    cls = classify(cube3, [p])
    assert len(cls.internal_edges) == 2
    counts = cls.counts()
    # deleted content: the panel face, its two internal edges
    assert counts[INTERNAL] == 3
    # the 3-cube and the two squares containing one internal edge each
    assert counts[EXTERNAL] == 3
    # what survives: 8 vertices + 10 edges + 3 squares
    assert counts[COMPLETELY_EXTERNAL] == 21


def test_classify_empty_panel_set(cube3):
    cls = classify(cube3, [])
    assert all(
        cls.status(vs) == COMPLETELY_EXTERNAL
        for d in range(cube3.dimension + 1)
        for vs in cube3.cube_vertexsets(d)
    )


def test_classify_rejects_facing_panels(square):
    with pytest.raises(PreconditionError):
        classify(square, [build_panel(square, 0, 1, "+"), build_panel(square, 0, 1, "-")])


def test_internal_edges_of_external_cube_confined_per_panel(cube3, square):
    # for an external cube, the edges internal to one panel span a single
    # codimension-1 face
    for cx, panels in ((cube3, [cube_panel(cube3)]), (square, conflict_panels(square))):
        cls = classify(cx, panels)
        planes = cx.hyperplanes()
        cubes = [vs for d in range(cx.dimension + 1) for vs in cx.cube_vertexsets(d)]
        for vs in cubes:
            if cls.status(vs) != EXTERNAL:
                continue
            for p in panels:
                internal = {frozenset(e) for e in p.internal_edges}
                edges = [e for e in cx.subcubes(vs, 1) if e in internal]
                if not edges:
                    continue
                face = frozenset(
                    v for v in vs
                    if v in planes[p.extremalising].side(p.side)
                )
                assert all(e <= face for e in edges)
                # and the whole parallel class inside that face is internal
                for e in cx.subcubes(face, 1):
                    if cx.dual_hyperplane(*e) == p.abutting:
                        assert e in internal


def test_panel_cube_intersections_follow_trichotomy(cube3, square, strip3):
    # a cube either misses the panel, is internal to it, or contains internal
    # edges exactly in the codimension-1 face where the panel meets it
    for cx in (cube3, square, strip3):
        panels = extremal_panels(cx)
        planes = cx.hyperplanes()
        cubes = [vs for d in range(cx.dimension + 1) for vs in cx.cube_vertexsets(d)]
        for p in panels[:6]:
            cls = classify(cx, [p])
            internal = {frozenset(e) for e in p.internal_edges}
            for vs in cubes:
                edges = [e for e in cx.subcubes(vs, 1) if e in internal]
                if cls.status(vs) == INTERNAL:
                    assert edges
                elif edges:
                    chosen = planes[p.extremalising].side(p.side)
                    face = frozenset(v for v in vs if v in chosen)
                    assert len(face) * 2 == len(vs)


# -- persistent and salient subcubes ---------------------------------------------


def test_persistent_subcube_of_conflict_square(square):
    cls = classify(square, conflict_panels(square))
    f = fundament(cls, frozenset(square.vertices))
    assert f.persistent == frozenset({"00"})
    assert f.salient == frozenset({"11"})
    assert f.separators == frozenset({0, 1})


def test_persistent_subcube_completely_external(cube3):
    cls = classify(cube3, [])
    whole = frozenset(cube3.vertices)
    f = fundament(cls, whole)
    assert f.persistent == whole and f.salient == whole and not f.separators


def test_persistent_subcube_single_panel_cube(cube3):
    p = cube_panel(cube3)
    cls = classify(cube3, [p])
    f = fundament(cls, frozenset(cube3.vertices))
    # the face opposite the panel; no separating walls
    assert len(f.persistent) == 4
    assert not f.separators and f.persistent == f.salient
    assert not f.persistent & p.vertex_set


def test_persistent_subcube_rejects_internal(square):
    # an internal cube has no persistent subcube
    p = build_panel(square, 0, 1, "+")
    cls = classify(square, [p])
    internal_edge = frozenset(next(iter(p.internal_edges)))
    f = fundament(cls, internal_edge)
    assert f.status == INTERNAL
    assert f.persistent is None and f.salient is None and not f.separators


def test_persistent_corners_match_hull(cube3, square):
    # the computed persistent subcube equals the hull of the corners whose
    # incident cube edges are all external
    for cx, panels in (
        (cube3, [cube_panel(cube3)]),
        (square, conflict_panels(square)),
    ):
        cls = classify(cx, panels)
        cubes = [vs for d in range(cx.dimension + 1) for vs in cx.cube_vertexsets(d)]
        for vs in cubes:
            if cls.status(vs) == INTERNAL:
                continue
            f = fundament(cls, vs)
            corners = {
                v
                for v in vs
                if all(
                    cls.status(e) != INTERNAL
                    for e in cx.subcubes(vs, 1)
                    if v in e
                )
            }
            assert f.persistent == cx.convex_hull(corners) & vs
            for v in f.persistent:
                assert v in corners


# -- fundaments -------------------------------------------------------------------


def test_fundament_of_conflict_square(square):
    cls = classify(square, conflict_panels(square))
    f = fundament(cls, frozenset(square.vertices))
    assert not f.d_connected
    ordinary_edges = {c for c in f.ordinary_cubes if len(c) == 2}
    assert ordinary_edges == {frozenset({"00", "01"}), frozenset({"00", "10"})}
    assert len(f.diagonals) == 1
    diag = next(iter(f.diagonals))
    assert diag.pairs == ((("11"), ("00")),) or diag.pairs == (("11", "00"),)
    assert diag.separators == frozenset({0, 1})
    # four vertices, three edges in total
    vertices = {v for c in f.ordinary_cubes for v in c}
    assert vertices == set(square.vertices)


def test_fundament_single_panel_square_is_path(square):
    p = build_panel(square, 0, 1, "+")
    cls = classify(square, [p])
    f = fundament(cls, frozenset(square.vertices))
    assert f.d_connected and not f.diagonals
    assert sum(1 for c in f.ordinary_cubes if len(c) == 2) == 3


def test_fundament_completely_external(cube3):
    cls = classify(cube3, [])
    whole = frozenset(cube3.vertices)
    f = fundament(cls, whole)
    assert whole in f.ordinary_cubes and not f.diagonals


def test_fundament_internal_cube_is_deletion(square):
    p = build_panel(square, 0, 1, "+")
    cls = classify(square, [p])
    edge = frozenset(next(iter(p.internal_edges)))
    f = fundament(cls, edge)
    assert f.status == INTERNAL
    assert f.ordinary_cubes == frozenset(frozenset({v}) for v in edge)


def _nfp_panel_subsets(cx, limit=None, rng=None):
    panels = extremal_panels(cx)
    subsets = []
    for r in range(len(panels) + 1):
        for combo in itertools.combinations(panels, r):
            from panelcollapse.panels import no_facing_panels

            if no_facing_panels(cx, combo):
                subsets.append(combo)
    if limit is not None and len(subsets) > limit:
        rng = rng or random.Random(0)
        subsets = rng.sample(subsets, limit)
    return subsets


def test_face_compatibility_on_single_cubes():
    # restriction of a fundament to an external face equals the face's own
    # fundament, for every admissible panel family on cubes of dim <= 3
    for d in (2, 3):
        cx = hypercube_complex(d)
        whole = frozenset(cx.vertices)
        for panels in _nfp_panel_subsets(cx, limit=120):
            cls = classify(cx, panels)
            check_face_compatibility(cls, whole)


def check_face_compatibility(cls, cube):
    cx = cls.complex
    f = fundament(cls, cube)
    for sub in cx.subcubes(cube):
        if cls.status(sub) == INTERNAL or sub == cube:
            continue
        fsub = fundament(cls, sub)
        restricted_ordinary = {c for c in f.ordinary_cubes if c <= sub}
        assert restricted_ordinary == set(fsub.ordinary_cubes)
        restricted_pairs = {
            (pair, sep)
            for pair, sep in f.diagonal_pairs()
            if pair <= sub
        }
        assert restricted_pairs == set(fsub.diagonal_pairs())


def test_extra_cube_bound_on_single_cubes():
    # at most one maximal completely external cube falls outside the pieces
    # assembled from faces and diagonals, and it is a product over the salient
    for d in (2, 3):
        cx = hypercube_complex(d)
        whole = frozenset(cx.vertices)
        for panels in _nfp_panel_subsets(cx, limit=120):
            cls = classify(cx, panels)
            check_extra_cube_bound(cls, whole)


def check_extra_cube_bound(cls, cube):
    cx = cls.complex
    if cls.status(cube) != EXTERNAL:
        return
    f = fundament(cls, cube)
    if f.d_connected:
        return
    d = len(cube).bit_length() - 1  # a d-cube has 2 ** d vertices
    ext_faces = [
        face for face in cx.subcubes(cube, d - 1) if face & f.persistent
    ]
    completely = [
        sub for sub in cx.subcubes(cube)
        if cls.status(sub) == COMPLETELY_EXTERNAL
    ]
    maximal = [c for c in completely if not any(c < d_ for d_ in completely)]
    outside = [
        c
        for c in maximal
        if not any(c <= face for face in ext_faces) and not c <= f.salient
    ]
    assert len(outside) <= 1
    if outside:
        extra = outside[0]
        assert f.salient <= extra
        # the extra factor uses no walls dual to internal edges
        internal_walls = {
            cx.dual_hyperplane(*e)
            for e in cx.subcubes(cube, 1)
            if cls.status(e) == INTERNAL
        }
        extra_axes = {cx.dual_hyperplane(*e) for e in cx.subcubes(extra, 1)} - {
            cx.dual_hyperplane(*e) for e in cx.subcubes(f.salient, 1)
        }
        assert not extra_axes & internal_walls


def test_connectivity_heredity():
    # if the deletion of a cube is connected, so are the deletions of its
    # external subcubes
    for d in (2, 3):
        cx = hypercube_complex(d)
        whole = frozenset(cx.vertices)
        for panels in _nfp_panel_subsets(cx, limit=150):
            cls = classify(cx, panels)
            if cls.status(whole) == INTERNAL:
                continue
            f = fundament(cls, whole)
            if not f.d_connected:
                continue
            for sub in cx.subcubes(whole):
                if cls.status(sub) != INTERNAL:
                    assert fundament(cls, sub).d_connected


# -- collapse ----------------------------------------------------------------------


def test_collapse_cube_single_panel_counts(cube3):
    res = collapse(cube3, [cube_panel(cube3)])
    out = res.output_complex
    assert out.cube_counts == (8, 10, 3)
    assert out.euler_characteristic == 1
    assert out.validation_report.passed
    assert set(out.vertices) == set(cube3.vertices)
    assert not res.diagonal_edges
    # deleted strip: enumerate the three remaining squares
    assert len(out.cube_vertexsets(2)) == 3


def test_collapse_rejects_facing(square):
    with pytest.raises(PreconditionError):
        collapse(square, [build_panel(square, 0, 1, "+"), build_panel(square, 0, 1, "-")])


def test_collapse_empty_is_identity(cube3):
    res = collapse(cube3, [])
    assert res.output_complex.cube_counts == cube3.cube_counts
    assert set(res.output_complex.edges) == set(cube3.edges)


def test_collapse_conflict_square(square):
    res = collapse(square, conflict_panels(square))
    out = res.output_complex
    assert out.cube_counts == (4, 3)
    assert res.diagonal_edges == frozenset({("00", "11")})
    assert res.edge_provenance[out.edge_key("00", "11")] == frozenset({0, 1})
    for e in out.edges:
        if e not in res.diagonal_edges:
            assert len(res.edge_provenance[e]) == 1


def test_collapse_preserves_vertices_and_drops_internal(cube3, square):
    for cx, panels in (
        (cube3, [cube_panel(cube3)]),
        (square, conflict_panels(square)),
    ):
        cls = classify(cx, panels)
        res = collapse(cx, panels)
        out = res.output_complex
        assert set(out.vertices) == set(cx.vertices)
        for e in cls.internal_edges:
            assert e not in set(out.edges)
        # panel insides avoided: no output edge is an internal input edge
        for e in out.edges:
            if e in set(cx.edges):
                assert cls.status(frozenset(e)) != INTERNAL


def test_diagonal_square_closure():
    # when the salient cube has an edge, the two diagonals over its endpoints
    # close up with the surviving copies into a filled square
    cx = hypercube_complex(3)
    panels = [build_panel(cx, 0, 2, "+"), build_panel(cx, 1, 2, "+"),
              build_panel(cx, 2, 1, "+")]
    from panelcollapse.panels import no_facing_panels

    assert no_facing_panels(cx, panels)
    res = collapse(cx, panels)
    out = res.output_complex
    squares = set(out.cube_vertexsets(2))
    cls = classify(cx, panels)
    for m in cx.maximal_cubes():
        f = fundament(cls, m)
        for diag in f.diagonals:
            if len(diag.salient_cube) < 2:
                continue
            for u, v in cx.subcubes(diag.salient_cube, 1):
                pairs = dict(diag.pairs)
                quad = frozenset({u, v, pairs[u], pairs[v]})
                assert quad in squares


def test_provenance_classes_consistent(cube3, square):
    for cx, panels in (
        (cube3, [cube_panel(cube3)]),
        (square, conflict_panels(square)),
    ):
        res = collapse(cx, panels)
        mapping = hyperplane_provenance(res)
        out = res.output_complex
        planes = out.hyperplanes()
        # surviving external edges keep their own wall
        for e in out.edges:
            if e in set(cx.edges):
                assert res.edge_provenance[e] == frozenset(
                    {cx.dual_hyperplane(*e)}
                )
        # each input wall decomposes into whole output classes
        for h, out_ids in mapping.items():
            trace_edges = {
                e for e in out.edges if h in res.edge_provenance[e]
            }
            class_edges = set()
            for oid in out_ids:
                class_edges |= set(planes[oid].edges)
            assert trace_edges == class_edges


def test_fundament_determined_by_internal_edges(square):
    # two distinct panel families with identical internal edge sets give the
    # same fundament
    p = build_panel(square, 0, 1, "+")
    cls1 = classify(square, [p])
    cls2 = classify(square, [p, p])
    whole = frozenset(square.vertices)
    f1, f2 = fundament(cls1, whole), fundament(cls2, whole)
    assert f1.ordinary_cubes == f2.ordinary_cubes
    assert f1.diagonal_pairs() == f2.diagonal_pairs()


def test_collapse_random_complexes_validate():
    rng = random.Random(42)
    for _ in range(10):
        cx, _ = random_complex_with_action(rng, GeneratorConfig(max_points=8, max_walls=7))
        panel = find_extremal_panel(cx)
        if panel is None:
            continue
        res = collapse(cx, [panel])
        assert res.output_complex.validation_report.passed
        hyperplane_provenance(res)


@given(wallspaces())
def test_collapse_properties_on_arbitrary_duals(ws):
    # any dual complex: collapsing the canonical panel keeps the vertex set,
    # drops at least one cube interior, validates, and has sound provenance
    from panelcollapse.pocset import dualize_details

    cx = dualize_details(ws).complex
    panel = find_extremal_panel(cx)
    if panel is None:
        return
    res = collapse(cx, [panel])
    out = res.output_complex
    assert set(out.vertices) == set(cx.vertices)
    # at least one input cube's interior is excluded: the internal edges
    assert panel.internal_edges
    assert not panel.internal_edges & set(out.edges)
    assert out.validation_report.passed
    mapping = hyperplane_provenance(res)
    assert set(mapping) == {h.id for h in cx.hyperplanes()}


def _descent_instances():
    """Boxes under coordinate swaps and 60 random equivariant complexes."""
    instances = []
    for sides in ((3, 3), (4, 4), (2, 2, 2)):
        cx = box_complex(*sides)
        swaps = [coordinate_swap(cx, i, i + 1) for i in range(len(sides) - 1)]
        instances.append((cx, GroupAction(cx, swaps)))
    rng = random.Random(17)
    cfg = GeneratorConfig(max_points=7, max_walls=5, max_vertices=60)
    instances += [random_complex_with_action(rng, cfg) for _ in range(60)]
    return instances


def _assert_built_as_from_named_edges(result):
    # collapse builds its output on the input's vertex table from index
    # pairs; the public constructor, given the edges named, reversed and
    # with their ends swapped, must build the same tables
    out, cx = result.output_complex, result.input_complex
    assert out._order is cx._order and out._ix is cx._ix
    named = CubeComplex(cx.vertices, [(v, u) for u, v in reversed(out.edges)])
    assert_same_tables(out, named)


def test_completely_external_maximal_cubes_are_their_own_fundaments():
    # collapse skips the fundaments of completely external maximal cubes: a
    # cube with no internal edge is its own fundament, with no diagonals
    skipped = diagonal_steps = 0
    for instance in _descent_instances():
        for step in iter_steps(*instance):
            result = step.result
            _assert_built_as_from_named_edges(result)
            cx = result.input_complex
            cls = classify(cx, result.panels)
            diagonals = {}
            for m in cx.maximal_cubes():
                f = fundament(cls, m)
                if cls.status(m) == COMPLETELY_EXTERNAL:
                    assert not f.diagonals
                    assert f.ordinary_cubes == set(cx.subcubes(m))
                    skipped += 1
                for pair, separators in f.diagonal_pairs():
                    diagonals[tuple(sorted(pair, key=cx.index))] = separators
            assert result.diagonal_edges == set(diagonals)
            assert {e: result.edge_provenance[e] for e in diagonals} == diagonals
            diagonal_steps += bool(diagonals)
    assert skipped >= 100 and diagonal_steps >= 10, (skipped, diagonal_steps)


def _deletion_connected_by_corners(cls, cube):
    """The deletion search by its definition: corner ``base | s`` by corner,
    along the edges whose status is not internal."""
    base, axes = cube
    seen, reached = {0}, [0]
    for s in reached:
        for h in range(axes.bit_length()):
            bit = 1 << h
            if axes & bit and s ^ bit not in seen and cls._status_of(
                (base | (s & ~bit), bit)
            ) != INTERNAL:
                seen.add(s ^ bit)
                reached.append(s ^ bit)
    return len(seen) == 1 << axes.bit_count()


def test_the_bitset_deletion_search_matches_the_corner_search():
    # every cube of every status, internal ones included, since
    # ``fundament`` reports ``d_connected`` for them too (always False: a
    # panel's walls cut all of an internal cube's edges along its H)
    cube5, box = hypercube_complex(5), box_complex(3, 3, 3)
    instances = _descent_instances() + [
        (cube5, GroupAction(cube5, [])),
        (box, GroupAction(box, [coordinate_swap(box, 0, 1), coordinate_swap(box, 1, 2)])),
    ]
    seen = Counter()
    for instance in instances:
        for step in iter_steps(*instance):
            cls = step.result._classification
            for cubes in step.result.input_complex._cubes:
                for cube in cubes:
                    connected = _deletion_connected(cls, cube)
                    assert connected == _deletion_connected_by_corners(cls, cube)
                    seen[cls._status_of(cube), cube[1].bit_count() > 1, connected] += 1
    assert set(seen) == {
        (INTERNAL, False, False), (INTERNAL, True, False),
        (EXTERNAL, True, False), (EXTERNAL, True, True),
        (COMPLETELY_EXTERNAL, False, True), (COMPLETELY_EXTERNAL, True, True),
    }, seen
    assert sum(seen.values()) >= 5000, seen


def test_outputs_of_fuzz_draws_are_built_as_from_named_edges():
    # a fixed slice of draws at the ``panelcollapse fuzz`` configuration
    rng, cfg = random.Random(0), GeneratorConfig(max_vertices=120)
    steps = diagonal_steps = 0
    for _ in range(60):
        for step in iter_steps(*random_complex_with_action(rng, cfg)):
            _assert_built_as_from_named_edges(step.result)
            steps += 1
            diagonal_steps += bool(step.result.diagonal_edges)
    assert steps >= 100 and diagonal_steps >= 5, (steps, diagonal_steps)


def test_the_private_constructor_still_validates(square):
    # a path and a disconnected graph on the square's vertex table
    def on_square(int_edges):
        return CubeComplex._from_indexed(square._order, square._ix, int_edges)

    path = on_square(square._int_edges[:3])
    assert path.is_tree() and path.vertices is square.vertices
    with pytest.raises(InvalidComplexError, match="not connected"):
        on_square(square._int_edges[:2])
    # the four vertices pairwise joined but for one pair: K4 minus an edge
    with pytest.raises(InvalidComplexError, match="median check fails"):
        on_square([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def test_diagonal_ends_differ_in_exactly_their_separators():
    # a diagonal joins the ends of a pair across at least two separator
    # walls, so it never repeats an input edge; collapse does not recheck it
    results = [
        step.result for instance in _descent_instances() for step in iter_steps(*instance)
    ]
    rng = random.Random(42)
    for _ in range(10):
        cx, _ = random_complex_with_action(rng, GeneratorConfig(max_points=8, max_walls=7))
        panel = find_extremal_panel(cx)
        if panel is not None:
            results.append(collapse(cx, [panel]))
    diagonals = 0
    for result in results:
        cx = result.input_complex
        for a, b in result.diagonal_edges:
            separators = result.edge_provenance[a, b]
            assert cx.crossing_set(a, b) == separators
            assert len(separators) >= 2
            assert (a, b) not in cx.edges
            diagonals += 1
    assert diagonals >= 20, diagonals


def test_output_cubes_are_the_fundament_decomposition():
    # the output's cubes are the completely external input cubes plus, for
    # each diagonal piece S(w) of an external maximal cube's fundament, every
    # face f of w, its partner across the separators and the union of the two
    rng = random.Random(11)
    instances = _descent_instances()
    instances += [random_complex_with_action(rng, GeneratorConfig()) for _ in range(150)]
    steps = diagonal_steps = 0
    for instance in instances:
        for step in iter_steps(*instance):
            cx = step.result.input_complex
            cls = classify(cx, step.result.panels)
            cubes = [vs for d in range(cx.dimension + 1) for vs in cx.cube_vertexsets(d)]
            expected = {vs for vs in cubes if cls.status(vs) == COMPLETELY_EXTERNAL}
            for m in cx.maximal_cubes():
                if cls.status(m) != EXTERNAL:
                    continue
                for diagonal in fundament(cls, m).diagonals:
                    partner = dict(diagonal.pairs)
                    for face in cx.subcubes(diagonal.salient_cube):
                        across = frozenset(partner[v] for v in face)
                        expected |= {face, across, face | across}
            out = step.result.output_complex
            assert {
                vs for d in range(out.dimension + 1) for vs in out.cube_vertexsets(d)
            } == expected
            steps += 1
            diagonal_steps += bool(step.result.diagonal_edges)
    assert steps >= 400 and diagonal_steps >= 30, (steps, diagonal_steps)


def test_provenance_and_origins_match_the_per_edge_references():
    # the step reads crossing sets off the input masks and lifts origins per
    # wall; the references keep both per edge
    rng = random.Random(61)
    instances = _descent_instances()
    instances += [random_complex_with_action(rng, GeneratorConfig()) for _ in range(100)]
    steps = diagonal_steps = 0
    for cx, action in instances:
        descent = list(iter_steps(cx, action))
        trace = symmetry._trace(cx, action, descent)
        assert trace.edge_origins == oracle.reference_edge_origins(cx, descent)
        for step in descent:
            result = step.result
            expected = oracle.reference_edge_provenance(result)
            assert hyperplane_provenance(result) == (
                oracle.reference_hyperplane_provenance(result, expected)
            )
            assert result.edge_provenance == expected
            steps += 1
            diagonal_steps += bool(result.diagonal_edges)
    assert steps >= 250 and diagonal_steps >= 15, (steps, diagonal_steps)


def test_an_output_wall_with_two_crossing_sets_is_refused():
    # on the path v0-v1-v2-v3, v0v1 crosses h0 and v2v3 crosses h2, while the
    # 4-cycle on the same vertices puts both edges on one wall
    vertices = ["v0", "v1", "v2", "v3"]
    path = CubeComplex(vertices, [("v0", "v1"), ("v1", "v2"), ("v2", "v3")])
    cycle = CubeComplex(vertices, [*path.edges, ("v0", "v3")])
    # the per-wall map and the per-edge view both read the checked crossings
    for read in (hyperplane_provenance, lambda result: result.edge_provenance):
        result = CollapseResult(
            input_complex=path, output_complex=cycle, panels=(),
            diagonal_edges=frozenset(),
        )
        with pytest.raises(
            InternalInvariantError, match=r"mixes crossing sets \[\[0\], \[2\]\]"
        ):
            read(result)


def test_a_family_member_that_is_not_a_panel_is_refused(cube3):
    panel = find_extremal_panel(cube3)
    for call in (classify, collapse, no_facing_panels):
        for family in ([(0, 1, "+")], [panel, (0, 1, "+")]):
            with pytest.raises(PreconditionError, match="not a panel"):
                call(cube3, family)


def test_panels_of_another_complex_are_refused(cube3):
    panel = find_extremal_panel(cube3)
    out = collapse(cube3, [panel]).output_complex
    for call in (collapse, classify, no_facing_panels):
        with pytest.raises(PreconditionError, match="another complex"):
            call(out, [panel])
    # a complex with the same vertices and edges is the same complex
    twin = CubeComplex(cube3.vertices, cube3.edges)
    assert collapse(twin, [panel]).output_complex.edges == out.edges


def _assert_mask_status_matches_the_per_panel_rule(cls, cubes):
    for cube in cubes:
        status = cls._status_of(cube)
        assert status == oracle.meeting_status(cls.panels, cube), (cls.panels, cube)
        if status == INTERNAL:
            continue
        expected = oracle.meeting_persistent(cls.panels, cube)
        if expected is None:
            with pytest.raises(InternalInvariantError, match="empty persistent"):
                _persistent(cls, cube)
        else:
            assert _persistent(cls, cube) == expected, (cls.panels, cube)


def test_mask_status_matches_the_per_panel_rule_along_descents():
    steps = 0
    for instance in _descent_instances():
        for step in iter_steps(*instance):
            cx = step.result.input_complex
            cls = classify(cx, step.result.panels)
            cubes = [c for by_dim in cx._cubes for c in by_dim]
            _assert_mask_status_matches_the_per_panel_rule(cls, cubes)
            steps += 1
    assert steps >= 50, steps


def test_mask_status_matches_the_per_panel_rule_on_small_families(cube3):
    # every facing-free family of up to three extremal panels, some of them
    # with two panels on one abutting wall
    families = shared = 0
    for cx in (cube3, box_complex(2, 2), box_complex(2, 1, 1)):
        cubes = [c for by_dim in cx._cubes for c in by_dim]
        panels = extremal_panels(cx)
        for size in (1, 2, 3):
            for family in itertools.combinations(panels, size):
                if not no_facing_panels(cx, family):
                    continue
                _assert_mask_status_matches_the_per_panel_rule(
                    classify(cx, family), cubes
                )
                families += 1
                shared += len({p.abutting for p in family}) < size
    assert families >= 700 and shared >= 300, (families, shared)


# A 4-cube and a 3-cube sharing a square, on which some four-panel families
# build fundaments that disagree on a shared face.  It lies outside the files
# that the CLI fuzz test requires to run cleanly.
WITNESS = DATA / "defects" / "witness20.cc"


def test_the_fundament_witness_has_its_counts():
    cx = parse_complex(WITNESS.read_text())
    assert cx.cube_counts == (20, 40, 29, 9, 1)
    # wall h is the (5 - h)th character of the names
    for h in cx.hyperplanes():
        for u, v in h.edges:
            assert [i for i in range(5) if u[i] != v[i]] == [4 - h.id]
    panels = extremal_panels(cx)
    assert len(panels) == 26
    families = sum(
        no_facing_panels(cx, family)
        for k in range(1, 5)
        for family in itertools.combinations(panels, k)
    )
    assert families == 10522


@pytest.mark.xfail(strict=True, raises=InternalInvariantError, reason=(
    "known defect: two fundaments disagree on a shared face, and the "
    "collapsed 1-skeleton is not median"
))
@pytest.mark.parametrize(
    "family",
    [
        [(1, 2, "-"), (2, 1, "-"), (3, 4, "-"), (4, 3, "-")],
        [(1, 2, "-"), (1, 3, "-"), (2, 1, "-"), (3, 4, "-")],
    ],
    ids=["two-coupled-blocks", "block-chained-to-a-third"],
)
def test_witness_families_collapse(family):
    # any other error fails the test outright, and so does a valid collapse,
    # since the mark is strict
    cx = parse_complex(WITNESS.read_text())
    try:
        collapse(cx, [build_panel(cx, *triple) for triple in family])
    except InternalInvariantError as exc:
        assert "collapsed 1-skeleton failed validation" in str(exc), str(exc)
        raise


FAMILY_SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "family_sweep.py"


def test_the_q4_family_sweep_has_its_counts():
    # the sweep of scripts/family_sweep.py, loaded by path so that the script
    # and this test share one implementation.  Any change to a fundament's
    # diagonal records moves the failure count.  The two open fundament
    # defects in the ROADMAP (items 1 and 2: coupled separator blocks, and
    # which families the construction admits) are what should lower it.
    spec = importlib.util.spec_from_file_location("family_sweep", FAMILY_SWEEP)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    count, failures = script.sweep(hypercube_complex(4))
    assert (count, len(failures)) == (5816, 576)
    assert {len(family) for family, _ in failures} == {4}
    for _, message in failures:
        assert message.startswith("collapsed 1-skeleton failed validation"), message


def test_classification_keeps_a_minus_and_a_plus_mask_per_abutting_wall():
    steps = 0
    for instance in _descent_instances():
        for step in iter_steps(*instance):
            cls = classify(step.result.input_complex, step.result.panels)
            expected = {}
            for p in cls.panels:
                masks = expected.setdefault(p.abutting, [0, 0])
                masks[("-", "+").index(p.side)] |= 1 << p.extremalising
            assert cls._sides == expected
            assert cls._abutting == sum(1 << h for h in expected)
            steps += 1
    assert steps >= 50, steps
