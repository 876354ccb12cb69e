"""Fault injection: each guard that raises ``InternalInvariantError`` on a
breach no valid input reaches, and that no test of its own module makes
fire, is made to fire here, and its exact message is pinned, with the
``step N, `` or ``step N, panel (...): `` prefix of a run where the guard
runs inside one.  Each test breaks what feeds its guard: a table of a
complex, a classification's side masks, the action a step transfers, or a
helper the guard calls.  ``scripts/mutants.py`` deletes each guard in a
copy of the checkout and runs the tests that pin it there."""

import dataclasses
import importlib

import pytest

from panelcollapse import panels, pocset, symmetry
from panelcollapse.complex import CubeComplex
from panelcollapse.errors import InternalInvariantError, PreconditionError
from panelcollapse.fileio import parse_complex
from panelcollapse.pocset import Wallspace, dualize_details, symmetry_automorphism
from panelcollapse.symmetry import GroupAction, run_to_tree

from conftest import DATA, coordinate_swap, data_wallspace, grid_complex

collapse_module = importlib.import_module("panelcollapse.collapse")


def _square():
    return parse_complex((DATA / "square.cc").read_text())


def _breach(cx, generators=()):
    """The message of the breach a run from ``cx`` raises."""
    with pytest.raises(InternalInvariantError) as exc:
        run_to_tree(cx, GroupAction(cx, list(generators)))
    return str(exc.value)


def _edit_classifications(monkeypatch, edit):
    """Make ``collapse`` run on classifications that ``edit`` has changed."""
    classify = collapse_module.classify

    def edited(cx, family):
        cls = classify(cx, family)
        edit(cls)
        return cls

    monkeypatch.setattr(collapse_module, "classify", edited)


def test_an_inversion_made_by_a_step_is_internal(monkeypatch):
    # the output action claims that it inverts its first wall
    transfer = GroupAction.transfer

    def inverting(self, other):
        out = transfer(self, other)
        out._wall_orbits = (out._wall_orbits[0], (0,))
        return out

    monkeypatch.setattr(GroupAction, "transfer", inverting)
    assert _breach(_square()) == (
        "step 1, panel (h0,h1,-): collapse introduced an inversion on output wall 0"
    )


def test_a_maximal_cube_internal_to_a_panel_is_internal(monkeypatch):
    # on the domino, the panel (h0, h1, -) is asked for on side + of h1 too,
    # which makes the right square internal to it
    def both_sides(cls):
        cls._sides[0][1] |= 1 << 1

    _edit_classifications(monkeypatch, both_sides)
    assert _breach(grid_complex(2, 1)) == (
        "step 1, panel (h0,h1,-): maximal cube {(1, 0), (1, 1), (2, 0), (2, 1)} "
        "is internal to a panel"
    )


def test_a_family_with_no_internal_edges_is_internal(monkeypatch):
    def no_edges(cls):
        cls.panels = tuple(dataclasses.replace(p, _edges=()) for p in cls.panels)

    _edit_classifications(monkeypatch, no_edges)
    assert _breach(_square()) == (
        "step 1, panel (h0,h1,-): nonempty panel family with no internal edges"
    )


def test_an_empty_persistent_subcube_is_internal(monkeypatch):
    # h1 is asked for on both of its sides, so the square's persistent
    # subcube would have to lie on both
    def both_sides(cls):
        cls._sides[0] = [1 << 1, 1 << 1]

    _edit_classifications(monkeypatch, both_sides)
    assert _breach(_square()) == (
        "step 1, panel (h0,h1,-): external cube {'00', '01', '10', '11'} has "
        "empty persistent subcube"
    )


def test_an_image_panel_that_is_not_extremal_is_internal(monkeypatch):
    # the transposition maps the first panel of the 2x2 grid onto a second
    def refused(cx, h, e, side):
        raise PreconditionError("refused")

    monkeypatch.setattr(symmetry, "build_panel", refused)
    grid = grid_complex(2, 2)
    assert _breach(grid, [coordinate_swap(grid, 0, 1)]) == (
        "step 1, panel (h0,h1,-): image panel (h1, h0, -) is not extremal: refused"
    )


def test_crossing_walls_with_no_extremal_panel_are_internal(monkeypatch):
    monkeypatch.setattr(panels, "_extremal_walk", lambda cx: iter(()))
    assert _breach(_square()) == (
        "step 1, walls cross but no extremal panel was found in a finite complex"
    )


def test_the_step_checks_the_output_crossing_sets_itself(monkeypatch):
    # the output's first and last walls, which cross h0 and h1, are merged
    # into one; the step's own read of the crossing sets refuses it, before
    # the run's lift reads them again, with no step named
    collapse = symmetry.collapse

    def merged(cx, family):
        result = collapse(cx, family)
        walls = result.output_complex._wall_edges
        walls[0] += walls.pop()
        return result

    monkeypatch.setattr(symmetry, "collapse", merged)
    assert _breach(_square()) == (
        "step 1, panel (h0,h1,-): output hyperplane 0 mixes crossing sets [[0], [1]]"
    )


def test_an_output_wall_crossing_no_input_wall_is_internal(monkeypatch):
    # each edge of the output's first wall is replaced by a loop at its
    # first end, whose ends differ in no input wall
    collapse = symmetry.collapse

    def looped(cx, family):
        result = collapse(cx, family)
        walls = result.output_complex._wall_edges
        walls[0] = [(a, a) for a, _ in walls[0]]
        return result

    monkeypatch.setattr(symmetry, "collapse", looped)
    assert _breach(_square()) == (
        "step 1, panel (h0,h1,-): output hyperplane 0 has an empty crossing set"
    )


def test_a_principal_orientation_outside_the_flip_component_is_internal(monkeypatch):
    # point b is made to lie in neither wall's first side, so its principal
    # orientation takes both second sides, {c} and {b}, which are disjoint
    side_masks = pocset._side_masks

    def b_nowhere(ws):
        bit, walls = side_masks(ws)
        return {**bit, "b": 0}, walls

    monkeypatch.setattr(pocset, "_side_masks", b_nowhere)
    ws = Wallspace.from_data(["a", "b", "c"], [({"a", "b"}, {"c"}), ({"a", "c"}, {"b"})])
    with pytest.raises(InternalInvariantError) as exc:
        dualize_details(ws)
    assert str(exc.value) == (
        "principal orientation of point 'b' is outside the flip component"
    )


def test_a_dual_wall_flipping_several_walls_is_internal(monkeypatch):
    # the dual's first two walls are merged into one
    compute = CubeComplex._compute_hyperplanes

    def merged(self, edge_wall):
        compute(self, edge_wall)
        self._wall_edges[:2] = [self._wall_edges[0] + self._wall_edges[1]]

    monkeypatch.setattr(CubeComplex, "_compute_hyperplanes", merged)
    ws, _ = data_wallspace("crossing2.ws")
    with pytest.raises(InternalInvariantError) as exc:
        dualize_details(ws)
    assert str(exc.value) == "hyperplane 0 flips several walls: [0, 1]"


def test_a_symmetry_leaving_the_flip_component_is_internal():
    # the last orientation is dropped from the dual's index, so the identity
    # maps it outside
    info = dualize_details(data_wallspace("crossing2.ws")[0])
    last = len(info._masks) - 1
    kept = {m: i for m, i in info._vertex_of.items() if i != last}
    with pytest.raises(InternalInvariantError) as exc:
        symmetry_automorphism(dataclasses.replace(info, _vertex_of=kept), {})
    assert str(exc.value) == "wallspace symmetry leaves the dual flip component"


def test_a_median_that_is_not_a_vertex_is_internal(monkeypatch):
    # the square's vertex 00, the median of the other three, is dropped
    # from the index of masks
    cx = _square()
    kept = {m: i for m, i in cx._vertex_of.items() if i != cx.index("00")}
    monkeypatch.setattr(cx, "_vertex_of", kept)
    with pytest.raises(InternalInvariantError) as exc:
        cx.median("01", "10", "00")
    assert str(exc.value) == "median of ('01', '10', '00') is not a vertex"
