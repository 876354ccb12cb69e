"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from panelcollapse.collapse import (
    classify,
    collapse,
    fundament,
    hyperplane_provenance,
)
from panelcollapse.panels import (
    build_panel,
    extremal_panels,
    find_extremal_panel,
    no_facing_panels,
)
from panelcollapse.pocset import Wallspace, dualize_details, stallings_pipeline
from panelcollapse.randgen import GeneratorConfig, random_complex_with_action
from panelcollapse import symmetry
from panelcollapse.symmetry import GroupAction, complexity, iter_steps, run_to_tree

import test_collapse as collapse_checks
from conftest import hypercube_complex
from test_oracle import run_dimension


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    timing = {}
    try:
        yield timing
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    # a block that reads memoized work sets that work's own time
    elapsed = timing.get("seconds", time.perf_counter() - start)
    if budget_seconds is not None and elapsed > budget_seconds:
        print(
            f"ACCEPTANCE {number:2d} FAIL  {description} "
            f"(took {elapsed:.2f}s > {budget_seconds}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget "
            f"({elapsed:.2f}s)"
        )
    print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.2f}s)")


# -- shared random workload for criteria 4, 5, 7, 8 ----------------------------


@pytest.fixture(scope="module")
def descent_runs():
    start = time.perf_counter()
    rng = random.Random(20240)
    cfgs = [
        GeneratorConfig(max_points=7, max_walls=6, max_vertices=200, min_dimension=2),
        GeneratorConfig(max_points=9, max_walls=8, max_vertices=200, min_dimension=2),
        GeneratorConfig(max_points=9, max_walls=8, max_vertices=200),
    ]

    def run(cx, action):
        # every step's full result for the criteria reading them, and the
        # trace folded from those steps
        steps = list(iter_steps(cx, action))
        return cx, action, symmetry._trace(cx, action, steps), steps

    runs = []
    while len(runs) < 48:
        cfg = cfgs[len(runs) % len(cfgs)]
        cx, action = random_complex_with_action(rng, cfg)
        assert cx.dimension <= 4 and cx.n <= 200
        runs.append(run(cx, action))
    # two larger grids with a transposition symmetry: conflicting panel
    # orbits, and vertex counts past one hundred
    from conftest import grid_complex

    for n in (8, 10):
        cx = grid_complex(n, n)
        transpose = {(i, j): (j, i) for i in range(n + 1) for j in range(n + 1)}
        action = GroupAction(cx, [transpose])
        runs.append(run(cx, action))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_single_panel_cube_collapse(cube3):
    with criterion(1, "single-panel collapse of the 3-cube", 1.0):
        panel = find_extremal_panel(cube3)
        res = collapse(cube3, [panel])
        out = res.output_complex
        assert out.cube_counts == (8, 10, 3)
        assert out.euler_characteristic == 1
        assert out.validation_report.passed


def test_criterion_2_cube_to_tree(cube3):
    with criterion(2, "3-cube runs to a tree within 4 steps", 1.0):
        trace = run_to_tree(cube3, GroupAction(cube3, []))
        assert trace.step_count <= 4
        assert trace.final_complex.cube_counts == (8, 7)
        walls = {h.id for h in cube3.hyperplanes()}
        assert len(walls) == 3
        for origin in trace.edge_origins.values():
            assert origin and origin <= walls


def test_criterion_3_conflicting_panel_pair(square):
    with criterion(3, "square with a conflicting panel orbit", 1.0):
        action = GroupAction(
            square, [{"00": "00", "11": "11", "01": "10", "10": "01"}]
        )
        trace = run_to_tree(square, action)
        out = trace.final_complex
        assert out.cube_counts == (4, 3)
        assert out.is_tree()
        result = next(iter_steps(square, action)).result
        assert len(result.diagonal_edges) == 1
        diag = next(iter(result.diagonal_edges))
        assert result.edge_provenance[diag] == frozenset({0, 1})
        g = trace.final_action.generators[0]
        assert {frozenset((g(u), g(v))) for u, v in out.edges} == {
            frozenset(e) for e in out.edges
        }


def test_criterion_4_strict_descent(descent_runs):
    runs, generation_elapsed = descent_runs
    with criterion(
        4,
        "strict complexity descent on 50 random runs",
        max(60.0 - generation_elapsed, 0.01),
    ):
        assert generation_elapsed < 60.0
        assert len(runs) >= 50
        nontrivial = 0
        for cx, action, trace, _ in runs:
            if action.order > 1:
                nontrivial += 1
            for step in trace.steps:
                assert step.complexity_after < step.complexity_before
            assert trace.step_count <= sum(cx.cube_counts[2:])
            assert trace.final_complex.is_tree()
        assert nontrivial >= 5


def test_criterion_5_cat0_preserved(descent_runs):
    runs, _ = descent_runs
    with criterion(5, "every intermediate complex validates as CAT(0)"):
        for _, _, _, steps in runs:
            for step in steps:
                report = step.result.output_complex.validation_report
                assert report.passed
                assert report.euler_characteristic == 1


def test_criterion_6_face_compatibility(descent_runs):
    with criterion(6, "face compatibility and extra-cube bound fuzz", 30.0):
        instances = 0
        # all admissible families on the square and the 3-cube
        for d in (2, 3):
            cx = hypercube_complex(d)
            whole = frozenset(cx.vertices)
            panels = extremal_panels(cx)
            for r in range(len(panels) + 1):
                for family in itertools.combinations(panels, r):
                    if not no_facing_panels(cx, family):
                        continue
                    cls = classify(cx, family)
                    collapse_checks.check_face_compatibility(cls, whole)
                    collapse_checks.check_extra_cube_bound(cls, whole)
                    instances += 1
        # random complexes with their first panel orbits
        for cx, action, _, _ in descent_runs[0]:
            if instances >= 520:
                break
            panel = find_extremal_panel(cx)
            if panel is None:
                continue
            orbit = action.panel_orbit(panel)
            cls = classify(cx, orbit)
            for m in cx.maximal_cubes():
                collapse_checks.check_face_compatibility(cls, m)
                collapse_checks.check_extra_cube_bound(cls, m)
                instances += 1
        assert instances >= 500


def test_criterion_7_equivariance(descent_runs):
    with criterion(7, "fundaments commute with panel-preserving symmetries"):
        checked = 0
        for cx, action, _, _ in descent_runs[0]:
            if action.order == 1:
                continue
            panel = find_extremal_panel(cx)
            if panel is None:
                continue
            orbit = action.panel_orbit(panel)
            cls = classify(cx, orbit)
            # equivariance under the generators implies it under the group
            for g in action.generators:
                for m in cx.maximal_cubes():
                    f = fundament(cls, m)
                    gf = fundament(cls, g.apply_set(m))
                    assert {
                        g.apply_set(c) for c in f.ordinary_cubes
                    } == set(gf.ordinary_cubes)
                    # separators are the walls the diagonal crosses: they
                    # move with the element too
                    assert {
                        (
                            g.apply_set(p),
                            frozenset(action.wall_image(g, a) for a in s),
                        )
                        for p, s in f.diagonal_pairs()
                    } == set(gf.diagonal_pairs())
                    checked += 1
        assert checked > 0


def test_criterion_8_provenance(descent_runs, cube3, square):
    with criterion(8, "crossing-set provenance on all collapse outputs"):
        results = [
            collapse(cube3, [find_extremal_panel(cube3)]),
            collapse(
                square,
                [build_panel(square, 0, 1, "+"), build_panel(square, 1, 0, "+")],
            ),
        ]
        for _, _, _, steps in descent_runs[0]:
            results.extend(step.result for step in steps)
        for res in results:
            mapping = hyperplane_provenance(res)
            out = res.output_complex
            planes = out.hyperplanes()
            for plane in planes:
                sets = {res.edge_provenance[e] for e in plane.edges}
                assert len(sets) == 1 and next(iter(sets))
            for h, out_ids in mapping.items():
                trace_edges = {
                    e for e in out.edges if h in res.edge_provenance[e]
                }
                class_edges = set()
                for oid in out_ids:
                    class_edges |= set(planes[oid].edges)
                assert trace_edges == class_edges


def test_criterion_9_pocset_pipeline():
    with criterion(9, "wallspace dualization and pipeline", 5.0):
        nested = Wallspace.from_data(
            ["a", "b", "c"], [({"a"}, {"b", "c"}), ({"a", "b"}, {"c"})]
        )
        assert dualize_details(nested).complex.cube_counts == (3, 2)
        for n in (2, 3, 4):
            pts = [
                "p" + "".join(map(str, bits))
                for bits in itertools.product((0, 1), repeat=n)
            ]
            walls = []
            for i in range(n):
                a = frozenset(p for p in pts if p[1 + i] == "0")
                walls.append((a, frozenset(pts) - a))
            cx = dualize_details(Wallspace.from_data(pts, walls)).complex
            assert cx.cube_counts[0] == 2 ** n and cx.dimension == n
        pts = [
            "p" + "".join(map(str, bits))
            for bits in itertools.product((0, 1), repeat=3)
        ]
        walls = []
        for i in range(3):
            a = frozenset(p for p in pts if p[1 + i] == "0")
            walls.append((a, frozenset(pts) - a))
        res = stallings_pipeline(Wallspace.from_data(pts, walls))
        assert res.tree.is_tree()
        assert complexity(res.tree, res.action).is_zero


def test_criterion_10_oracle_equivalence():
    # the sweeps are shared with test_oracle.py, so the budget holds the time
    # they took themselves, whichever test ran them first
    with criterion(10, "fundaments match the brute-force oracle", 120.0) as timing:
        (n2, s2), (n3, s3) = run_dimension(2), run_dimension(3)
        assert (n2, n3) == (81, 343 * 27)
        timing["seconds"] = s2 + s3
