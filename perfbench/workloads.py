"""Seeded inputs and per-instance runs for the four benchmark workloads.

``generate(workload, seed)`` is the set-up: it makes only raw inputs (vertex
and edge lists, generator dicts, wallspaces).  Building a ``CubeComplex`` and
everything after it happens in ``Instance.run``, which calls the package
through module attributes (``symmetry.run_to_tree``,
``pocset.stallings_pipeline``, ``complex.CubeComplex``) so that the tracer's
wrappers see every call.  ``Instance.check`` verifies the output outside the
timed region and returns what must repeat exactly between passes and runs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from panelcollapse import complex as cplx
from panelcollapse import pocset, symmetry
from panelcollapse.randgen import GeneratorConfig, cyclic_wallspace, random_wallspace

WORKLOADS = ("wallspace_mix", "grid_transpose", "box_symmetric", "build_large")

# wallspace_mix: every instance has at most this many walls.  Four walls
# admit a 4-cube dual whose rotation inverts a wall; its 81-vertex
# subdivision costs about a thousand median instances and turns up in about
# one input in 800, so the time of a pass would depend on the seed.
MAX_WALLS = 3
# Instances per input class (cyclic, rotation inverts a wall, dual
# dimension): the generator's own mix at MAX_WALLS over 20000 draws, scaled
# to 1000 instances and fixed so that every seed has as many of the costly
# classes (an inverted wall of a 3-cube dual means a 27-vertex subdivision)
# as every other.  The 20 costliest instances still do about half the work,
# and how much varies with the seed: at 500 instances the work of a pass
# spread 0.063 (Q3 - Q1 over median) across seeds 1-10.
MIX = {
    (False, False, 1): 346, (False, False, 2): 140, (False, False, 3): 14,
    (True, False, 1): 280, (True, False, 2): 12, (True, False, 3): 98,
    (True, True, 1): 58, (True, True, 2): 32, (True, True, 3): 20,
}

# Every instance takes under a second, so that the host's speed seldom
# changes between the kernel blocks around it (hostspeed.py, NOTES.md).
GRID_SIDE = 6  # grid_transpose: 49 vertices, every step rebuilds all of them
BOXES = ((1,) * 5, (3, 3, 3), (2, 2, 2), (1,) * 4)  # box_symmetric, under S_k
LARGE = ((16, 16), (1,) * 6)  # build_large: 289-vertex grid and the 6-cube


class CheckFailed(Exception):
    """An instance finished but its output is wrong."""


@dataclass(frozen=True)
class Outcome:
    """What an instance must reproduce exactly in every pass and run."""

    digest: str
    steps: int
    cubes: tuple  # cube counts of the input complex, then of the output


@dataclass(frozen=True)
class Instance:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def generate(workload: str, seed: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


# -- raw inputs -----------------------------------------------------------------


def _box(rng, sides):
    """Vertex list, edge list and naming of the box with the given side
    lengths.  Vertices get random increasing integer names in lexicographic
    order, so the package sees the natural vertex order under every seed: a
    random order would change the collapse path and with it the work."""
    points = list(itertools.product(*(range(a + 1) for a in sides)))
    names = dict(zip(points, sorted(rng.sample(range(10 * len(points)), len(points)))))
    edges = []
    for p in points:
        for i, a in enumerate(sides):
            if p[i] < a:
                q = p[:i] + (p[i] + 1,) + p[i + 1 :]
                edges.append((names[p], names[q]) if rng.random() < 0.5 else (names[q], names[p]))
    vertices = list(names.values())
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return vertices, edges, names


def _coordinate_swap(names, i, j) -> dict:
    def swap(p):
        q = list(p)
        q[i], q[j] = q[j], q[i]
        return tuple(q)

    return {names[p]: names[swap(p)] for p in names}


def _cube_counts(sides) -> tuple:
    """Closed form: a k-cube of the box picks k axes to span and a start
    position on each axis."""
    return tuple(
        sum(
            math.prod(sides[i] if i in axes else sides[i] + 1 for i in range(len(sides)))
            for axes in itertools.combinations(range(len(sides)), k)
        )
        for k in range(len(sides) + 1)
    )


# -- runs and checks ------------------------------------------------------------


def _collapse_run(vertices, edges, generators):
    cx = cplx.CubeComplex(vertices, edges)
    return symmetry.run_to_tree(cx, symmetry.GroupAction(cx, generators))


def _check_trace(trace) -> Outcome:
    initial, final = trace.initial_complex, trace.final_complex
    if not final.is_tree():
        raise CheckFailed("final complex is not a tree")
    walls = {h.id for h in initial.hyperplanes()}
    if set(trace.edge_origins) != set(final.edges):
        raise CheckFailed("edge_origins does not cover the edges of the tree")
    for edge, origins in trace.edge_origins.items():
        if not origins or not origins <= walls:
            raise CheckFailed(f"edge {edge!r} has origins {sorted(origins)}")
    limit = sum(initial.cube_counts)
    if trace.step_count > limit:
        raise CheckFailed(f"{trace.step_count} steps exceed the {limit} input cubes")
    return Outcome(
        trace.provenance_digest(), trace.step_count, (initial.cube_counts, final.cube_counts)
    )


def _build_run(vertices, edges):
    cx = cplx.CubeComplex(vertices, edges)
    cx.hyperplanes()
    cx.vertex_signs()
    return cx


def _build_check(sides):
    expected = _cube_counts(sides)

    def check(cx) -> Outcome:
        if cx.cube_counts != expected:
            raise CheckFailed(f"cube counts {cx.cube_counts}, expected {expected}")
        signs = cx.vertex_signs()
        if len(cx.hyperplanes()) != sum(sides) or signs.shape != (cx.n, sum(sides)):
            raise CheckFailed(f"{len(cx.hyperplanes())} walls, expected {sum(sides)}")
        digest = hashlib.sha256(signs.tobytes()).hexdigest()[:12]
        return Outcome(digest, 0, (cx.cube_counts, cx.cube_counts))

    return check


def _stallings_check(result) -> Outcome:
    return _check_trace(result.trace)


# -- workloads ------------------------------------------------------------------


def _dual_dimension(ws) -> int:
    """Largest number of pairwise crossing walls (all four quadrants met)."""
    def cross(w, v):
        return all(a & b for a in w for b in v)

    return max(
        k
        for k in range(1, ws.wall_count + 1)
        for group in itertools.combinations(ws.walls, k)
        if all(cross(w, v) for w, v in itertools.combinations(group, 2))
    )


def _inverts_a_wall(ws, rotate) -> bool:
    """Whether some power of the rotation maps a wall onto itself with its
    sides swapped (the dual action then needs a subdivision)."""
    perm, swaps = ws.wall_permutation(rotate)
    for start in range(len(perm)):
        wall, flipped = start, 0
        while True:
            flipped ^= swaps[wall]
            wall = perm[wall]
            if wall == start:
                break
        if flipped:
            return True
    return False


def _wallspace_mix(rng):
    """Plain random wallspaces alternating with ones closed under a cyclic
    point rotation, drawn until every class of MIX is full; a draw with more
    than MAX_WALLS walls, or of a class already full, is dropped."""
    cfg = GeneratorConfig(max_walls=MAX_WALLS)
    room = dict(MIX)
    out = []
    draws = 0
    while any(room.values()):
        symmetric = draws % 2 == 1
        draws += 1
        ws, rotate = (cyclic_wallspace if symmetric else random_wallspace)(rng, cfg)
        if ws.wall_count > MAX_WALLS:
            continue
        key = (symmetric, symmetric and _inverts_a_wall(ws, rotate), _dual_dimension(ws))
        if not room[key]:
            continue
        room[key] -= 1
        symmetries = [rotate] if symmetric else []
        out.append(
            Instance(
                f"ws{len(out)} points={len(ws.points)} walls={ws.wall_count} "
                f"dim={key[2]} {'cyclic' if symmetric else 'plain'}"
                f"{' inverting' if key[1] else ''}",
                lambda ws=ws, s=symmetries: pocset.stallings_pipeline(ws, s),
                _stallings_check,
            )
        )
    return out


def _grid_transpose(rng):
    vertices, edges, names = _box(rng, (GRID_SIDE, GRID_SIDE))
    gens = [_coordinate_swap(names, 0, 1)]
    return [
        Instance(
            f"grid{GRID_SIDE} transpose",
            lambda: _collapse_run(vertices, edges, gens),
            _check_trace,
        )
    ]


def _box_symmetric(rng):
    out = []
    for sides in BOXES:
        vertices, edges, names = _box(rng, sides)
        # adjacent transpositions along a random axis order generate S_k
        axes = rng.sample(range(len(sides)), len(sides))
        gens = [_coordinate_swap(names, a, b) for a, b in zip(axes, axes[1:])]
        rng.shuffle(gens)
        out.append(
            Instance(
                f"box{'x'.join(map(str, sides))} S{len(sides)}",
                lambda v=vertices, e=edges, g=gens: _collapse_run(v, e, g),
                _check_trace,
            )
        )
    return out


def _build_large(rng):
    out = []
    for sides in LARGE:
        vertices, edges, _ = _box(rng, sides)
        out.append(
            Instance(
                f"build {'x'.join(map(str, sides))}",
                lambda v=vertices, e=edges: _build_run(v, e),
                _build_check(sides),
            )
        )
    return out


_GENERATORS = {
    "wallspace_mix": _wallspace_mix,
    "grid_transpose": _grid_transpose,
    "box_symmetric": _box_symmetric,
    "build_large": _build_large,
}
