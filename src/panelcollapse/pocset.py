"""Finite wallspaces and their dual CAT(0) cube complexes.

A wallspace is a finite point set with a family of bipartitions (walls).  Its
dual complex has one vertex per consistent orientation (a choice of one side
per wall, pairwise intersecting) reachable from a principal orientation by
single-wall flips, and an edge between orientations differing on one wall.
An orientation is a bitmask over the walls, bit i picking the second side of
wall i, so a flip is an XOR; whether a flip stays consistent is two mask
tests against a table of the walls each side of each wall misses, and the
wall a dual edge flips is the XOR of its ends.
Dualizing, pushing point symmetries to complex automorphisms, and running the
equivariant collapse driver yields a tree with the induced action; for a
group acting on a space with a finite separating pattern this is the engine
behind splitting the group over the wall stabilisers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complex import MAX_VERTICES, CubeComplex, canonical_vertex_order
from .errors import InternalInvariantError, PreconditionError, StructuralError
from .symmetry import (
    Automorphism,
    GroupAction,
    RunTrace,
    push_action,
    run_to_tree,
)

__all__ = [
    "DualComplexInfo",
    "StallingsResult",
    "Wallspace",
    "dualize",
    "dualize_details",
    "stallings_pipeline",
]


def _canonical_wall(points_set, side_a, side_b):
    a, b = frozenset(side_a), frozenset(side_b)
    if not a or not b:
        raise StructuralError("wall has an empty side")
    if a & b or (a | b) != points_set:
        raise StructuralError(f"wall sides must partition the points: {a} | {b}")
    ka = tuple(canonical_vertex_order(a))
    kb = tuple(canonical_vertex_order(b))
    return (a, b) if ka <= kb else (b, a)


@dataclass(frozen=True)
class Wallspace:
    """Points plus deduplicated walls, each stored smaller side first."""

    points: tuple
    walls: tuple  # of (frozenset, frozenset)

    @classmethod
    def from_data(cls, points, walls) -> "Wallspace":
        pts = tuple(canonical_vertex_order(points))
        if len(set(pts)) != len(pts):
            raise StructuralError("duplicate points")
        if not pts:
            raise StructuralError("wallspace has no points")
        pset = frozenset(pts)
        canonical = []
        seen = set()
        for a, b in walls:
            w = _canonical_wall(pset, a, b)
            if w in seen:
                raise StructuralError(f"duplicate wall {sorted(w[0])}")
            seen.add(w)
            canonical.append(w)
        canonical.sort(key=lambda w: (tuple(canonical_vertex_order(w[0])),
                                      tuple(canonical_vertex_order(w[1]))))
        return cls(points=pts, walls=tuple(canonical))

    @property
    def wall_count(self) -> int:
        return len(self.walls)

    def separating(self, p, q) -> tuple[int, ...]:
        """Indices of walls with p and q on opposite sides."""
        out = []
        for i, (a, _) in enumerate(self.walls):
            if (p in a) != (q in a):
                out.append(i)
        return tuple(out)

    def wall_permutation(self, mapping: dict):
        """How a point permutation acts on walls: (index perm, side swap flags).

        Raises if the permutation does not send walls to walls.
        """
        lookup = {w: i for i, w in enumerate(self.walls)}
        perm = []
        swaps = []
        for a, b in self.walls:
            ia = frozenset(mapping.get(p, p) for p in a)
            ib = frozenset(mapping.get(p, p) for p in b)
            if (ia, ib) in lookup:
                perm.append(lookup[(ia, ib)])
                swaps.append(0)
            elif (ib, ia) in lookup:
                perm.append(lookup[(ib, ia)])
                swaps.append(1)
            else:
                raise StructuralError(
                    f"symmetry does not preserve wall {sorted(a)} | {sorted(b)}"
                )
        return tuple(perm), tuple(swaps)


def _orientation_name(mask: int, k: int) -> str:
    return "o" + "".join("+" if mask >> i & 1 else "-" for i in range(k))


@dataclass(frozen=True)
class DualComplexInfo:
    complex: CubeComplex = field(repr=False)
    wallspace: Wallspace = field(repr=False)
    orientations: dict = field(repr=False)  # vertex name -> orientation mask
    principal: dict = field(repr=False)  # point -> vertex name
    wall_of_hyperplane: dict  # hyperplane id -> wall index
    metadata: dict


def dualize(ws: Wallspace) -> CubeComplex:
    return dualize_details(ws).complex


def dualize_details(ws: Wallspace) -> DualComplexInfo:
    """Dual cube complex of a finite wallspace.

    Vertices are the consistent orientations in the flip component of the
    principal orientation of the first point (recorded in the metadata);
    an empty wall list yields the one-point complex.  The flip closure stops
    with a PreconditionError once it holds more orientations than a complex
    may have vertices.
    """
    walls = ws.walls
    k = len(walls)
    base = ws.points[0]

    def orientation(p):
        return sum(1 << i for i, (a, _) in enumerate(walls) if p not in a)

    def missing(side, t):
        return sum(1 << j for j, w in enumerate(walls) if not side & w[t])

    # clash[i][s]: the walls whose first, and those whose second, side misses
    # side s of wall i; flipping wall i of a consistent orientation to side s
    # keeps it consistent exactly when the result chooses none of those sides
    clash = [[(missing(side, 0), missing(side, 1)) for side in wall] for wall in walls]
    seen = {orientation(base)}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for i in range(k):
            flipped = m ^ 1 << i
            zeros, ones = clash[i][flipped >> i & 1]
            if not (zeros & ~flipped or ones & flipped) and flipped not in seen:
                seen.add(flipped)
                if len(seen) > MAX_VERTICES:
                    raise PreconditionError(
                        f"wallspace has more than {MAX_VERTICES} consistent "
                        f"orientations; the limit is {MAX_VERTICES}"
                    )
                frontier.append(flipped)
    # in the order of the side-index tuples, wall 0 first
    orientations = sorted(seen, key=lambda m: format(m, f"0{k}b")[::-1])
    names = {m: _orientation_name(m, k) for m in orientations}
    edges = [
        (names[m], names[m | 1 << i])
        for m in orientations
        for i in range(k)
        if not m >> i & 1 and m | 1 << i in seen
    ]
    cx = CubeComplex(list(names.values()), edges)

    # every principal orientation should land in the flip component
    principal = {}
    for p in ws.points:
        pm = orientation(p)
        if pm not in seen:
            raise InternalInvariantError(
                f"principal orientation of point {p!r} is outside the "
                "flip component"
            )
        principal[p] = names[pm]

    # an edge's ends differ in the wall its hyperplane flips
    order, mask_of = cx.vertices, {names[m]: m for m in orientations}
    wall_of = {}
    for h, wall_edges in enumerate(cx._wall_edges):
        flips = {mask_of[order[a]] ^ mask_of[order[b]] for a, b in wall_edges}
        if len(flips) != 1:
            raise InternalInvariantError(
                f"hyperplane {h} flips several walls: "
                f"{sorted(f.bit_length() - 1 for f in flips)}"
            )
        wall_of[h] = flips.pop().bit_length() - 1
    return DualComplexInfo(
        complex=cx,
        wallspace=ws,
        orientations=mask_of,
        principal=principal,
        wall_of_hyperplane=wall_of,
        metadata={
            "orientation_policy": "flip-component of a principal orientation",
            "base_point": base,
            "wall_count": k,
            "realized_walls": len(set(wall_of.values())),
        },
    )


def symmetry_automorphism(info: DualComplexInfo, mapping: dict) -> Automorphism:
    """Push a wall-preserving point permutation to the dual complex."""
    perm, swaps = info.wallspace.wall_permutation(mapping)
    vertex_map = {}
    k = len(perm)
    for name, m in info.orientations.items():
        image = sum((m >> i & 1 ^ swaps[i]) << perm[i] for i in range(k))
        iname = _orientation_name(image, k)
        if iname not in info.orientations:
            raise InternalInvariantError(
                "wallspace symmetry leaves the dual flip component"
            )
        vertex_map[name] = iname
    return Automorphism(info.complex, vertex_map)


@dataclass(frozen=True)
class StallingsResult:
    """Tree produced from a wallspace with symmetries, with the orders of the
    edge stabilisers of the tree and the wall stabilisers of the dual."""

    wallspace: Wallspace = field(repr=False)
    dual_info: DualComplexInfo = field(repr=False)
    subdivided: bool
    trace: RunTrace = field(repr=False)
    tree: CubeComplex = field(repr=False)
    action: GroupAction = field(repr=False)
    edge_stabiliser_sizes: dict
    wall_stabiliser_sizes: tuple
    group_order: int


def stallings_pipeline(ws: Wallspace, symmetries=()) -> StallingsResult:
    """Dualize, push symmetries, subdivide when inverted, collapse to a tree."""
    info = dualize_details(ws)
    cx = info.complex
    gens = [symmetry_automorphism(info, dict(m)) for m in symmetries]
    action = GroupAction(cx, gens)

    wall_stabs = [
        sum(1 for g in action.elements if action.wall_image(g, h) == h)
        for h in range(len(cx._wall_edges))
    ]

    subdivided = False
    if not action.is_inversion_free:
        cx, action = push_action(cx, action)
        subdivided = True

    trace = run_to_tree(cx, action)
    tree = trace.final_complex

    # provenance is equivariant: an element fixing a tree edge maps the
    # walls the edge came from onto themselves
    edge_stabs = {}
    for u, v in tree.edges:
        origins = trace.edge_origins[(u, v)]
        stabiliser = [g for g in action.elements if {g(u), g(v)} == {u, v}]
        for g in stabiliser:
            if {action.wall_image(g, h) for h in origins} != origins:
                raise InternalInvariantError(
                    f"an element fixing edge {(u, v)} moves its origin walls "
                    f"{sorted(origins)}"
                )
        edge_stabs[(u, v)] = len(stabiliser)
    return StallingsResult(
        wallspace=ws,
        dual_info=info,
        subdivided=subdivided,
        trace=trace,
        tree=tree,
        action=trace.final_action,
        edge_stabiliser_sizes=edge_stabs,
        wall_stabiliser_sizes=tuple(wall_stabs),
        group_order=action.order,
    )
