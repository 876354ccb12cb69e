"""Finite wallspaces and their dual CAT(0) cube complexes.

A wallspace is a finite point set with a family of bipartitions (walls).  Its
dual complex has one vertex per consistent orientation (a choice of one side
per wall, pairwise intersecting) reachable from a principal orientation by
single-wall flips, and an edge between orientations differing on one wall.
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


def _orientation_name(bits) -> str:
    return "o" + "".join("+" if b else "-" for b in bits)


@dataclass(frozen=True)
class DualComplexInfo:
    complex: CubeComplex = field(repr=False)
    wallspace: Wallspace = field(repr=False)
    orientations: dict = field(repr=False)  # vertex name -> side-index tuple
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

    # orientation: tuple of 0/1, entry i names side walls[i][bit]
    # disjoint[i][si][j][sj]: chosen sides are disjoint
    def side(i, b):
        return walls[i][b]

    disjoint = [
        [
            [
                [not (side(i, si) & side(j, sj)) for sj in (0, 1)]
                for j in range(k)
            ]
            for si in (0, 1)
        ]
        for i in range(k)
    ]

    def consistent_after_flip(bits, i):
        nb = bits[i] ^ 1
        return all(
            j == i or not disjoint[i][nb][j][bits[j]] for j in range(k)
        )

    principal_bits = tuple(0 if base in side(i, 0) else 1 for i in range(k))
    seen = {principal_bits}
    frontier = [principal_bits]
    while frontier:
        bits = frontier.pop()
        for i in range(k):
            if consistent_after_flip(bits, i):
                flipped = bits[:i] + (bits[i] ^ 1,) + bits[i + 1 :]
                if flipped not in seen:
                    seen.add(flipped)
                    if len(seen) > MAX_VERTICES:
                        raise PreconditionError(
                            f"wallspace has more than {MAX_VERTICES} consistent "
                            f"orientations; the limit is {MAX_VERTICES}"
                        )
                    frontier.append(flipped)
    orientations = sorted(seen)
    names = {bits: _orientation_name(bits) for bits in orientations}
    flip_of = {}  # edge -> index of the wall its two orientations differ on
    for bits in orientations:
        for i in range(k):
            flipped = bits[:i] + (bits[i] ^ 1,) + bits[i + 1 :]
            if flipped in seen and bits < flipped:
                flip_of[names[bits], names[flipped]] = i
    cx = CubeComplex(list(names.values()), flip_of)

    # every principal orientation should land in the flip component
    principal = {}
    for p in ws.points:
        pb = tuple(0 if p in side(i, 0) else 1 for i in range(k))
        if pb not in seen:
            raise InternalInvariantError(
                f"principal orientation of point {p!r} is outside the "
                "flip component"
            )
        principal[p] = names[pb]

    flips = [set() for _ in cx._wall_edges]
    for (u, v), i in flip_of.items():
        flips[cx.dual_hyperplane(u, v)].add(i)
    wall_of = {}
    for h, found in enumerate(flips):
        if len(found) != 1:
            raise InternalInvariantError(
                f"hyperplane {h} flips several walls: {sorted(found)}"
            )
        (wall_of[h],) = found
    by_name = {names[b]: b for b in orientations}
    return DualComplexInfo(
        complex=cx,
        wallspace=ws,
        orientations=by_name,
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
    for name, bits in info.orientations.items():
        image = [0] * len(bits)
        for i, b in enumerate(bits):
            image[perm[i]] = b ^ swaps[i]
        iname = _orientation_name(tuple(image))
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
