"""Finite wallspaces and their dual CAT(0) cube complexes.

A wallspace is a finite point set with a family of bipartitions (walls).
Only this module decides a wall's canonical form, on the points' canonical
indices: ``_canonical_wall`` puts the side holding the first point first,
and ``Wallspace.from_data`` sorts the walls by their first sides' indices,
so callers may pass walls in any form and points of any type.  Its dual
complex has one vertex per consistent orientation (a choice of one side per
wall, pairwise intersecting) reachable from a principal orientation by
single-wall flips, and an edge between orientations differing on one wall.
An orientation is a bitmask over the walls, bit i picking the second side of
wall i, so a flip is an XOR; whether a flip stays consistent is two mask
tests against a table of the walls each side of each wall misses, and the
wall a dual edge flips is the XOR of its ends.
Dualizing, pushing point symmetries to complex automorphisms, and running the
equivariant collapse driver yields a tree with the induced action; for a
group acting on a space with a finite separating pattern this is the engine
behind splitting the group over the wall stabilisers.  The group is closed
once, for its order, and each wall or tree-edge stabiliser is read off its
orbit under the generators: a tree edge is its own wall, so its orbit is a
wall orbit of the tree's action.  The run itself checks that the tree
edges' origin walls move with the edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complex import MAX_VERTICES, CubeComplex, canonical_vertex_order, vertex_set_text
from .errors import InternalInvariantError, PreconditionError, StructuralError
from .symmetry import (
    Automorphism, GroupAction, RunTrace, push_action, run_to_tree,
)

__all__ = [
    "DualComplexInfo",
    "StallingsResult",
    "Wallspace",
    "dualize_details",
    "stallings_pipeline",
]


def _canonical_wall(points_set, first, wall):
    """A wall's two sides, the side holding the point ``first`` first: the
    one place that orders a wall.  With ``first`` the least point, that is
    the smaller sorted side, found without comparing two points.  Raises
    unless the sides partition the points, and ``TypeError`` or
    ``ValueError`` from unpacking a wall that is not a pair of sides."""
    a, b = map(frozenset, wall)
    if not a or not b:
        raise StructuralError("wall has an empty side")
    if a & b or (a | b) != points_set:
        raise StructuralError(
            "wall sides must partition the points: "
            f"{vertex_set_text(a)} | {vertex_set_text(b)}"
        )
    return (a, b) if first in a else (b, a)


@dataclass(frozen=True)
class Wallspace:
    """Points plus deduplicated walls in canonical form: the points sorted,
    each wall's side holding the first point first, and the walls in the
    order of their first sides' sorted point indices."""

    points: tuple
    walls: tuple  # of (frozenset, frozenset)

    @classmethod
    def from_data(cls, points, walls) -> "Wallspace":
        """Walls are pairs of sides in any order, given in any order."""
        pts = tuple(canonical_vertex_order(points))
        if len(set(pts)) != len(pts):
            raise StructuralError("duplicate points")
        if not pts:
            raise StructuralError("wallspace has no points")
        pset = frozenset(pts)
        sides = {}
        for position, wall in enumerate(walls):
            try:
                a, b = _canonical_wall(pset, pts[0], wall)
            except (TypeError, ValueError):
                # named by position: a set's repr changes with the hash seed
                raise StructuralError(f"wall {position} is not a pair of sides") from None
            if a in sides:
                raise StructuralError(f"duplicate wall {canonical_vertex_order(a)}")
            sides[a] = b
        # the points' indices order the walls whatever the points' types
        index = {p: i for i, p in enumerate(pts)}
        order = sorted(sides, key=lambda a: sorted([index[p] for p in a]))
        return cls(points=pts, walls=tuple([(a, sides[a]) for a in order]))

    @property
    def wall_count(self) -> int:
        return len(self.walls)

    def wall_permutation(self, mapping: dict):
        """How a point permutation acts on walls: (index perm, side swap flags).

        Raises if the mapping names a point outside the space or does not
        send walls to walls.  The image of each side is read as a point mask.
        """
        bit, walls = _side_masks(self)
        unknown = ({*mapping} | {*mapping.values()}) - bit.keys()
        if unknown:
            raise StructuralError(
                f"symmetry mentions unknown points {canonical_vertex_order(unknown)}"
            )
        image = {p: bit[mapping.get(p, p)] for p in self.points}
        first = {a: i for i, (a, _) in enumerate(walls)}
        perm = []
        swaps = []
        for a, b in self.walls:
            ia = ib = 0
            for p in a:
                ia |= image[p]
            for p in b:
                ib |= image[p]
            if ia in first and walls[first[ia]][1] == ib:
                perm.append(first[ia])
                swaps.append(0)
            elif ib in first and walls[first[ib]][1] == ia:
                perm.append(first[ib])
                swaps.append(1)
            else:
                raise StructuralError(
                    "symmetry does not preserve wall "
                    f"{canonical_vertex_order(a)} | {canonical_vertex_order(b)}"
                )
        return tuple(perm), tuple(swaps)


def _side_masks(ws: Wallspace):
    """The bit of each point, ``1 << j`` for ``ws.points[j]``, and each wall
    as the point masks of its two sides."""
    bit = {p: 1 << j for j, p in enumerate(ws.points)}
    everything = (1 << len(bit)) - 1
    walls = []
    for a, _ in ws.walls:
        side = 0
        for p in a:
            side |= bit[p]
        walls.append((side, everything ^ side))
    return bit, walls


# a mask's binary digits, wall 0 last, as the signs of the orientation's sides
_SIGNS = str.maketrans("01", "-+")


def _orientation_name(mask: int, k: int) -> str:
    """``o`` then, for each of the k walls in turn, ``-`` for its first side
    or ``+`` for its second."""
    return "o" + format(mask, f"0{k}b")[::-1].translate(_SIGNS) if k else "o"


@dataclass(frozen=True)
class DualComplexInfo:
    """A wallspace's dual complex and how its parts arise from the walls.
    Built by ``dualize_details``, which passes its own index tables as
    ``_masks`` and ``_vertex_of``; ``orientations`` is derived from them."""

    complex: CubeComplex = field(repr=False)
    wallspace: Wallspace = field(repr=False)
    principal: dict = field(repr=False)  # point -> vertex name
    wall_of_hyperplane: dict  # hyperplane id -> wall index
    _masks: tuple = field(repr=False)  # orientation mask, by vertex index
    _vertex_of: dict = field(repr=False)  # orientation mask -> vertex index

    @property
    def orientations(self) -> dict:
        """The orientation mask of each vertex, by vertex name."""
        return dict(zip(self.complex.vertices, self._masks))


def dualize_details(ws: Wallspace) -> DualComplexInfo:
    """Dual cube complex of a finite wallspace.

    Vertices are the consistent orientations in the flip component of the
    principal orientation of the first point, ``ws.points[0]``; an empty
    wall list yields the one-point complex.  The flip closure stops with a
    PreconditionError once it holds more orientations than a complex may
    have vertices.  Each orientation is named once, the names are sorted
    canonically, and the complex is built from the index pairs of the
    orientations one flip apart, then validated in full.
    """
    k = len(ws.walls)
    bit, walls = _side_masks(ws)
    # each point's principal orientation: bit i set when the point lies on
    # the second side of wall i
    principal_masks = []
    for b in bit.values():
        m = 0
        for i, (a, _) in enumerate(walls):
            if not a & b:
                m |= 1 << i
        principal_masks.append(m)

    # clash[i][s]: the walls whose first, and those whose second, side misses
    # side s of wall i; flipping wall i of a consistent orientation to side s
    # keeps it consistent exactly when the result chooses none of those sides
    clash = []
    for wall in walls:
        row = []
        for side in wall:
            zeros = ones = 0
            for j, (a, b) in enumerate(walls):
                if not side & a:
                    zeros |= 1 << j
                if not side & b:
                    ones |= 1 << j
            row.append((zeros, ones))
        clash.append(row)
    seen = {principal_masks[0]}
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

    # one name per orientation; the names are strings, which
    # canonical_vertex_order sorts as sorted() does
    named = sorted([(_orientation_name(m, k), m) for m in seen])
    order = tuple([name for name, _ in named])
    masks = tuple([m for _, m in named])
    ix = {name: i for i, name in enumerate(order)}
    vertex_of = {m: i for i, m in enumerate(masks)}
    edges = []
    for a, m in enumerate(masks):
        for i in range(k):
            b = vertex_of.get(m | 1 << i)
            if b is not None and not m >> i & 1:
                edges.append((a, b) if a < b else (b, a))
    cx = CubeComplex._from_indexed(order, ix, sorted(edges))

    # every principal orientation should land in the flip component
    principal = {}
    for p, pm in zip(ws.points, principal_masks):
        if pm not in vertex_of:
            raise InternalInvariantError(
                f"principal orientation of point {p!r} is outside the "
                "flip component"
            )
        principal[p] = order[vertex_of[pm]]

    # an edge's ends differ in the wall its hyperplane flips
    wall_of = {}
    for h, wall_edges in enumerate(cx._wall_edges):
        flips = {masks[a] ^ masks[b] for a, b in wall_edges}
        if len(flips) != 1:
            raise InternalInvariantError(
                f"hyperplane {h} flips several walls: "
                f"{sorted(f.bit_length() - 1 for f in flips)}"
            )
        wall_of[h] = flips.pop().bit_length() - 1
    return DualComplexInfo(
        complex=cx,
        wallspace=ws,
        principal=principal,
        wall_of_hyperplane=wall_of,
        _masks=masks,
        _vertex_of=vertex_of,
    )


def symmetry_automorphism(info: DualComplexInfo, mapping: dict) -> Automorphism:
    """Push a wall-preserving point permutation to the dual complex: wall i
    goes to wall ``perm[i]``, its sides swapped when ``swaps[i]``, so each
    orientation mask goes to the mask of its image orientation, and that
    to its vertex index."""
    perm, swaps = info.wallspace.wall_permutation(mapping)
    flip = sum(s << t for s, t in zip(swaps, perm))
    vertex_of = info._vertex_of
    images = []
    for m in info._masks:
        image = flip
        for i, t in enumerate(perm):
            image ^= (m >> i & 1) << t
        if image not in vertex_of:
            raise InternalInvariantError(
                "wallspace symmetry leaves the dual flip component"
            )
        images.append(vertex_of[image])
    return Automorphism(info.complex, tuple(images))


@dataclass(frozen=True)
class StallingsResult:
    """Tree from a wallspace with symmetries, with the stabiliser orders of
    the tree's edges and the dual's walls, each |G| over its orbit's size."""

    wallspace: Wallspace = field(repr=False)
    dual_info: DualComplexInfo = field(repr=False)
    subdivided: bool
    trace: RunTrace = field(repr=False)
    tree: CubeComplex = field(repr=False)
    action: GroupAction = field(repr=False)
    edge_stabiliser_sizes: dict
    wall_stabiliser_sizes: tuple
    group_order: int


def _stabiliser_orders(action: GroupAction, order: int) -> tuple:
    """Each wall's stabiliser order, |G| over the size of its orbit."""
    sizes = [0] * len(action.complex._wall_edges)
    for orbit in action._wall_orbits[0]:
        for h in orbit:
            sizes[h] = order // len(orbit)
    return tuple(sizes)


def stallings_pipeline(ws: Wallspace, symmetries=()) -> StallingsResult:
    """Dualize, push symmetries, subdivide when inverted, collapse to a tree;
    the group is closed once, on the dual, as the subdivision carries it."""
    info = dualize_details(ws)
    cx = info.complex
    gens = [symmetry_automorphism(info, dict(m)) for m in symmetries]
    action = GroupAction(cx, gens)
    order = action.order
    wall_stabs = _stabiliser_orders(action, order)

    subdivided = not action.is_inversion_free
    if subdivided:
        cx, action = push_action(cx, action)

    trace = run_to_tree(cx, action)
    tree = trace.final_complex
    # a tree edge is its own wall, so its stabiliser is read off its wall's
    # orbit; the run has checked that the action carries its origin walls
    sizes, names = _stabiliser_orders(trace.final_action, order), tree.vertices
    return StallingsResult(
        wallspace=ws,
        dual_info=info,
        subdivided=subdivided,
        trace=trace,
        tree=tree,
        action=trace.final_action,
        edge_stabiliser_sizes={
            (names[a], names[b]): sizes[tree._wall_of(a, b)] for a, b in tree._int_edges
        },
        wall_stabiliser_sizes=wall_stabs,
        group_order=order,
    )
