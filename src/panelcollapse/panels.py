"""Blocks, panels, and extremality.

A pair of crossing walls H, E spans a codimension-2 wall whose carrier is a
*block*.  Each block has four codimension-1 faces, the *panels*; the panel
with abutting wall H, extremalising wall E and side s consists of the closed
cubes that are dual to H, not dual to E, and lie in the side-s halfspace of E.
Its *internal* edges are its H-dual edges.

The pair is *extremal in H on side s* when the side-s half of H lies in the
carrier of the codimension-2 wall H∩E, which is what makes the panel
collapsible: every H-dual edge (a, b) on side s of E lies in a square dual to
both H and E.  That square is the edge with its copy across E, whose ends
have the masks of a and b with E's bit flipped; in a median graph two
vertices whose masks differ in one bit are adjacent, so the edge lies in
such a square exactly when both flipped masks are vertices, and as H and E
cross, a's flipped mask being a vertex forces b's.  One pass over H's edges
decides extremality and yields the panel's internal edges.

The canonical walk over extremal panels reads the mask of the walls crossing
each wall, which the complex keeps from its build, so a step sorts no pairs.

A ``Panel`` keeps its complex, its side as a bit (0 minus, 1 plus), whose
field order is the canonical order, its internal edges as vertex-index pairs
and its vertices as a bitmask over vertex indices.  The collapse step reads
only these and the complex's tables: two panels are disjoint when their vertex
masks do not meet, and their blocks share a maximal cube when their walls
pairwise cross.  The vertex-name views (``internal_edges``, ``vertex_set``,
``cube_set``, ``block``) are built on first access.  A side string is read
only by the entry points ``build_panel`` and ``is_extremal``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .complex import SIDES, CubeComplex, _bits, _same_complex, _side_bit
from .errors import InternalInvariantError, PreconditionError

__all__ = [
    "Block",
    "Panel",
    "SIDES",
    "build_panel",
    "codim2_hyperplanes",
    "extremal_panels",
    "find_extremal_panel",
    "is_extremal",
    "no_facing_panels",
]

def codim2_hyperplanes(cx: CubeComplex) -> tuple[tuple[int, int], ...]:
    """Unordered pairs of walls that cross (share a square), as ``(h, e)``
    with ``h < e``, in order."""
    return tuple(
        (h, e) for h, walls in enumerate(cx._crossing) for e in _bits(walls) if e > h
    )


def _require_crossing(cx: CubeComplex, h: int, e: int) -> None:
    """Raise unless walls h and e share a square; both must name walls."""
    if not cx._crossing[h] >> e & 1:
        raise PreconditionError(f"hyperplanes {h} and {e} do not cross")


def _panel(cx: CubeComplex, h: int, e: int, bit: int):
    """The panel (H, E, bit) of crossing walls when extremal there, else
    None: H's edges on side ``bit`` of E, when each has its copy across E.

    One end's copy decides the edge's.  If a, b = a^H and a^E are vertices,
    so is a^H^E: the edges at a across the crossing walls H and E span a
    square, since crossing walls do not inter-osculate, and its fourth
    corner is b's copy.  So only a's copy is looked up."""
    masks, vertex_of, flip = cx._masks, cx._vertex_of, 1 << e
    edges = tuple((a, b) for a, b in cx._wall_edges[h] if masks[a] >> e & 1 == bit)
    vertex_mask = 0
    for a, b in edges:
        if masks[a] ^ flip not in vertex_of:
            return None
        vertex_mask |= 1 << a | 1 << b
    return Panel(h, e, bit, cx, edges, vertex_mask)


def is_extremal(cx: CubeComplex, h: int, e: int, side: str) -> bool:
    """Whether the codimension-2 wall H∩E is extremal in H on the given side
    of E: the side-s halfspace of the wall-complex of H must lie inside the
    carrier of H∩E there."""
    cx._require_walls(h, e)
    bit = _side_bit(side)
    _require_crossing(cx, h, e)
    return _panel(cx, h, e, bit) is not None


@dataclass(frozen=True)
class Block:
    """Carrier of a codimension-2 wall: the cubes dual to both walls."""

    first: int
    second: int
    maximal_cubes: frozenset


def block(cx: CubeComplex, h: int, e: int) -> Block:
    """The block of H∩E: a cube dual to both walls is maximal among such
    cubes exactly when it is a maximal cube of the complex."""
    cx._require_walls(h, e)
    _require_crossing(cx, h, e)
    a, b = sorted((h, e))
    both = 1 << a | 1 << b
    maximal = frozenset(
        cx._vertex_set(c) for c in cx._maximal_cubes() if c[1] & both == both
    )
    return Block(first=a, second=b, maximal_cubes=maximal)


@dataclass(frozen=True, order=True)
class Panel:
    """An extremal panel.  Identity is the triple (abutting, extremalising,
    side): the same subcomplex can be a panel in several ways.  The side is
    kept as ``_bit``, 0 minus and 1 plus, so the fields order canonically.

    Built by ``_panel`` only.  ``_edges`` holds the internal edges as
    vertex-index pairs of ``complex`` and ``_vertex_mask`` has bit i set for
    each vertex i they touch.  The views ``internal_edges`` (edge keys),
    ``vertex_set``, ``cube_set`` (the panel's cubes of dimension at least 1)
    and ``block`` are built from them on first access and cached.
    """

    abutting: int
    extremalising: int
    _bit: int
    complex: CubeComplex = field(compare=False, repr=False)
    _edges: tuple = field(compare=False, repr=False)
    _vertex_mask: int = field(compare=False, repr=False)

    @property
    def side(self) -> str:
        return SIDES[self._bit]

    @property
    def triple(self) -> tuple[int, int, str]:
        return (self.abutting, self.extremalising, self.side)

    def __repr__(self):
        return f"Panel(h{self.abutting}, e{self.extremalising}, {self.side})"

    @functools.cached_property
    def internal_edges(self) -> frozenset:
        order = self.complex._order
        return frozenset((order[a], order[b]) for a, b in self._edges)

    @functools.cached_property
    def vertex_set(self) -> frozenset:
        order = self.complex._order
        return frozenset(order[i] for i in _bits(self._vertex_mask))

    @functools.cached_property
    def cube_set(self) -> frozenset:
        # a cube not dual to E lies on one side of it, read off its base
        cx, h, e = self.complex, self.abutting, self.extremalising
        return frozenset(
            cx._vertex_set((base, axes))
            for base, axes in cx._cubes_across(1 << h)
            if not axes >> e & 1 and base >> e & 1 == self._bit
        )

    @functools.cached_property
    def block(self) -> Block:
        return block(self.complex, self.abutting, self.extremalising)


def build_panel(cx: CubeComplex, h: int, e: int, side: str) -> Panel:
    """The extremal panel abutted by H, extremalised by E, on one side of E;
    raises unless the pair is extremal there."""
    cx._require_walls(h, e)
    bit = _side_bit(side)
    _require_crossing(cx, h, e)
    panel = _panel(cx, h, e, bit)
    if panel is None:
        raise PreconditionError(
            f"hyperplane pair ({h}, {e}) is not extremal on side {side!r}"
        )
    return panel


def _extremal_walk(cx: CubeComplex):
    """Every extremal panel, lazily, in canonical (abutting, extremalising,
    side) order: each wall h ascending, then the walls crossing it, the bits
    of its crossing mask, ascending, then the side bits 0 and 1."""
    for h, crossing in enumerate(cx._crossing):
        for e in _bits(crossing):
            for bit in (0, 1):
                panel = _panel(cx, h, e, bit)
                if panel is not None:
                    yield panel


def extremal_panels(cx: CubeComplex) -> tuple[Panel, ...]:
    """Every extremal panel, in canonical (abutting, extremalising, side)
    order."""
    return tuple(_extremal_walk(cx))


def find_extremal_panel(cx: CubeComplex) -> Panel | None:
    """Deterministic choice: the lowest extremal (H, E, side) triple, the
    first panel of the canonical walk.  Returns None exactly when no two
    walls cross (the complex is a tree)."""
    panel = next(_extremal_walk(cx), None)
    if panel is None and any(cx._crossing):
        raise InternalInvariantError(
            "walls cross but no extremal panel was found in a finite complex"
        )
    return panel


def no_facing_panels(cx: CubeComplex, panels) -> bool:
    """True unless two disjoint panels of the family have blocks sharing a
    maximal cube (such a pair would get collapsed toward each other).  The
    block of (H, E) holds the maximal cubes dual to both walls, so two blocks
    share one exactly when some cube is dual to all four walls.  Walls of a
    CAT(0) cube complex that pairwise cross are dual to a common cube, so
    that is a lookup: the distinct walls among the four pairwise share a
    square.  Raises for a member that is not a panel or was built on another
    complex."""
    panels = list(panels)
    for p in panels:
        if not isinstance(p, Panel):
            raise PreconditionError(f"not a panel: {p!r}")
    for other in {p.complex for p in panels} - {cx}:
        if not _same_complex(other, cx):
            raise PreconditionError("panel family was built on another complex")
    crossing = cx._crossing
    for p, q in itertools.combinations(panels, 2):
        if p._vertex_mask & q._vertex_mask:
            continue
        walls = {p.abutting, p.extremalising, q.abutting, q.extremalising}
        pairs = itertools.combinations(walls, 2)
        if all(crossing[h] >> e & 1 for h, e in pairs):
            return False
    return True
