"""Blocks, panels, and extremality.

A pair of crossing walls H, E spans a codimension-2 wall whose carrier is a
*block*.  Each block has four codimension-1 faces, the *panels*; the panel
with abutting wall H, extremalising wall E and side s consists of the closed
cubes that are dual to H, not dual to E, and lie in the side-s halfspace of E.
Its *internal* edges are its H-dual edges.

The pair is *extremal in H on side s* when every H-dual edge on side s of E
lies in a square dual to both H and E; the side-s half of H then sits inside
the carrier of the codimension-2 wall, which is what makes the panel
collapsible.  Each such square has exactly one H-edge on each side of E, and
no two of them share an H-edge, so the pair is extremal exactly when the
H-edges on side s of E are as many as the squares dual to H and E.  One pass
of that edge filter decides extremality and yields the panel's internal edges.

A ``Panel`` keeps its complex, its internal edges as vertex-index pairs and
its vertices as a bitmask over vertex indices.  The collapse step reads only
these and the complex's tables: two panels are disjoint when their vertex
masks do not meet, and their blocks share a maximal cube when some maximal
cube is dual to all four of their walls.  The vertex-name views
(``internal_edges``, ``vertex_set``, ``cube_set``, ``block``) are built on
first access.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .complex import CubeComplex, _bits, _same_complex
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

SIDES = ("-", "+")


def codim2_hyperplanes(cx: CubeComplex) -> tuple[tuple[int, int], ...]:
    """Unordered pairs of walls that cross (share a square)."""
    return cx._crossing_pairs


def hyperplanes_cross(cx: CubeComplex, h: int, e: int) -> bool:
    return (min(h, e), max(h, e)) in cx._square_counts


def _panel(cx: CubeComplex, h: int, e: int, side: str):
    """The panel (H, E, side) when the pair is extremal there, else None:
    H's edges on side s of E, when they are as many as the squares dual to
    H and E."""
    if side not in SIDES:
        raise PreconditionError(f"side must be one of {SIDES}, got {side!r}")
    if not hyperplanes_cross(cx, h, e):
        raise PreconditionError(f"hyperplanes {h} and {e} do not cross")
    bit, masks = SIDES.index(side), cx._masks
    edges = tuple((a, b) for a, b in cx._wall_edges[h] if masks[a] >> e & 1 == bit)
    if len(edges) != cx._square_counts[min(h, e), max(h, e)]:
        return None
    vertex_mask = 0
    for a, b in edges:
        vertex_mask |= 1 << a | 1 << b
    return Panel(h, e, side, cx, edges, vertex_mask)


def is_extremal(cx: CubeComplex, h: int, e: int, side: str) -> bool:
    """Whether the codimension-2 wall H∩E is extremal in H on the given side
    of E: the side-s halfspace of the wall-complex of H must lie inside the
    carrier of H∩E there."""
    return _panel(cx, h, e, side) is not None


@dataclass(frozen=True)
class Block:
    """Carrier of a codimension-2 wall: the cubes dual to both walls."""

    first: int
    second: int
    maximal_cubes: frozenset

    @property
    def panel_descriptors(self) -> tuple[tuple[int, int, str], ...]:
        """The four (abutting, extremalising, side) faces of the block."""
        return (
            (self.first, self.second, "-"),
            (self.first, self.second, "+"),
            (self.second, self.first, "-"),
            (self.second, self.first, "+"),
        )


def block(cx: CubeComplex, h: int, e: int) -> Block:
    """The block of H∩E: a cube dual to both walls is maximal among such
    cubes exactly when it is a maximal cube of the complex."""
    if not hyperplanes_cross(cx, h, e):
        raise PreconditionError(f"hyperplanes {h} and {e} do not cross")
    a, b = sorted((h, e))
    both = 1 << a | 1 << b
    maximal = frozenset(
        cx._vertex_set(c) for c in cx._maximal_cubes() if c[1] & both == both
    )
    return Block(first=a, second=b, maximal_cubes=maximal)


@dataclass(frozen=True)
class Panel:
    """An extremal panel.  Identity is the triple (abutting, extremalising,
    side): the same subcomplex can be a panel in several ways.

    Built by ``_panel`` only.  ``_edges`` holds the internal edges as
    vertex-index pairs of ``complex`` and ``_vertex_mask`` has bit i set for
    each vertex i they touch.  The views ``internal_edges`` (edge keys),
    ``vertex_set``, ``cube_set`` (the panel's cubes of dimension at least 1)
    and ``block`` are built from them on first access and cached.
    """

    abutting: int
    extremalising: int
    side: str
    complex: CubeComplex = field(compare=False, repr=False)
    _edges: tuple = field(compare=False, repr=False)
    _vertex_mask: int = field(compare=False, repr=False)

    @property
    def triple(self) -> tuple[int, int, str]:
        return (self.abutting, self.extremalising, self.side)

    def sort_key(self):
        return (self.abutting, self.extremalising, SIDES.index(self.side))

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
        bit = SIDES.index(self.side)
        return frozenset(
            cx._vertex_set((base, axes))
            for cubes in cx._cubes[1:]
            for base, axes in cubes
            if axes >> h & 1 and not axes >> e & 1 and base >> e & 1 == bit
        )

    @functools.cached_property
    def block(self) -> Block:
        return block(self.complex, self.abutting, self.extremalising)


def build_panel(cx: CubeComplex, h: int, e: int, side: str) -> Panel:
    """The extremal panel abutted by H, extremalised by E, on one side of E;
    raises unless the pair is extremal there."""
    panel = _panel(cx, h, e, side)
    if panel is None:
        raise PreconditionError(
            f"hyperplane pair ({h}, {e}) is not extremal on side {side!r}"
        )
    return panel


def _extremal_walk(cx: CubeComplex):
    """Every extremal panel, lazily, in canonical (abutting, extremalising,
    side) order."""
    pairs = codim2_hyperplanes(cx)
    for h, e in sorted(itertools.chain(pairs, ((b, a) for a, b in pairs))):
        for side in SIDES:
            panel = _panel(cx, h, e, side)
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
    if panel is None and cx._crossing_pairs:
        raise InternalInvariantError(
            "walls cross but no extremal panel was found in a finite complex"
        )
    return panel


def no_facing_panels(cx: CubeComplex, panels) -> bool:
    """True unless two disjoint panels of the family have blocks sharing a
    maximal cube (such a pair would get collapsed toward each other).  The
    block of (H, E) holds the maximal cubes dual to both walls, so two blocks
    share one exactly when a maximal cube is dual to all four walls.  Raises
    for a panel built on another complex."""
    panels = list(panels)
    for other in {p.complex for p in panels} - {cx}:
        if not _same_complex(other, cx):
            raise PreconditionError("panel family was built on another complex")
    maximal = cx._maximal_cubes()
    for p, q in itertools.combinations(panels, 2):
        if p._vertex_mask & q._vertex_mask:
            continue
        walls = (
            1 << p.abutting | 1 << p.extremalising
            | 1 << q.abutting | 1 << q.extremalising
        )
        if any(axes & walls == walls for _, axes in maximal):
            return False
    return True
