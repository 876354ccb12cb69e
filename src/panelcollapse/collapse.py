"""Cube classification, fundaments, and panel collapse.

Given a family of extremal panels with no facing panels, each edge dual to an
abutting wall on the chosen side is *internal*.  A cube is *internal* when one
of its parallel edge classes is internal to a single panel, *completely
external* when it contains no internal edge, and *external* otherwise.  Read
off a cube's walls and the side of one of its vertices: with S the side s of
E, a cube c is internal when some panel (H, E, s) has H dual to c, E not dual
to c and c inside S; external when some panel has H dual to c and c meeting
S; completely external otherwise.

Every external cube c is replaced by its *fundament* F(c): the union of its
completely external subcubes plus, when the deletion D(c) is disconnected,
diagonal cubes joining the salient subcube to the persistent subcube across
the separating walls.  The collapsed complex keeps every vertex, keeps every
external edge, and gains one diagonal edge per salient vertex of each
disconnected external cube; its cube structure is again the canonical filling
and it validates as CAT(0).

Collapse keeps the vertex set and its order, so the output complex is built on
the input's vertex table from index pairs (``CubeComplex._with_edges``), with
no second sort or edge check, and validated in full.  Every output wall extends
to input walls, so provenance is read off the input masks: an output edge
crosses the input walls that separate its ends, the bits of the XOR of their
masks.
The step builds no per-edge provenance: ``CollapseResult.wall_crossings``
keeps one crossing mask per output wall, checked once, and
``CollapseResult.edge_provenance`` is a view built on first access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .complex import CubeComplex, _bits, _faces, _subsets
from .errors import InternalInvariantError, InvalidComplexError, PreconditionError
from .panels import SIDES, Panel, no_facing_panels

__all__ = [
    "COMPLETELY_EXTERNAL",
    "CollapseResult",
    "CubeClassification",
    "DiagonalCube",
    "EXTERNAL",
    "Fundament",
    "INTERNAL",
    "classify",
    "collapse",
    "fundament",
    "hyperplane_provenance",
    "persistent_subcube",
]

INTERNAL = "internal"
EXTERNAL = "external"
COMPLETELY_EXTERNAL = "completely-external"


class CubeClassification:
    """Edge and cube classification against a fixed panel family.

    The family is indexed once by abutting wall: ``_abutting`` is the mask
    of the abutting walls, and ``_sides[h]`` holds three masks of the
    extremalising walls E of the panels (h, E, s): those with s = -, those
    with s = +, and both.  A panel has an internal edge in a ``(base,
    axes)`` cube exactly when h is an axis and E is an axis or has the cube
    on side s, which is a bit of ``base``.  So a cube's status is a few ANDs
    for each bit of ``axes & _abutting``, and every test is keyed by the
    cube's ``(base, axes)`` pair.
    """

    def __init__(self, cx: CubeComplex, panels):
        # no_facing_panels rejects a member that is not a panel, so it runs
        # before the sort reads the members' keys
        panels = tuple(panels)
        if not no_facing_panels(cx, panels):
            raise PreconditionError("panel family has facing panels")
        self.complex = cx
        self.panels = tuple(sorted(panels, key=Panel.sort_key))
        self._abutting = 0
        self._sides: dict[int, tuple[int, int, int]] = {}
        for p in panels:
            h, e = p.abutting, p.extremalising
            minus, plus, both = self._sides.get(h, (0, 0, 0))
            if p.side == SIDES[0]:
                minus |= 1 << e
            else:
                plus |= 1 << e
            self._sides[h] = minus, plus, both | 1 << e
            self._abutting |= 1 << h
        self._diagonals: dict[tuple[int, int], frozenset] = {}

    @property
    def internal_edges(self) -> frozenset:
        return frozenset().union(*(p.internal_edges for p in self.panels))

    def _status_of(self, cube) -> str:
        """Internal when a panel (h, E, s) has h an axis, E not an axis and
        the cube on side s of E; else external when a panel has h and E
        both axes; else completely external."""
        base, axes = cube
        meets = False
        for h in _bits(axes & self._abutting):
            minus, plus, both = self._sides[h]
            if (minus & ~base | plus & base) & ~axes:
                return INTERNAL
            meets = meets or both & axes != 0
        return EXTERNAL if meets else COMPLETELY_EXTERNAL

    def status(self, cube: frozenset) -> str:
        return self._status_of(self.complex._key(cube))

    def counts(self) -> dict[str, int]:
        out = {INTERNAL: 0, EXTERNAL: 0, COMPLETELY_EXTERNAL: 0}
        for cubes in self.complex._cubes:
            for cube in cubes:
                out[self._status_of(cube)] += 1
        return out


def classify(cx: CubeComplex, panels) -> CubeClassification:
    """Classify all edges and cubes; rejects families with facing panels
    and panels built on another complex."""
    return CubeClassification(cx, panels)


# ---------------------------------------------------------------------------
# persistent and salient subcubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PersistentData:
    persistent: frozenset
    salient: frozenset
    separators: frozenset
    partner: dict = field(compare=False, repr=False)

    @property
    def kappa(self) -> int:
        return len(self.separators)


def _persistent(cls: CubeClassification, cube):
    """The persistent subcube h(c) of a non-internal ``(base, axes)`` cube and
    the mask of its separators.  Every panel meeting c is dual to both its
    walls, and h(c) fixes each extremalising wall to the side other than the
    panel's.  The separators are the extremalising walls that also abut; the
    salient subcube is h(c) with their bits flipped in the base."""
    base, axes = cube
    ones = zeros = abutting = 0
    for h in _bits(axes & cls._abutting):
        minus, plus, both = cls._sides[h]
        ones |= minus & axes
        zeros |= plus & axes
        if both & axes:
            abutting |= 1 << h
    if ones & zeros:
        raise InternalInvariantError(
            f"external cube {set(cls.complex._vertex_set(cube))} has empty "
            "persistent subcube"
        )
    extremalising = ones | zeros
    return (base | ones, axes & ~extremalising), extremalising & abutting


def persistent_subcube(cls: CubeClassification, cube: frozenset) -> PersistentData:
    """The persistent subcube h(c) (intersection of the faces opposite each
    panel meeting c), its salient parallel copy, and the separating walls."""
    key = cls.complex._key(cube)
    if cls._status_of(key) == INTERNAL:
        raise PreconditionError("persistent subcube of an internal cube")
    cx = cls.complex
    (base, axes), flip = _persistent(cls, key)
    order, masks, vertex_of = cx._order, cx._masks, cx._vertex_of
    h = cx._vertex_set((base, axes))
    partner = {v: order[vertex_of[masks[cx._ix[v]] ^ flip]] for v in h}
    return PersistentData(
        persistent=h,
        salient=cx._vertex_set((base ^ flip, axes)),
        separators=frozenset(_bits(flip)),
        partner=partner,
    )


# ---------------------------------------------------------------------------
# fundaments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalCube:
    """A diagonal piece S(w): a completely external subcube w of the salient
    cube joined to its partner across the separating walls."""

    salient_cube: frozenset
    persistent_cube: frozenset
    separators: frozenset
    pairs: tuple  # (salient vertex, persistent vertex) pairs


@dataclass(frozen=True)
class Fundament:
    """The subspace replacing a cube after collapse.

    ``ordinary_cubes`` is every completely external subcube; ``diagonals``
    carries the S(w) pieces gathered from this cube and, recursively, from its
    external codimension-1 faces.
    """

    cube: frozenset
    status: str
    d_connected: bool
    persistent: frozenset | None
    salient: frozenset | None
    separators: frozenset
    ordinary_cubes: frozenset
    diagonals: frozenset

    def diagonal_pairs(self) -> frozenset:
        """Deduplicated diagonal edges as (vertex pair frozenset, separators)."""
        out = set()
        for d in self.diagonals:
            for a, b in d.pairs:
                out.add((frozenset((a, b)), d.separators))
        return frozenset(out)


def _deletion_connected(cls: CubeClassification, cube) -> bool:
    """Whether the union of completely external subcubes is connected; it
    holds every vertex ``base | s``, so search the subsets s of the axes
    along external edges."""
    base, axes = cube
    seen = {0}
    reached = [0]
    for s in reached:
        for h in _bits(axes):
            bit = 1 << h
            edge = (base | (s & ~bit), bit)
            if s ^ bit not in seen and cls._status_of(edge) != INTERNAL:
                seen.add(s ^ bit)
                reached.append(s ^ bit)
    return len(seen) == 1 << axes.bit_count()


def _fundament_diagonals(cls: CubeClassification, cube) -> frozenset:
    """The diagonal pieces of the fundament of a ``(base, axes)`` cube, as
    ``(salient subcube, separator mask)`` pairs; memoized on the
    classification.  Internal and deletion-connected cubes have none."""
    cached = cls._diagonals.get(cube)
    if cached is not None:
        return cached
    diagonals = set()
    if cls._status_of(cube) != INTERNAL:
        (pbase, paxes), flip = _persistent(cls, cube)
        if not _deletion_connected(cls, cube):
            # pieces of the external codimension-1 faces (those meeting the
            # persistent subcube, equivalently those with a persistent corner)
            for fbase, faxes in _faces(cube, cube[1].bit_count() - 1):
                if not (fbase ^ pbase) & ~faxes & ~paxes:
                    diagonals |= _fundament_diagonals(cls, (fbase, faxes))
            # S(w) for each completely external subcube w of the salient
            # cube; with fewer than two separators these degenerate to
            # ordinary cubes
            if flip.bit_count() >= 2:
                for w in _faces((pbase ^ flip, paxes)):
                    if cls._status_of(w) == COMPLETELY_EXTERNAL:
                        diagonals.add((w, flip))
    cached = cls._diagonals[cube] = frozenset(diagonals)
    return cached


def _diagonal_cube(cx: CubeComplex, w, flip) -> DiagonalCube:
    (base, axes), order, vertex_of = w, cx._order, cx._vertex_of
    pairs = sorted(
        (vertex_of[base | s], vertex_of[(base | s) ^ flip]) for s in _subsets(axes)
    )
    return DiagonalCube(
        salient_cube=cx._vertex_set(w),
        persistent_cube=cx._vertex_set((base ^ flip, axes)),
        separators=frozenset(_bits(flip)),
        pairs=tuple((order[a], order[b]) for a, b in pairs),
    )


def fundament(cls: CubeClassification, cube: frozenset) -> Fundament:
    """Fundament of a cube."""
    cx = cls.complex
    key = cx._key(cube)
    status = cls._status_of(key)
    pd = None if status == INTERNAL else persistent_subcube(cls, cube)
    return Fundament(
        cube=cube,
        status=status,
        d_connected=_deletion_connected(cls, key),
        persistent=pd.persistent if pd else None,
        salient=pd.salient if pd else None,
        separators=pd.separators if pd else frozenset(),
        ordinary_cubes=frozenset(
            cx._vertex_set(f)
            for f in _faces(key)
            if cls._status_of(f) == COMPLETELY_EXTERNAL
        ),
        diagonals=frozenset(
            _diagonal_cube(cx, w, flip) for w, flip in _fundament_diagonals(cls, key)
        ),
    )


# ---------------------------------------------------------------------------
# collapse of the whole complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollapseResult:
    """Outcome of one panel collapse: a complex on the same vertex set, so
    the same vertex indices, whose edges cross the input walls separating
    their ends."""

    input_complex: CubeComplex = field(repr=False)
    output_complex: CubeComplex = field(repr=False)
    panels: tuple
    diagonal_edges: frozenset

    @functools.cached_property
    def edge_provenance(self) -> dict:
        """Each output edge key -> the input walls it crosses: the bits of
        the XOR of its ends' input masks."""
        masks, order = self.input_complex._masks, self.output_complex._order
        return {
            (order[a], order[b]): frozenset(_bits(masks[a] ^ masks[b]))
            for a, b in self.output_complex._int_edges
        }

    @functools.cached_property
    def wall_crossings(self) -> tuple[int, ...]:
        """Each output wall -> the mask of input walls its edges cross.

        Enforces the provenance invariant: within an output wall every edge
        carries the same input crossing set, the XOR of its ends' input
        masks, and that set is nonempty.
        """
        masks = self.input_complex._masks
        out = []
        for out_id, edges in enumerate(self.output_complex._wall_edges):
            flips = {masks[a] ^ masks[b] for a, b in edges}
            if len(flips) != 1:
                raise InternalInvariantError(
                    f"output hyperplane {out_id} mixes crossing sets "
                    f"{sorted(list(_bits(f)) for f in flips)}"
                )
            (flip,) = flips
            if not flip:
                raise InternalInvariantError(
                    f"output hyperplane {out_id} has an empty crossing set"
                )
            out.append(flip)
        return tuple(out)

    def provenance_lines(self) -> list[str]:
        from .fileio import format_provenance

        return format_provenance(self.output_complex, self.edge_provenance)


def collapse(cx: CubeComplex, panels) -> CollapseResult:
    """Collapse a family of extremal panels with no facing panels.

    The output keeps the vertex set; its edges are the external input edges
    plus the diagonal edges of the fundaments of the external maximal cubes
    (a completely external cube is its own fundament, with no diagonals).
    An edge is internal exactly when it is an internal edge of a panel.  A
    failure of the output to validate is reported as an internal invariant
    breach: the construction guarantees a CAT(0) result.  Edges are kept as
    index pairs throughout: the output is built on the input's vertex table
    by ``CubeComplex._with_edges``, which still validates it in full, and
    only the diagonal edges are named, for ``diagonal_edges``.
    """
    cls = classify(cx, panels)
    panels = cls.panels
    internal = set().union(*(p._edges for p in panels))
    vertex_of = cx._vertex_of
    diagonals = set()
    for m in cx._maximal_cubes():
        status = cls._status_of(m)
        # internal cubes lie in panels, which are proper faces of block cubes
        if status == INTERNAL:
            raise InternalInvariantError(
                f"maximal cube {set(cx._vertex_set(m))} is internal to a panel"
            )
        if status == COMPLETELY_EXTERNAL:
            continue
        for (base, axes), flip in _fundament_diagonals(cls, m):
            for s in _subsets(axes):
                i, j = vertex_of[base | s], vertex_of[(base | s) ^ flip]
                # the ends differ in the separators, at least two walls, so a
                # diagonal never repeats an input edge
                diagonals.add((i, j) if i < j else (j, i))
    if panels and not internal:
        raise InternalInvariantError("nonempty panel family with no internal edges")

    kept = [e for e in cx._int_edges if e not in internal]
    try:
        out = cx._with_edges(sorted([*kept, *diagonals]))
    except InvalidComplexError as exc:
        raise InternalInvariantError(
            f"collapsed 1-skeleton failed validation: {exc.report.summary()}"
        ) from exc
    order = cx._order
    return CollapseResult(
        input_complex=cx,
        output_complex=out,
        panels=panels,
        diagonal_edges=frozenset([(order[a], order[b]) for a, b in diagonals]),
    )


def hyperplane_provenance(result: CollapseResult) -> dict[int, tuple[int, ...]]:
    """Map each input wall to the output wall classes it decomposes into.

    Enforces the provenance invariant through ``result.wall_crossings``:
    within an output wall class every edge carries the same input crossing
    set, and that set is nonempty.  An edge's crossing set is the XOR of its
    ends' input masks.
    """
    mapping: dict[int, list[int]] = {
        h: [] for h in range(len(result.input_complex._wall_edges))
    }
    for out_id, flip in enumerate(result.wall_crossings):
        for h in _bits(flip):
            mapping[h].append(out_id)
    return {h: tuple(ids) for h, ids in mapping.items()}
