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
and it validates as CAT(0).  A fundament keeps one diagonal record per
contributing cube, its salient subcube and separator mask.  One walk
(``_fundament_diagonals``) builds the records from any set of root cubes,
visiting each external face once with no memo; ``collapse`` runs it once on
all the external maximal cubes it visits, and ``fundament`` on one cube.  One
helper (``_pairs``) expands a record into its index pairs, every vertex of the
salient subcube and its partner across the mask: ``collapse`` adds them as
diagonal edges, and ``fundament`` lists the record's pieces S(w), one per
completely external face w of the salient subcube.  Only the maximal cubes
with an abutting wall among their axes can be external, and they are found at
the upper ends of those walls' edges: the rest of the complex is not visited.
Whether a cube's deletion D(c) is connected is searched on one integer holding
its 2^d corners as bits: each axis has a bitset of the corners whose edge
along it is external, and the reached set grows along all axes at once.

Collapse keeps the vertex set and its order, so the output complex is built on
the input's vertex table from index pairs (``CubeComplex._from_indexed``),
with no second sort or edge check, and validated in full.  Every output wall
extends to input walls, so provenance is read off the input masks: an output
edge crosses the input walls that separate its ends, the bits of the XOR of
their masks.
The step builds no per-edge provenance: ``CollapseResult.wall_crossings``
keeps one crossing mask per output wall, checked once, and
``CollapseResult.edge_provenance`` is a view of it built on first access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .complex import CubeComplex, _bits, _faces, _subsets, vertex_set_text
from .errors import InternalInvariantError, InvalidComplexError, PreconditionError
from .panels import no_facing_panels

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
]

INTERNAL = "internal"
EXTERNAL = "external"
COMPLETELY_EXTERNAL = "completely-external"


class CubeClassification:
    """Edge and cube classification against a fixed panel family.

    The family is indexed once by abutting wall: ``_abutting`` is the mask
    of the abutting walls, and ``_sides[h]`` is ``[minus, plus]``, the masks
    of the extremalising walls E of the panels (h, E, s) with s = - and
    s = +, indexed by the panel's side bit.  A panel has an internal edge in
    a ``(base, axes)`` cube exactly when h is an axis and E is an axis or
    has the cube on side s, which is a bit of ``base``.  So a cube's status
    is a few ANDs for each bit of ``axes & _abutting``, and every test is
    keyed by the cube's ``(base, axes)`` pair.
    """

    def __init__(self, cx: CubeComplex, panels):
        # no_facing_panels rejects a member that is not a panel, so it runs
        # before the sort compares the members
        panels = tuple(panels)
        if not no_facing_panels(cx, panels):
            raise PreconditionError("panel family has facing panels")
        self.complex = cx
        self.panels = tuple(sorted(panels))
        self._abutting = 0
        self._sides: dict[int, list[int]] = {}
        for p in panels:
            self._sides.setdefault(p.abutting, [0, 0])[p._bit] |= 1 << p.extremalising
            self._abutting |= 1 << p.abutting

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
            minus, plus = self._sides[h]
            if (minus & ~base | plus & base) & ~axes:
                return INTERNAL
            meets = meets or (minus | plus) & axes != 0
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
# fundaments
# ---------------------------------------------------------------------------


def _persistent(cls: CubeClassification, cube):
    """The persistent subcube h(c) of a non-internal ``(base, axes)`` cube and
    the mask of its separators.  Every panel meeting c is dual to both its
    walls, and h(c) fixes each extremalising wall to the side other than the
    panel's.  The separators are the extremalising walls that also abut; the
    salient subcube is h(c) with their bits flipped in the base."""
    base, axes = cube
    ones = zeros = abutting = 0
    for h in _bits(axes & cls._abutting):
        minus, plus = cls._sides[h]
        ones |= minus & axes
        zeros |= plus & axes
        if (minus | plus) & axes:
            abutting |= 1 << h
    if ones & zeros:
        raise InternalInvariantError(
            f"external cube {vertex_set_text(cls.complex._vertex_set(cube))} "
            "has empty persistent subcube"
        )
    extremalising = ones | zeros
    return (base | ones, axes & ~extremalising), extremalising & abutting


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

    ``persistent`` is h(c), ``salient`` its parallel copy across the
    ``separators`` (None, None and empty for an internal cube): the partner
    of a vertex of ``persistent`` is the vertex of ``salient`` across the
    separators.  ``ordinary_cubes`` is every completely external
    subcube; ``diagonals`` carries the S(w) pieces gathered from this cube
    and from the external faces that ``_fundament_diagonals`` walks to.
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


@functools.cache
def _corner_bits(d: int) -> tuple[int, ...]:
    """For each j < d, the bitset of the corners i < 2**d with bit j set."""
    return tuple(
        sum(1 << i for i in range(1 << d) if i >> j & 1) for j in range(d)
    )


def _deletion_connected(cls: CubeClassification, cube) -> bool:
    """Whether the union of completely external subcubes is connected; it
    holds every corner, so search the corners along external edges.

    The search runs on one integer whose bit i stands for the corner with
    the axes at the set bits of i.  The edge along the k-th axis h from
    corner i, bit k of i clear, is internal when a panel (h, E, s) has it on
    side s of E.  With E not an axis that holds for every such edge or for
    none; with E the j-th axis it holds where bit j of i is the side.  So
    each axis has one bitset of the corners whose edge along it is
    external, and the reached set grows along every axis at once, up and
    down, until it stops growing."""
    base, axes = cube
    walls = list(_bits(axes))
    ones = _corner_bits(len(walls))
    full = (1 << (1 << len(walls))) - 1
    moves = []
    for k, h in enumerate(walls):
        starts = full & ~ones[k]
        if cls._abutting >> h & 1:
            minus, plus = cls._sides[h]
            if (minus & ~base | plus & base) & ~axes:
                continue  # every edge along h is internal
            for j, e in enumerate(walls):
                if minus >> e & 1:
                    starts &= ones[j]
                if plus >> e & 1:
                    starts &= ~ones[j]
        moves.append((starts, 1 << k))
    reached, last = 1, 0
    while reached != last:
        last = reached
        for starts, shift in moves:
            reached |= (reached & starts) << shift | (reached >> shift) & starts
    return reached == full


def _fundament_diagonals(cls: CubeClassification, cubes) -> set:
    """The diagonal records of the fundaments of the ``(base, axes)`` cubes
    ``cubes``, as ``(salient subcube, separator mask)`` pairs: one for each
    contributing cube that the walk reaches from them.  Internal, completely
    external and deletion-connected cubes contribute none and are not
    walked past; a disconnected external cube hands on its external
    codimension-1 faces, and with fewer than two separators its diagonal
    pieces degenerate to ordinary cubes.  One ``seen`` set covers every
    root, so a face that several cubes share is visited once.  A record
    stands for the pieces S(w), w a completely external face of the salient
    cube; each of its vertices is such a face, so the record's diagonal
    edges join every vertex of the salient cube to its partner across the
    mask."""
    records = set()
    todo = list(cubes)
    seen = set(todo)
    while todo:
        cube = todo.pop()
        # an internal cube has no fundament diagonals, and a completely
        # external cube's deletion is the whole cube
        if cls._status_of(cube) != EXTERNAL:
            continue
        (pbase, paxes), flip = _persistent(cls, cube)
        if _deletion_connected(cls, cube):
            continue
        # the external codimension-1 faces are those meeting the persistent
        # subcube, equivalently those with a persistent corner
        for face in _faces(cube, cube[1].bit_count() - 1):
            fbase, faxes = face
            if not (fbase ^ pbase) & ~faxes & ~paxes and face not in seen:
                seen.add(face)
                todo.append(face)
        if flip.bit_count() >= 2:
            records.add(((pbase ^ flip, paxes), flip))
    return records


def _pairs(cx: CubeComplex, w, flip):
    """The index pairs (salient vertex, persistent vertex) of the record
    ``(w, flip)``: each vertex of the salient cube w and its partner across
    the separator mask."""
    (base, axes), vertex_of = w, cx._vertex_of
    return [(vertex_of[base | s], vertex_of[(base | s) ^ flip]) for s in _subsets(axes)]


def _diagonal_cube(cx: CubeComplex, w, flip) -> DiagonalCube:
    (base, axes), order = w, cx._order
    return DiagonalCube(
        salient_cube=cx._vertex_set(w),
        persistent_cube=cx._vertex_set((base ^ flip, axes)),
        separators=frozenset(_bits(flip)),
        pairs=tuple((order[a], order[b]) for a, b in sorted(_pairs(cx, w, flip))),
    )


def fundament(cls: CubeClassification, cube: frozenset) -> Fundament:
    """Fundament of a cube."""
    cx = cls.complex
    key = cx._key(cube)
    status = cls._status_of(key)
    persistent = salient = None
    flip = 0
    if status != INTERNAL:
        (base, axes), flip = _persistent(cls, key)
        persistent = cx._vertex_set((base, axes))
        salient = cx._vertex_set((base ^ flip, axes))
    return Fundament(
        cube=cube,
        status=status,
        d_connected=_deletion_connected(cls, key),
        persistent=persistent,
        salient=salient,
        separators=frozenset(_bits(flip)),
        ordinary_cubes=frozenset(
            cx._vertex_set(f)
            for f in _faces(key)
            if cls._status_of(f) == COMPLETELY_EXTERNAL
        ),
        diagonals=frozenset(
            _diagonal_cube(cx, w, mask)
            for salient_cube, mask in _fundament_diagonals(cls, [key])
            for w in _faces(salient_cube)
            if cls._status_of(w) == COMPLETELY_EXTERNAL
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
    # the classification the collapse ran on, read again by the symmetric step
    _classification: CubeClassification | None = field(
        default=None, compare=False, repr=False
    )

    @functools.cached_property
    def edge_provenance(self) -> dict:
        """Each output edge key -> the input walls it crosses: the crossing
        set of its output wall, read off ``wall_crossings``, which checks
        it."""
        out = self.output_complex
        crossed = [frozenset(_bits(flip)) for flip in self.wall_crossings]
        return {
            (out._order[a], out._order[b]): crossed[out._wall_of(a, b)]
            for a, b in out._int_edges
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
    Only the maximal cubes across the abutting walls are visited
    (``CubeComplex._maximal_cubes_across``): a cube with no abutting wall
    among its axes holds no panel's edge, so it is completely external.
    An edge is internal exactly when it is an internal edge of a panel.  A
    failure of the output to validate is reported as an internal invariant
    breach: the construction guarantees a CAT(0) result.  Edges are kept as
    index pairs throughout: the output is built on the input's vertex table
    by ``CubeComplex._from_indexed``, which still validates it in full, and
    only the diagonal edges are named, for ``diagonal_edges``.
    """
    cls = classify(cx, panels)
    panels = cls.panels
    internal = set().union(*(p._edges for p in panels))
    external = []
    for m in cx._maximal_cubes_across(cls._abutting):
        status = cls._status_of(m)
        # internal cubes lie in panels, which are proper faces of block cubes
        if status == INTERNAL:
            raise InternalInvariantError(
                f"maximal cube {vertex_set_text(cx._vertex_set(m))} is internal "
                "to a panel"
            )
        if status == EXTERNAL:
            external.append(m)
    diagonals = set()
    for w, flip in _fundament_diagonals(cls, external):
        # the ends differ in the separators, at least two walls, so a
        # diagonal never repeats an input edge
        diagonals.update((i, j) if i < j else (j, i) for i, j in _pairs(cx, w, flip))
    if panels and not internal:
        raise InternalInvariantError("nonempty panel family with no internal edges")

    kept = [e for e in cx._int_edges if e not in internal]
    edges = sorted([*kept, *diagonals])
    try:
        out = CubeComplex._from_indexed(cx._order, cx._ix, edges)
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
        _classification=cls,
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
