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
"""

from __future__ import annotations

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
    """Edge and cube classification against a fixed panel family.  The
    caches and every test are keyed by a cube's ``(base, axes)`` pair."""

    def __init__(self, cx: CubeComplex, panels):
        panels = tuple(sorted(panels, key=Panel.sort_key))
        for p in panels:
            if not isinstance(p, Panel):
                raise PreconditionError(f"not a panel: {p!r}")
        if not no_facing_panels(cx, panels):
            raise PreconditionError("panel family has facing panels")
        self.complex = cx
        self.panels = panels
        self._triples = [
            (p.abutting, p.extremalising, SIDES.index(p.side)) for p in panels
        ]
        self._status: dict[tuple[int, int], str] = {}
        self._diagonals: dict[tuple[int, int], frozenset] = {}

    @property
    def internal_edges(self) -> frozenset:
        return frozenset().union(*(p.internal_edges for p in self.panels))

    def edge_internal(self, edge) -> bool:
        return self.status(frozenset(edge)) == INTERNAL

    def _meeting(self, cube):
        """The (abutting, extremalising, side bit) triples of the panels with
        an internal edge in a ``(base, axes)`` cube: H is an axis, and E is
        an axis or has the cube on side s."""
        base, axes = cube
        return [
            (h, e, bit)
            for h, e, bit in self._triples
            if axes >> h & 1 and (axes >> e & 1 or base >> e & 1 == bit)
        ]

    def _status_of(self, cube) -> str:
        cached = self._status.get(cube)
        if cached is None:
            meeting = self._meeting(cube)
            if any(not cube[1] >> e & 1 for _, e, _ in meeting):
                cached = INTERNAL
            else:
                cached = EXTERNAL if meeting else COMPLETELY_EXTERNAL
            self._status[cube] = cached
        return cached

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
    meeting = cls._meeting(cube)
    ones = sum({1 << e for _, e, bit in meeting if not bit})
    zeros = sum({1 << e for _, e, bit in meeting if bit})
    abutting = sum({1 << h for h, _, _ in meeting})
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

    @property
    def kappa(self) -> int:
        return len(self.separators)


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

    @property
    def kappa(self) -> int:
        return len(self.separators)

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
    """Outcome of one panel collapse: a complex on the same vertex set, with
    per-edge crossing sets into the walls of the input complex."""

    input_complex: CubeComplex = field(repr=False)
    output_complex: CubeComplex = field(repr=False)
    panels: tuple
    edge_provenance: dict = field(repr=False)
    diagonal_edges: frozenset

    def crossing_of(self, u, v) -> frozenset:
        return self.edge_provenance[self.output_complex.edge_key(u, v)]

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
    breach: the construction guarantees a CAT(0) result.
    """
    panels = tuple(sorted(panels, key=Panel.sort_key))
    cls = classify(cx, panels)
    internal = set().union(*(p._edges for p in panels))
    order, vertex_of = cx._order, cx._vertex_of
    provenance = {
        (order[a], order[b]): frozenset({cx._wall_of(a, b)})
        for a, b in cx._int_edges
        if (a, b) not in internal
    }
    diag: dict[tuple, frozenset] = {}
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
            separators = frozenset(_bits(flip))
            for s in _subsets(axes):
                i, j = sorted((vertex_of[base | s], vertex_of[(base | s) ^ flip]))
                # the separators of a pair are the walls between its ends,
                # at least two, so a diagonal never repeats an input edge
                diag[order[i], order[j]] = separators
    if panels and not internal:
        raise InternalInvariantError("nonempty panel family with no internal edges")

    edges = list(provenance) + sorted(diag)
    try:
        out = CubeComplex(cx.vertices, edges)
    except InvalidComplexError as exc:
        raise InternalInvariantError(
            f"collapsed 1-skeleton failed validation: {exc.report.summary()}"
        ) from exc
    provenance.update(diag)
    return CollapseResult(
        input_complex=cx,
        output_complex=out,
        panels=panels,
        edge_provenance=provenance,
        diagonal_edges=frozenset(diag),
    )


def hyperplane_provenance(result: CollapseResult) -> dict[int, tuple[int, ...]]:
    """Map each input wall to the output wall classes it decomposes into.

    Enforces the provenance invariant: within an output wall class every edge
    carries the same input crossing set, and that set is nonempty.
    """
    out = result.output_complex
    order = out.vertices
    class_sets = {}
    for out_id, edges in enumerate(out._wall_edges):
        sets = {result.edge_provenance[order[a], order[b]] for a, b in edges}
        if len(sets) != 1:
            raise InternalInvariantError(
                f"output hyperplane {out_id} mixes crossing sets "
                f"{sorted(map(sorted, sets))}"
            )
        common = next(iter(sets))
        if not common:
            raise InternalInvariantError(
                f"output hyperplane {out_id} has an empty crossing set"
            )
        class_sets[out_id] = common
    mapping: dict[int, list[int]] = {
        h: [] for h in range(len(result.input_complex._wall_edges))
    }
    for out_id, common in class_sets.items():
        for h in common:
            mapping[h].append(out_id)
    return {h: tuple(sorted(ids)) for h, ids in mapping.items()}
