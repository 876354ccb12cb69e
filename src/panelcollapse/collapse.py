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

from .complex import CubeComplex
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
    """Edge and cube classification against a fixed panel family."""

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
        self._status: dict[frozenset, str] = {}
        self._fundaments: dict[frozenset, Fundament] = {}

    @property
    def internal_edges(self) -> frozenset:
        return frozenset().union(*(p.internal_edges for p in self.panels))

    def edge_internal(self, edge) -> bool:
        return self.status(frozenset(edge)) == INTERNAL

    def _meeting(self, cube: frozenset):
        """The cube's walls, and the (abutting, extremalising, side bit)
        triples of the panels with an internal edge in the cube."""
        cx = self.complex
        walls = cx.cube_axes(cube)
        mask = cx._masks[cx._ix[next(iter(cube))]]
        return walls, [
            (h, e, bit)
            for h, e, bit in self._triples
            if h in walls and (e in walls or mask >> e & 1 == bit)
        ]

    def status(self, cube: frozenset) -> str:
        cached = self._status.get(cube)
        if cached is None:
            walls, meeting = self._meeting(cube)
            if any(e not in walls for _, e, _ in meeting):
                cached = INTERNAL
            else:
                cached = EXTERNAL if meeting else COMPLETELY_EXTERNAL
            self._status[cube] = cached
        return cached

    def counts(self) -> dict[str, int]:
        out = {INTERNAL: 0, EXTERNAL: 0, COMPLETELY_EXTERNAL: 0}
        for vs in self.complex.all_cube_vertexsets():
            out[self.status(vs)] += 1
        return out


def classify(cx: CubeComplex, panels) -> CubeClassification:
    """Classify all edges and cubes; rejects families with facing panels."""
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


def persistent_subcube(cls: CubeClassification, cube: frozenset) -> PersistentData:
    """The persistent subcube h(c) (intersection of the faces opposite each
    panel meeting c), its salient parallel copy, and the separating walls."""
    if cls.status(cube) == INTERNAL:
        raise PreconditionError("persistent subcube of an internal cube")
    cx = cls.complex
    masks, ix = cx._masks, cx._ix
    # every panel meeting a non-internal cube is dual to both its walls
    _, meeting = cls._meeting(cube)
    h = frozenset(
        v
        for v in cube
        if all(masks[ix[v]] >> e & 1 != bit for _, e, bit in meeting)
    )
    if not h:
        raise InternalInvariantError(
            f"external cube {set(cube)} has empty persistent subcube"
        )
    # h fixes the sides of the extremalising walls; the separators are those
    # of them that are also abutting walls
    separators = frozenset(e for _, e, _ in meeting) & {a for a, _, _ in meeting}
    flip = sum(1 << a for a in separators)
    by_mask = {masks[ix[v]]: v for v in cube}
    partner = {v: by_mask[masks[ix[v]] ^ flip] for v in h}
    salient = frozenset(partner.values())
    return PersistentData(
        persistent=h,
        salient=salient,
        separators=separators,
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


def _deletion_connected(cls: CubeClassification, cube: frozenset) -> bool:
    """Whether the union of completely external subcubes is connected; since
    it contains every vertex, this is connectivity of the external edges."""
    cx = cls.complex
    vs = sorted(cube, key=cx.index)
    adj = {v: [] for v in vs}
    for u, v in cx.cube_edges(cube):
        if not cls.edge_internal((u, v)):
            adj[u].append(v)
            adj[v].append(u)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def fundament(cls: CubeClassification, cube: frozenset) -> Fundament:
    """Fundament of a cube, memoized on the classification."""
    cached = cls._fundaments.get(cube)
    if cached is not None:
        return cached
    cx = cls.complex
    status = cls.status(cube)
    ordinary = frozenset(
        sub
        for sub in cx.subcubes(cube)
        if cls.status(sub) == COMPLETELY_EXTERNAL
    )
    d_conn = _deletion_connected(cls, cube)
    if status == INTERNAL or d_conn:
        pd = None
        if status != INTERNAL:
            pd = persistent_subcube(cls, cube)
        result = Fundament(
            cube=cube,
            status=status,
            d_connected=d_conn,
            persistent=pd.persistent if pd else None,
            salient=pd.salient if pd else None,
            separators=pd.separators if pd else frozenset(),
            ordinary_cubes=ordinary,
            diagonals=frozenset(),
        )
        cls._fundaments[cube] = result
        return result

    pd = persistent_subcube(cls, cube)
    diagonals = set()
    # pieces of the external codimension-1 faces (those meeting the
    # persistent subcube, equivalently those with a persistent corner)
    for face in cx.codim1_faces(cube):
        if face & pd.persistent:
            diagonals |= fundament(cls, face).diagonals
    # S(w) for each completely external subcube w of the salient cube;
    # with fewer than two separators these degenerate to ordinary cubes
    if pd.kappa >= 2:
        flip = {w: v for v, w in pd.partner.items()}
        for w in cx.subcubes(pd.salient):
            if cls.status(w) != COMPLETELY_EXTERNAL:
                continue
            pairs = tuple(
                sorted(((v, flip[v]) for v in w), key=lambda t: cx.index(t[0]))
            )
            diagonals.add(
                DiagonalCube(
                    salient_cube=w,
                    persistent_cube=frozenset(flip[v] for v in w),
                    separators=pd.separators,
                    pairs=pairs,
                )
            )
    result = Fundament(
        cube=cube,
        status=status,
        d_connected=False,
        persistent=pd.persistent,
        salient=pd.salient,
        separators=pd.separators,
        ordinary_cubes=ordinary,
        diagonals=frozenset(diagonals),
    )
    cls._fundaments[cube] = result
    return result


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
    metadata: dict = field(default_factory=dict, repr=False)

    def crossing_of(self, u, v) -> frozenset:
        return self.edge_provenance[self.output_complex.edge_key(u, v)]

    def provenance_lines(self) -> list[str]:
        from .fileio import format_vertex

        lines = []
        for (u, v) in self.output_complex.edges:
            hs = " ".join(f"h{i}" for i in sorted(self.edge_provenance[(u, v)]))
            lines.append(f"edge {format_vertex(u)} {format_vertex(v)} crosses {hs}")
        return lines


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
    internal = cls.internal_edges
    surviving = [e for e in cx.edges if e not in internal]
    diag: dict[tuple, frozenset] = {}
    for m in cx.maximal_cubes():
        status = cls.status(m)
        # internal cubes lie in panels, which are proper faces of block cubes
        if status == INTERNAL:
            raise InternalInvariantError(
                f"maximal cube {set(m)} is internal to a panel"
            )
        if status == COMPLETELY_EXTERNAL:
            continue
        f = fundament(cls, m)
        for pair, separators in f.diagonal_pairs():
            a, b = sorted(pair, key=cx.index)
            prior = diag.get((a, b))
            if prior is not None and prior != separators:
                raise InternalInvariantError(
                    f"diagonal {a!r}-{b!r} acquired two separator sets "
                    f"{sorted(prior)} and {sorted(separators)}"
                )
            diag[(a, b)] = separators
    for (a, b) in diag:
        if cx.distance(a, b) < 2:
            raise InternalInvariantError(
                f"diagonal {a!r}-{b!r} duplicates an input edge"
            )
    if panels and not internal:
        raise InternalInvariantError("nonempty panel family with no internal edges")

    edges = list(surviving) + sorted(diag)
    try:
        out = CubeComplex(cx.vertices, edges)
    except InvalidComplexError as exc:
        raise InternalInvariantError(
            f"collapsed 1-skeleton failed validation: {exc.report.summary()}"
        ) from exc
    provenance = {}
    for u, v in surviving:
        provenance[(u, v)] = frozenset({cx._edge_dual[u, v]})
    provenance.update(diag)
    metadata = {
        "panel_triples": tuple(p.triple for p in panels),
        "internal_edge_count": len(internal),
    }
    return CollapseResult(
        input_complex=cx,
        output_complex=out,
        panels=panels,
        edge_provenance=provenance,
        diagonal_edges=frozenset(diag),
        metadata=metadata,
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
