"""Finite group actions on cube complexes and the equivariant collapse driver.

An automorphism is a vertex permutation preserving edges (and hence cubes,
walls, and medians).  A finite action is given by generators and closed to an
explicit element list.  An *inversion* is an element preserving a wall while
swapping its two halfspaces; collapse requires inversion-free actions, and
passing to the first cubical subdivision always removes inversions.  Vertex 0
lies on the minus side of every wall, so an element inverts a wall exactly
when it maps the wall onto itself and vertex 0 to the wall's plus side: only
the walls in the mask of vertex 0's image need testing, one edge image each.
Elements are permutation tuples; products and inverses of checked elements
skip the bijection check.

The driver repeatedly collapses the full orbit of one extremal panel, which
strictly decreases the lexicographic complexity (orbit counts of cubes of
each dimension at least 2), until the complex is a tree.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from dataclasses import dataclass, field

from .collapse import CollapseResult, collapse, hyperplane_provenance
from .complex import CubeComplex, _bits, _faces, _same_complex
from .errors import InternalInvariantError, PreconditionError, StructuralError
# no_facing_panels is not called here, but perfbench/tracer.py wraps it by name
from .panels import SIDES, Panel, build_panel, find_extremal_panel, no_facing_panels

__all__ = [
    "ActionReport",
    "Automorphism",
    "ComplexityVector",
    "GroupAction",
    "RunTrace",
    "StepResult",
    "check_action",
    "complexity",
    "equivariant_collapse_step",
    "push_action",
    "run_to_tree",
    "subdivide",
]

GROUP_SIZE_CAP = 20000


class Automorphism:
    """An edge-preserving vertex permutation of a fixed complex."""

    __slots__ = ("complex", "perm")

    def __init__(self, cx: CubeComplex, mapping):
        self.complex = cx
        if isinstance(mapping, tuple):
            perm = mapping
        else:
            mapping = dict(mapping)
            unknown = set(mapping) - set(cx.vertices)
            if unknown:
                raise StructuralError(f"mapping mentions unknown vertices {unknown}")
            perm = tuple(
                cx.index(mapping.get(v, v)) for v in cx.vertices
            )
        if sorted(perm) != list(range(cx.n)):
            raise StructuralError("vertex mapping is not a bijection")
        self.perm = perm

    @classmethod
    def _unchecked(cls, cx: CubeComplex, perm: tuple) -> "Automorphism":
        """An element whose permutation is a bijection by construction."""
        g = cls.__new__(cls)
        g.complex = cx
        g.perm = perm
        return g

    def __call__(self, v):
        return self.complex.vertices[self.perm[self.complex.index(v)]]

    def apply_set(self, vs) -> frozenset:
        return frozenset(self(v) for v in vs)

    def _apply_cube(self, cube) -> tuple[int, int]:
        """The image of a ``(base, axes)`` cube, read off the images of its
        two opposite corners ``base`` and ``base | axes``."""
        cx, (base, axes) = self.complex, cube
        a = cx._masks[self.perm[cx._vertex_of[base]]]
        b = cx._masks[self.perm[cx._vertex_of[base | axes]]]
        return a & b, a ^ b

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        # (self * other)(v) == self(other(v))
        return Automorphism._unchecked(
            self.complex, tuple(self.perm[i] for i in other.perm)
        )

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return Automorphism._unchecked(self.complex, tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))

    def preserves_edges(self):
        """None if edge-preserving, else one broken edge."""
        cx, perm = self.complex, self.perm
        for a, b in cx._int_edges:
            if perm[b] not in cx._adj_int[perm[a]]:
                return cx.vertices[a], cx.vertices[b]
        return None

    def fixed_vertices(self) -> frozenset:
        return frozenset(
            v for i, v in enumerate(self.complex.vertices) if self.perm[i] == i
        )

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        moved = sum(1 for i, j in enumerate(self.perm) if i != j)
        return f"Automorphism(moves {moved} of {len(self.perm)})"


@dataclass(frozen=True)
class ActionReport:
    order: int
    edge_preserving: bool
    broken_edge: tuple | None
    inversion_pairs: tuple  # (element index, wall id)
    hyperplane_orbit_count: int

    @property
    def inversion_free(self) -> bool:
        return not self.inversion_pairs


class GroupAction:
    """A finite group of automorphisms, stored as an explicit element list."""

    def __init__(self, cx: CubeComplex, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Automorphism):
                g = Automorphism(cx, g)
            _require_edges_preserved(g)
            gens.append(g)
        self._attach(cx, gens, _close(cx, gens))

    def _attach(self, cx: CubeComplex, gens, elements):
        self.complex = cx
        self.generators = tuple(gens)
        self.elements = elements
        self._inversions = None
        self._complexity = None

    @property
    def order(self) -> int:
        return len(self.elements)

    # -- walls under the action ------------------------------------------------

    def wall_image(self, g: Automorphism, h_id: int) -> int:
        """Id of the wall the element maps wall ``h_id`` onto."""
        return self.side_image(g, h_id, "+")[0]

    def side_image(self, g: Automorphism, h_id: int, side: str) -> tuple[int, str]:
        """Wall and side that the element maps a side of wall ``h_id`` onto:
        the image of an edge of the wall is an edge, whose ends' masks differ
        in exactly the target wall's bit."""
        masks, perm = self.complex._masks, g.perm
        a, b = self.complex._wall_edges[h_id][0]
        target = (masks[perm[a]] ^ masks[perm[b]]).bit_length() - 1
        end = a if masks[a] >> h_id & 1 == SIDES.index(side) else b
        return target, SIDES[masks[perm[end]] >> target & 1]

    def inversions(self) -> tuple:
        """(element index, wall id) pairs where the element preserves the wall
        but swaps its halfspaces, by element then wall.  Vertex 0 is on the
        minus side of every wall, so g inverts h exactly when g maps h onto
        itself and vertex 0 onto the plus side of h: a bit h of the mask of
        g(0) whose first edge g maps onto an edge of h."""
        if self._inversions is None:
            masks, wall_edges = self.complex._masks, self.complex._wall_edges
            out = []
            for i, g in enumerate(self.elements):
                perm = g.perm
                for h in _bits(masks[perm[0]]):
                    a, b = wall_edges[h][0]
                    if masks[perm[a]] ^ masks[perm[b]] == 1 << h:
                        out.append((i, h))
            self._inversions = tuple(out)
        return self._inversions

    @property
    def is_inversion_free(self) -> bool:
        return not self.inversions()

    def hyperplane_orbits(self) -> tuple[frozenset, ...]:
        walls = range(len(self.complex._wall_edges))
        return _orbits(walls, self.wall_image, self.generators)

    # -- orbits of cubes and panels ----------------------------------------------

    def cube_orbit_count(self, dim: int) -> int:
        cubes = self.complex._dim_cubes(dim)
        return len(_orbits(cubes, Automorphism._apply_cube, self.generators))

    def panel_orbit(self, panel: Panel) -> tuple[Panel, ...]:
        """Every image of one panel under the group, in triple order.  Two
        triples never give one panel: for one abutting wall H, equal H-edges
        are equal halfspaces of H, so the extremalising walls coincide."""
        triples = _orbits(
            [panel.triple],
            lambda g, t: (self.wall_image(g, t[0]), *self.side_image(g, t[1], t[2])),
            self.generators,
        )[0]
        out = []
        for h, e, s in triples:
            try:
                out.append(build_panel(self.complex, h, e, s))
            except PreconditionError as exc:
                # extremality is automorphism-invariant, so this cannot happen
                raise InternalInvariantError(
                    f"image panel (h{h}, h{e}, {s}) is not extremal: {exc}"
                ) from exc
        return tuple(sorted(out, key=Panel.sort_key))

    def transfer(self, other: CubeComplex) -> "GroupAction":
        """The same vertex permutations acting on another complex over the
        same vertex set; raises if they fail to preserve its edges.  The
        element list is carried over rather than closed again."""
        if other.vertices != self.complex.vertices:
            raise PreconditionError("transfer requires the identical vertex set")
        gens = [Automorphism(other, g.perm) for g in self.generators]
        try:
            for g in gens:
                _require_edges_preserved(g)
        except StructuralError as exc:
            raise InternalInvariantError(
                f"action does not survive onto the collapsed complex: {exc}"
            ) from exc
        new = GroupAction.__new__(GroupAction)
        new._attach(
            other,
            gens,
            tuple(Automorphism._unchecked(other, g.perm) for g in self.elements),
        )
        return new


def _require_edges_preserved(g: Automorphism):
    broken = g.preserves_edges()
    if broken is not None:
        raise StructuralError(
            f"permutation breaks edge {broken[0]!r} {broken[1]!r}"
        )


def _close(cx: CubeComplex, gens) -> tuple:
    """Every product of the generators, sorted by permutation."""
    identity = Automorphism._unchecked(cx, tuple(range(cx.n)))
    seen = {identity.perm: identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = s * g
                if h.perm not in seen:
                    if len(seen) >= GROUP_SIZE_CAP:
                        raise PreconditionError(
                            f"group closure exceeds {GROUP_SIZE_CAP} elements"
                        )
                    seen[h.perm] = h
                    nxt.append(h)
        frontier = nxt
    return tuple(seen[p] for p in sorted(seen))


def check_action(cx: CubeComplex, permutations) -> ActionReport:
    """Validate generators and report closure size and inversion status."""
    action = GroupAction(cx, permutations)
    return ActionReport(
        order=action.order,
        edge_preserving=True,
        broken_edge=None,
        inversion_pairs=action.inversions(),
        hyperplane_orbit_count=len(action.hyperplane_orbits()),
    )


def _orbits(items, act, generators):
    remaining = set(items)
    orbits = []
    for x in items:
        if x not in remaining:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in generators:
                z = act(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        orbits.append(frozenset(orbit))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------


@functools.total_ordering
@dataclass(frozen=True)
class ComplexityVector:
    """Orbit counts of cubes of dimension >= 2, highest dimension first,
    compared lexicographically after aligning by cube dimension.  The zero
    (empty) vector characterizes trees."""

    entries: tuple[int, ...]
    top_dimension: int

    @property
    def is_zero(self) -> bool:
        return not self.entries or all(e == 0 for e in self.entries)

    def _aligned(self, other):
        width = max(len(self.entries), len(other.entries))
        pad = lambda t: (0,) * (width - len(t)) + t
        return pad(self.entries), pad(other.entries)

    def __eq__(self, other):
        if not isinstance(other, ComplexityVector):
            return NotImplemented
        a, b = self._aligned(other)
        return a == b

    def __lt__(self, other):
        a, b = self._aligned(other)
        return a < b

    def __hash__(self):
        stripped = tuple(
            self.entries[next((i for i, e in enumerate(self.entries) if e), len(self.entries)):]
        )
        return hash(stripped)

    def __str__(self):
        return "(" + ",".join(map(str, self.entries)) + ")" if self.entries else "()"


def complexity(cx: CubeComplex, action: GroupAction) -> ComplexityVector:
    """Orbit counts of d-cubes for d from dim down to 2; kept on the action
    when ``cx`` is the complex it acts on, so that the vector a collapse
    step computes for its output is the next step's starting vector."""
    if cx is action.complex and action._complexity is not None:
        return action._complexity
    dim = cx.dimension
    entries = tuple(action.cube_orbit_count(d) for d in range(dim, 1, -1))
    vector = ComplexityVector(entries=entries, top_dimension=dim)
    if cx is action.complex:
        action._complexity = vector
    return vector


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------


def subdivide(cx: CubeComplex):
    """First cubical subdivision: one vertex per cube, edges along the
    codimension-1 face relation.  Returns (complex, pushforward) where the
    pushforward turns an automorphism-as-dict of the original complex into a
    vertex mapping of the subdivision.  Any action becomes inversion-free."""
    from .fileio import format_vertex

    cubes = [c for by_dim in cx._cubes for c in by_dim]
    names = {
        c: "|".join(format_vertex(v) for v in sorted(cx._vertex_set(c), key=cx.index))
        for c in cubes
    }
    edges = [
        (names[face], names[c])
        for c in cubes
        for face in _faces(c, c[1].bit_count() - 1)
    ]
    sub = CubeComplex(list(names.values()), edges)

    def pushforward(mapping) -> dict:
        g = mapping if isinstance(mapping, Automorphism) else Automorphism(cx, mapping)
        return {names[c]: names[g._apply_cube(c)] for c in cubes}

    return sub, pushforward


def push_action(cx: CubeComplex, action: GroupAction):
    """Subdivide and carry the action over; the result has no inversions."""
    sub, push = subdivide(cx)
    new = GroupAction(sub, [push(g) for g in action.generators])
    return sub, new


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def _triple_text(triple) -> str:
    return f"(h{triple[0]},h{triple[1]},{triple[2]})"


@contextlib.contextmanager
def _context(prefix: str):
    """Prefix the message of an InternalInvariantError raised inside."""
    try:
        yield
    except InternalInvariantError as exc:
        raise InternalInvariantError(prefix + str(exc)) from exc


@dataclass(frozen=True)
class StepResult:
    result: CollapseResult = field(repr=False)
    action: GroupAction = field(repr=False)
    panel_triple: tuple
    orbit_size: int
    complexity_before: ComplexityVector
    complexity_after: ComplexityVector


def equivariant_collapse_step(cx: CubeComplex, action: GroupAction):
    """Collapse the orbit of the canonical extremal panel.

    Returns None when the complex is already a tree.  Requires an
    inversion-free action (subdivide first otherwise); guarantees the output
    action is edge-preserving, inversion-free, and of strictly lower
    complexity, and that every output wall has one input crossing set.  The
    orbit's facing check is the one ``collapse`` makes.
    """
    if not _same_complex(action.complex, cx):
        raise PreconditionError("action does not act on this complex")
    inv = action.inversions()
    if inv:
        raise PreconditionError(
            f"action inverts hyperplane {inv[0][1]}; subdivide first"
        )
    panel = find_extremal_panel(cx)
    if panel is None:
        return None
    with _context(f"panel {_triple_text(panel.triple)}: "):
        orbit = action.panel_orbit(panel)
        before = complexity(cx, action)
        try:
            result = collapse(cx, orbit)
        except PreconditionError as exc:
            # the orbit's panels are built on cx: only facing panels are refused
            raise InternalInvariantError(
                "orbit of an extremal panel under an inversion-free action "
                "has facing panels"
            ) from exc
        hyperplane_provenance(result)  # one crossing set per output wall
        new_action = action.transfer(result.output_complex)
        new_inv = new_action.inversions()
        if new_inv:
            raise InternalInvariantError(
                f"collapse introduced an inversion on output wall {new_inv[0][1]}"
            )
        after = complexity(result.output_complex, new_action)
        if not after < before:
            raise InternalInvariantError(
                f"complexity did not strictly decrease: {before} -> {after}"
            )
    return StepResult(
        result=result,
        action=new_action,
        panel_triple=panel.triple,
        orbit_size=len(orbit),
        complexity_before=before,
        complexity_after=after,
    )


@dataclass(frozen=True)
class RunTrace:
    """Full record of an iterated equivariant collapse down to a tree."""

    initial_complex: CubeComplex = field(repr=False)
    final_complex: CubeComplex = field(repr=False)
    final_action: GroupAction = field(repr=False)
    steps: tuple  # of StepResult
    edge_origins: dict = field(repr=False)  # final edge -> original wall ids

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def provenance_digest(self) -> str:
        payload = json.dumps(
            sorted(
                (repr(e), sorted(hs)) for e, hs in self.edge_origins.items()
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def lines(self) -> list[str]:
        out = []
        for i, s in enumerate(self.steps, 1):
            out.append(
                f"step {i}: panel={_triple_text(s.panel_triple)} orbit={s.orbit_size} "
                f"complexity {s.complexity_before} -> {s.complexity_after} "
                f"{counts_text(s.result.output_complex.cube_counts)}"
            )
        fc = self.final_complex
        out.append(f"tree: V={fc.cube_counts[0]} E={fc.cube_counts[1] if len(fc.cube_counts) > 1 else 0}")
        out.append(f"provenance: {self.provenance_digest()}")
        return out


def counts_text(counts) -> str:
    """Cube counts by dimension as ``V=.. E=.. F=.. C=.. D4=..``."""
    labels = ["V", "E", "F", "C"] + [f"D{d}" for d in range(4, len(counts))]
    return " ".join(f"{label}={c}" for label, c in zip(labels, counts))


def run_to_tree(cx: CubeComplex, action: GroupAction) -> RunTrace:
    """Iterate equivariant collapse until no extremal panel remains.

    Tracks, through every step, the set of original walls each surviving or
    diagonal edge crosses.  Verifies termination within the initial cube
    count and that the result is a tree.  Collapse keeps every vertex and the
    action's permutations, so each element fixes the same vertices
    throughout.
    """
    initial = cx
    limit = sum(cx.cube_counts)
    origins = {(u, v): frozenset({cx.dual_hyperplane(u, v)}) for u, v in cx.edges}
    steps = []
    while True:
        with _context(f"step {len(steps) + 1}, "):
            step = equivariant_collapse_step(cx, action)
            if step is None:
                break
            if len(steps) >= limit:
                raise InternalInvariantError(
                    f"panel {_triple_text(step.panel_triple)}: collapse failed "
                    f"to terminate within {limit} steps"
                )
        # all edges of a wall carry the same origins: at the start each edge's
        # origin is its wall, and each step checks that every output wall
        # has a single crossing set
        order = cx.vertices
        lift = [origins[order[a], order[b]] for (a, b), *_ in cx._wall_edges]
        result = step.result
        origins = {
            e: frozenset().union(*(lift[h] for h in result.edge_provenance[e]))
            for e in result.output_complex.edges
        }
        steps.append(step)
        cx = result.output_complex
        action = step.action
    if not cx.is_tree():
        raise InternalInvariantError("driver stopped on a complex that is not a tree")
    return RunTrace(
        initial_complex=initial,
        final_complex=cx,
        final_action=action,
        steps=tuple(steps),
        edge_origins=origins,
    )
