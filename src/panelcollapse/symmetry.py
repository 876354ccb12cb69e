"""Finite group actions on cube complexes and the equivariant collapse driver.

An automorphism is a vertex permutation preserving edges (and hence cubes,
walls, and medians).  A finite action is held as its generators alone: the
orbits of panels and cubes and the inversions are read off them, and the
group is closed only when a report asks for its order.  An *inversion* is
an element preserving a wall while swapping its two halfspaces; collapse
requires inversion-free actions, and passing to the first cubical
subdivision always removes inversions.  Each generator maps each wall onto
one wall, its minus side onto the minus or the plus side, so a wall orbit
is inverted exactly when two paths of generators to one wall disagree on
the side.

The driver repeatedly collapses the full orbit of one extremal panel, which
strictly decreases the lexicographic complexity (orbit counts of cubes of
each dimension at least 2), until the complex is a tree.  ``iter_steps`` is
that loop: it yields each step's full ``StepResult`` and keeps none of them
once the next is built.  ``run_to_tree`` folds the steps into a
``RunTrace``, which keeps the first and last complexes, the original walls
under each tree edge and one small ``StepRecord`` per step, so a run's
memory does not grow with the number of steps.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field

# hyperplane_provenance and no_facing_panels are not called here, but
# perfbench/tracer.py wraps both by name in this module
from .collapse import CollapseResult, collapse, hyperplane_provenance
from .complex import CubeComplex, _bits, _faces, _same_complex
from .errors import InternalInvariantError, PreconditionError, StructuralError
from .panels import SIDES, Panel, build_panel, find_extremal_panel, no_facing_panels

__all__ = [
    "Automorphism",
    "ComplexityVector",
    "GroupAction",
    "RunTrace",
    "StepRecord",
    "StepResult",
    "complexity",
    "equivariant_collapse_step",
    "iter_steps",
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

    def preserves_edges(self):
        """None if edge-preserving, else one broken edge."""
        cx, perm = self.complex, self.perm
        for a, b in cx._int_edges:
            if perm[b] not in cx._adj_int[perm[a]]:
                return cx.vertices[a], cx.vertices[b]
        return None

    def __eq__(self, other):
        return isinstance(other, Automorphism) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        moved = sum(1 for i, j in enumerate(self.perm) if i != j)
        return f"Automorphism(moves {moved} of {len(self.perm)})"


class GroupAction:
    """A finite group of automorphisms, held as its generators."""

    def __init__(self, cx: CubeComplex, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Automorphism):
                g = Automorphism(cx, g)
            _require_edges_preserved(g)
            gens.append(g)
        self.complex = cx
        self.generators = tuple(gens)
        self._inversions = None
        self._complexity = None

    @functools.cached_property
    def order(self) -> int:
        """|G|, by closing the group, which only reports need."""
        return len(_close(self.complex, self.generators))

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
        """The walls that some element preserves while swapping their
        halfspaces, ascending.  Each generator g maps wall h onto the wall t
        of its first edge's image, and the minus side, which holds vertex 0,
        onto the side of t that holds g(0).  Walking each wall orbit once
        with these parities, an orbit is inverted exactly when two paths to
        one wall disagree, and then every wall in it is inverted."""
        if self._inversions is None:
            masks, walls = self.complex._masks, self.complex._wall_edges
            firsts = [edges[0] for edges in walls]
            maps = []
            for g in self.generators:
                perm, start = g.perm, masks[g.perm[0]]
                targets = [
                    (masks[perm[a]] ^ masks[perm[b]]).bit_length() - 1
                    for a, b in firsts
                ]
                maps.append([(t, start >> t & 1) for t in targets])
            parity, out = [None] * len(walls), []
            for root in range(len(walls)):
                if parity[root] is not None:
                    continue
                parity[root], orbit, inverted = 0, [root], False
                for h in orbit:
                    for row in maps:
                        t, flip = row[h]
                        side = parity[h] ^ flip
                        if parity[t] is None:
                            parity[t] = side
                            orbit.append(t)
                        elif parity[t] != side:
                            inverted = True
                if inverted:
                    out += orbit
            self._inversions = tuple(sorted(out))
        return self._inversions

    @property
    def is_inversion_free(self) -> bool:
        return not self.inversions()

    # -- orbits of cubes and panels ----------------------------------------------

    def cube_orbit_count(self, dim: int) -> int:
        if not self.generators:
            # each cube is its own orbit: the closed-form count
            counts = self.complex.cube_counts
            return counts[dim] if 0 <= dim < len(counts) else 0
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
        """The same generating permutations acting on another complex over
        the same vertex set; raises if they fail to preserve its edges."""
        if other.vertices != self.complex.vertices:
            raise PreconditionError("transfer requires the identical vertex set")
        # on the identical vertex table each permutation is still a bijection
        gens = [Automorphism._unchecked(other, g.perm) for g in self.generators]
        try:
            return GroupAction(other, gens)
        except StructuralError as exc:
            raise InternalInvariantError(
                f"action does not survive onto the collapsed complex: {exc}"
            ) from exc


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
                            f"group order exceeds GROUP_SIZE_CAP = {GROUP_SIZE_CAP}"
                        )
                    seen[h.perm] = h
                    nxt.append(h)
        frontier = nxt
    return tuple(seen[p] for p in sorted(seen))


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

    def _key(self) -> tuple:
        """``(length, entries)`` of the entries without leading zeros.  The
        counts are nonnegative, so padding two vectors with leading zeros to
        one width and comparing them lexicographically orders them as these
        keys do."""
        entries = tuple(itertools.dropwhile(lambda e: e == 0, self.entries))
        return len(entries), entries

    @property
    def is_zero(self) -> bool:
        return self._key()[0] == 0

    def __eq__(self, other):
        if not isinstance(other, ComplexityVector):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other):
        if not isinstance(other, ComplexityVector):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        return "(" + ",".join(map(str, self.entries)) + ")" if self.entries else "()"


def complexity(cx: CubeComplex, action: GroupAction) -> ComplexityVector:
    """Orbit counts of d-cubes for d from dim down to 2; kept on the action
    when ``cx`` is the complex it acts on, so that the vector a collapse
    step computes for its output is the next step's starting vector."""
    if cx is action.complex and action._complexity is not None:
        return action._complexity
    entries = tuple(action.cube_orbit_count(d) for d in range(cx.dimension, 1, -1))
    vector = ComplexityVector(entries=entries)
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
            f"action inverts hyperplane {inv[0]}; subdivide first"
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
        result.wall_crossings  # checks one crossing set per output wall
        new_action = action.transfer(result.output_complex)
        new_inv = new_action.inversions()
        if new_inv:
            raise InternalInvariantError(
                f"collapse introduced an inversion on output wall {new_inv[0]}"
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
class StepRecord:
    """What a run keeps of one step: the panel, the orbit size, the
    complexity before and after, and the output's cube and diagonal counts."""

    panel_triple: tuple
    orbit_size: int
    complexity_before: ComplexityVector
    complexity_after: ComplexityVector
    cube_counts: tuple
    diagonal_count: int


@dataclass(frozen=True)
class RunTrace:
    """Record of an iterated equivariant collapse down to a tree: the first
    and last complexes, one ``StepRecord`` per step and the original walls
    under each tree edge.  No intermediate complex is kept."""

    initial_complex: CubeComplex = field(repr=False)
    final_complex: CubeComplex = field(repr=False)
    final_action: GroupAction = field(repr=False)
    steps: tuple  # of StepRecord
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
                f"{counts_text(s.cube_counts)}"
            )
        fc = self.final_complex
        out.append(f"tree: V={fc.cube_counts[0]} E={fc.cube_counts[1] if len(fc.cube_counts) > 1 else 0}")
        out.append(f"provenance: {self.provenance_digest()}")
        return out


def counts_text(counts) -> str:
    """Cube counts by dimension as ``V=.. E=.. F=.. C=.. D4=..``."""
    labels = ["V", "E", "F", "C"] + [f"D{d}" for d in range(4, len(counts))]
    return " ".join(f"{label}={c}" for label, c in zip(labels, counts))


def iter_steps(cx: CubeComplex, action: GroupAction):
    """Yield the ``StepResult`` of each equivariant collapse step from ``cx``
    down to a tree, each step starting from the previous one's output.

    Raises ``InternalInvariantError`` when a step breaks a guarantee or
    more steps are taken than the initial complex has cubes, its message
    prefixed with the step number, and when no extremal panel is left on a
    complex that is not a tree.  The generator holds only the current step
    and its output, so a caller that drops each step keeps no earlier
    complex alive.
    """
    limit = sum(cx.cube_counts)
    number = 0
    while True:
        number += 1
        with _context(f"step {number}, "):
            step = equivariant_collapse_step(cx, action)
            if step is None:
                break
            if number > limit:
                raise InternalInvariantError(
                    f"panel {_triple_text(step.panel_triple)}: collapse failed "
                    f"to terminate within {limit} steps"
                )
        yield step
        cx, action = step.result.output_complex, step.action
    if not cx.is_tree():
        raise InternalInvariantError("driver stopped on a complex that is not a tree")


def run_to_tree(cx: CubeComplex, action: GroupAction) -> RunTrace:
    """Iterate equivariant collapse until no extremal panel remains, keeping
    one ``StepRecord`` per step: ``iter_steps`` folded by ``_trace``."""
    return _trace(cx, action, iter_steps(cx, action))


def _trace(cx: CubeComplex, action: GroupAction, steps) -> RunTrace:
    """The ``RunTrace`` of ``steps``, the ``StepResult``s that ``iter_steps``
    yields from ``cx`` and ``action``.

    Tracks, through every step, the set of original walls each surviving or
    diagonal edge crosses.  The sets are lifted per wall, as one mask of
    original walls for each wall of the current complex: all edges of an
    output wall cross one set of input walls, the step result's
    ``wall_crossings`` (checked when the step ran), and the output wall's
    lift is the OR of theirs.  They are expanded to edges once, at the end.
    Collapse keeps every vertex and the action's permutations, so each
    element fixes the same vertices throughout.
    """
    initial = cx
    lift = [1 << h for h in range(len(cx._wall_edges))]
    records = []
    for step in steps:
        result = step.result
        cx = result.output_complex
        new_lift = []
        for flip in result.wall_crossings:
            origin = 0
            for h in _bits(flip):
                origin |= lift[h]
            new_lift.append(origin)
        lift = new_lift
        records.append(
            StepRecord(
                panel_triple=step.panel_triple,
                orbit_size=step.orbit_size,
                complexity_before=step.complexity_before,
                complexity_after=step.complexity_after,
                cube_counts=cx.cube_counts,
                diagonal_count=len(result.diagonal_edges),
            )
        )
        action = step.action
    order, walls = cx._order, [frozenset(_bits(m)) for m in lift]
    return RunTrace(
        initial_complex=initial,
        final_complex=cx,
        final_action=action,
        steps=tuple(records),
        edge_origins={
            (order[a], order[b]): walls[cx._wall_of(a, b)] for a, b in cx._int_edges
        },
    )
