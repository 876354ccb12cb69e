"""Finite group actions on cube complexes and the equivariant collapse driver.

An automorphism is a vertex permutation preserving edges (and hence cubes,
walls, and medians).  A finite action is held as its generators alone, and
the group is closed only when a report asks for its order.  An *inversion*
is an element preserving a wall while swapping its two halfspaces; collapse
requires inversion-free actions, and passing to the first cubical
subdivision always removes inversions.  Each generator maps each wall onto
one wall, its minus side onto the minus or the plus side: one signed wall
table per generator, off which the wall orbits, the inversions and the panel
orbits are read.  A wall orbit is inverted exactly when two paths of
generators to one wall disagree on the side.

A cube ``(base, axes)`` has one imaging path: a generator's dict from each
vertex mask to its image's (``_images``) maps the two opposite corners
``base`` and ``base | axes`` to ``a`` and ``b``, and the image cube is
``(a & b, a ^ b)``.  Cube orbits and the subdivision's pushed generators
both read it.  Every orbit, of walls, cubes or panel triples, is walked as
a list that grows while it is read, with a seen set beside it.  The group
is closed on permutation tuples, each element wrapped once at the end.

The driver repeatedly collapses the full orbit of one extremal panel, which
strictly decreases the lexicographic complexity (orbit counts of cubes of
each dimension at least 2), until the complex is a tree.  An action keeps one
cube per orbit of cubes of dimension at least 2; the first action of a run
finds them in one walk, and each step carries them to its output action
(``_carried_reps``): an orbit of completely external input cubes survives
as it is, one status test deciding the whole orbit, and every other output
cube has an axis on a wall of diagonal edges, so only those cubes are listed
and walked.  The complexity is the representatives' count by dimension, and
no removed cube is visited.

``iter_steps`` is the driver's loop: it yields each step's ``StepResult``,
the step's ``StepRecord`` with its collapse result and output action, and
keeps none of them once the next is built.  ``run_to_tree`` folds the steps
into a ``RunTrace``, which keeps the first and last complexes, the original
walls under each tree edge and each step's record part alone, so a run's
memory does not grow with the number of steps.  Every run ends by checking
that this provenance is equivariant: each generator maps the original walls
under a wall onto those under its image, read off the signed wall tables of
the first and last actions.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import operator
from dataclasses import dataclass, field, fields

# hyperplane_provenance and no_facing_panels are not called here, but
# perfbench/tracer.py wraps both by name in this module
from .collapse import (
    COMPLETELY_EXTERNAL, CollapseResult, collapse, hyperplane_provenance,
)
from .complex import (
    CubeComplex, _bits, _check_size, _faces, _same_complex, _side_bit,
    _subsets, canonical_vertex_order, vertex_set_text,
)
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
                raise StructuralError(
                    f"mapping mentions unknown vertices {vertex_set_text(unknown)}"
                )
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

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        # (self * other)(v) == self(other(v))
        if not _same_complex(self.complex, other.complex):
            raise PreconditionError("automorphisms act on different complexes")
        return Automorphism._unchecked(
            self.complex, tuple(self.perm[i] for i in other.perm)
        )

    def preserves_edges(self):
        """None if edge-preserving, else one broken edge: an edge whose
        image is not an edge, its ends' masks differing in more than one
        bit."""
        cx, perm, masks = self.complex, self.perm, self.complex._masks
        for a, b in cx._int_edges:
            if (masks[perm[a]] ^ masks[perm[b]]).bit_count() != 1:
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
            elif not _same_complex(g.complex, cx):
                raise PreconditionError("automorphism acts on another complex")
            broken = g.preserves_edges()
            if broken is not None:
                raise StructuralError(
                    f"permutation breaks edge {broken[0]!r} {broken[1]!r}"
                )
            gens.append(g)
        self.complex = cx
        self.generators = tuple(gens)

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
        in exactly the target wall's bit.  Tests check the tables against it."""
        if not _same_complex(g.complex, self.complex):
            raise PreconditionError("automorphism acts on another complex")
        self.complex._require_walls(h_id)
        bit = _side_bit(side)
        masks, perm = self.complex._masks, g.perm
        a, b = self.complex._wall_edges[h_id][0]
        target = (masks[perm[a]] ^ masks[perm[b]]).bit_length() - 1
        end = a if masks[a] >> h_id & 1 == bit else b
        return target, SIDES[masks[perm[end]] >> target & 1]

    @functools.cached_property
    def _wall_table(self) -> tuple:
        """A row per generator g of ``(t, flip)`` per wall h: g maps h onto
        the wall t of its first edge's image, and side s of h, the minus side
        holding vertex 0, onto side ``s ^ flip`` of t, flip the side of g(0)."""
        masks, firsts = self.complex._masks, [e[0] for e in self.complex._wall_edges]
        table = []
        for g in self.generators:
            perm, row = g.perm, []
            for a, b in firsts:
                t = (masks[perm[a]] ^ masks[perm[b]]).bit_length() - 1
                row.append((t, masks[perm[0]] >> t & 1))
            table.append(row)
        return tuple(table)

    @functools.cached_property
    def _wall_orbits(self) -> tuple:
        """The wall orbits, each from its least wall, and the inverted walls,
        ascending, from one walk over the tables: a wall's parity is its side
        that the root's minus side reaches on the path that found it, and an
        orbit is inverted, all of it, when two paths to one wall disagree."""
        table = self._wall_table
        parity, orbits, inverted = [None] * len(self.complex._wall_edges), [], []
        for root in range(len(parity)):
            if parity[root] is not None:
                continue
            parity[root], orbit, flipped = 0, [root], False
            for h in orbit:
                for row in table:
                    t, flip = row[h]
                    side = parity[h] ^ flip
                    if parity[t] is None:
                        parity[t] = side
                        orbit.append(t)
                    elif parity[t] != side:
                        flipped = True
            orbits.append(orbit)
            if flipped:
                inverted += orbit
        return tuple(orbits), tuple(sorted(inverted))

    def inversions(self) -> tuple:
        """The walls that some element preserves while swapping their
        halfspaces, ascending."""
        return self._wall_orbits[1]

    @property
    def is_inversion_free(self) -> bool:
        return not self.inversions()

    # -- orbits of cubes and panels ----------------------------------------------

    @functools.cached_property
    def _images(self) -> tuple:
        """Per generator, the dict from each vertex mask to its image's."""
        masks = self.complex._masks
        return tuple(
            dict(zip(masks, [masks[i] for i in g.perm])) for g in self.generators
        )

    def cube_orbit_count(self, dim: int) -> int:
        """The number of orbits of ``dim``-cubes, counted afresh from the
        cubes under every action, the trivial one too."""
        return len(_cube_orbit_reps(self.complex._dim_cubes(dim), self._images))

    @functools.cached_property
    def _cube_reps(self) -> list:
        """One cube per orbit of cubes of dimension at least 2, from one
        walk over them; a collapse step sets its output action's from these
        (``_carried_reps``)."""
        cx = self.complex
        cubes = [c for d in range(2, cx.dimension + 1) for c in cx._dim_cubes(d)]
        return _cube_orbit_reps(cubes, self._images)

    @functools.cached_property
    def _complexity(self) -> "ComplexityVector":
        """Orbit counts of d-cubes for d from the dimension down to 2: the
        closed-form cube counts under the trivial group, else the
        representatives' dimensions tallied."""
        cx, counts = self.complex, self.complex.cube_counts
        if self.generators:
            counts = [0] * (cx.dimension + 1)
            for _, axes in self._cube_reps:
                counts[axes.bit_count()] += 1
        return ComplexityVector(tuple(counts[cx.dimension:1:-1]))

    def panel_orbit(self, panel: Panel) -> tuple[Panel, ...]:
        """Every image of one panel under the group, in triple order: the
        panel itself, and one ``build_panel`` for each other triple.  Two
        triples never give one panel: for one abutting wall H, equal H-edges
        are equal halfspaces of H, so the extremalising walls coincide.
        Refuses a non-panel or a panel built on another complex."""
        if not isinstance(panel, Panel):
            raise PreconditionError(f"not a panel: {panel!r}")
        if not _same_complex(panel.complex, self.complex):
            raise PreconditionError("panel was built on another complex")
        first = panel.abutting, panel.extremalising, panel._bit
        triples, seen = [first], {first}
        for h, e, bit in triples:
            for row in self._wall_table:
                t, flip = row[e]
                moved = row[h][0], t, bit ^ flip
                if moved not in seen:
                    seen.add(moved)
                    triples.append(moved)
        out = [panel]
        for h, e, bit in triples[1:]:
            try:
                out.append(build_panel(self.complex, h, e, SIDES[bit]))
            except PreconditionError as exc:
                # extremality is automorphism-invariant, so this cannot happen
                raise InternalInvariantError(
                    f"image panel (h{h}, h{e}, {SIDES[bit]}) is not extremal: {exc}"
                ) from exc
        return tuple(sorted(out))

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


def _close(cx: CubeComplex, gens) -> tuple:
    """Every product of the generators, sorted by permutation."""
    perms = [s.perm for s in gens]
    identity = tuple(range(cx.n))
    seen = {identity}
    found = [identity]
    for p in found:
        for s in perms:
            q = tuple([s[i] for i in p])
            if q not in seen:
                if len(seen) >= GROUP_SIZE_CAP:
                    raise PreconditionError(
                        f"group order exceeds GROUP_SIZE_CAP = {GROUP_SIZE_CAP}"
                    )
                seen.add(q)
                found.append(q)
    return tuple(Automorphism._unchecked(cx, p) for p in sorted(seen))


def _cube_orbit_reps(cubes, images) -> list:
    """The first cube met of each orbit among ``cubes``, a union of orbits,
    walking the images of ``(base, axes)`` cubes through their two opposite
    corners under each generator's mask dict."""
    seen, reps = set(), []
    for cube in cubes:
        if cube in seen:
            continue
        seen.add(cube)
        reps.append(cube)
        frontier = [cube]
        for base, axes in frontier:
            top = base | axes
            for image in images:
                a, b = image[base], image[top]
                moved = a & b, a ^ b
                if moved not in seen:
                    seen.add(moved)
                    frontier.append(moved)
    return reps


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
    """Orbit counts of d-cubes for d from dim down to 2, under an action on
    ``cx``.  The vector is kept on the action, so the one a collapse step
    computes for its output is the next step's starting vector.  It is the
    count of the action's orbit representatives by dimension: on an action
    a step made, these are carried over from the step's input, one per
    orbit, as ``_carried_reps`` argues; on any other action they come from
    one walk over its cubes.  Under the trivial group it is the closed-form
    cube counts."""
    if not _same_complex(action.complex, cx):
        raise PreconditionError("action does not act on this complex")
    return action._complexity


def _carried_reps(action: GroupAction, result: CollapseResult, out: GroupAction) -> list:
    """The output action's cube orbit representatives, from the input
    action's, for a step that collapsed one G-orbit of panels.

    1. The family is one G-orbit, so a cube's status is G-invariant, and one
       ``_status_of`` per input representative decides whether its whole
       orbit is completely external.
    2. The output cubes with no diagonal edge are exactly the completely
       external input cubes: such a cube keeps all its edges, and an output
       cube of kept edges is an input cube with no internal edge.  A
       representative keeps its vertices, so it is carried into output
       coordinates through two opposite corners, and the orbits stay one
       each, as the generators' permutations do not change.
    3. ``wall_crossings`` gives each output wall one crossing set: one input
       wall for kept edges, two or more for diagonal edges.  So every other
       output cube has an axis on a diagonal wall, and those cubes are listed
       at their tops, the upper ends of those walls' edges, and walked into
       orbits; they are a union of orbits, as the diagonals are.

    No removed cube is visited, and no completely external cube but the
    representatives."""
    cls, cx = result._classification, result.output_complex
    vertex_of, masks = action.complex._vertex_of, cx._masks
    reps = []
    for base, axes in action._cube_reps:
        if cls._status_of((base, axes)) == COMPLETELY_EXTERNAL:
            a, b = masks[vertex_of[base]], masks[vertex_of[base | axes]]
            reps.append((a & b, a ^ b))
    diagonal = 0
    for w, flip in enumerate(result.wall_crossings):
        if flip & (flip - 1):
            diagonal |= 1 << w
    cubes = [c for c in cx._cubes_across(diagonal) if c[1] & (c[1] - 1)]
    return reps + _cube_orbit_reps(cubes, out._images)


# ---------------------------------------------------------------------------
# subdivision
# ---------------------------------------------------------------------------


def _subdivision(cx: CubeComplex):
    """The first cubical subdivision of ``cx``, every cube of ``cx`` as
    ``(base, axes)``, and the dict from each cube to its vertex index in the
    subdivision, for ``push_action``, which pushes generators through it.

    A cube's vertex is named by its corners' names in index order, joined
    by ``|``; the names are made once and sorted canonically, and the edges
    join each cube to its codimension-1 faces as index pairs.  A
    subdivision of more than MAX_VERTICES vertices is refused before its
    cubes are listed, and one whose names collide, which vertex names
    holding ``|`` can bring about, is refused by name."""
    from .fileio import format_vertex

    _check_size(sum(cx.cube_counts))
    cubes = [c for by_dim in cx._cubes for c in by_dim]
    labels, vertex_of = [format_vertex(v) for v in cx._order], cx._vertex_of
    names = []
    for base, axes in cubes:
        corners = sorted([vertex_of[base | s] for s in _subsets(axes)])
        names.append("|".join([labels[i] for i in corners]))
    order = tuple(canonical_vertex_order(names))
    ix = {name: i for i, name in enumerate(order)}
    if len(ix) < len(order):
        twice = next(a for a, b in zip(order, order[1:]) if a == b)
        raise PreconditionError(
            f"subdivision names two cubes {twice!r}: '|' joins the corners of "
            "a cube in its name and is reserved in vertex names"
        )
    index = {c: ix[name] for c, name in zip(cubes, names)}
    edges = []
    for c in cubes:
        b = index[c]
        for face in _faces(c, c[1].bit_count() - 1):
            a = index[face]
            edges.append((a, b) if a < b else (b, a))
    return CubeComplex._from_indexed(order, ix, sorted(edges)), cubes, index


def push_action(cx: CubeComplex, action: GroupAction):
    """The first cubical subdivision, the one way to it, and the action
    carried over, which has no inversions; ``GroupAction(cx, [])`` gives the
    subdivision alone.  Each generator's cube images, through its mask dict
    by two opposite corners, are read straight off as indices, and are still
    checked to be a bijection preserving edges.  It is the same group: an
    element is determined by how it acts on cubes."""
    if not _same_complex(action.complex, cx):
        raise PreconditionError("action does not act on this complex")
    sub, cubes, index = _subdivision(cx)
    gens = []
    for image in action._images:
        perm = [0] * len(cubes)
        for base, axes in cubes:
            a, b = image[base], image[base | axes]
            perm[index[base, axes]] = index[a & b, a ^ b]
        gens.append(Automorphism(sub, tuple(perm)))
    return sub, GroupAction(sub, gens)


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
class StepResult(StepRecord):
    """A step in full: its ``StepRecord``, collapse result and output action."""

    result: CollapseResult = field(repr=False)
    action: GroupAction = field(repr=False)


_record_part = operator.attrgetter(*[f.name for f in fields(StepRecord)])


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
        if action.generators:
            new_action._cube_reps = _carried_reps(action, result, new_action)
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
        panel_triple=panel.triple,
        orbit_size=len(orbit),
        complexity_before=before,
        complexity_after=after,
        cube_counts=result.output_complex.cube_counts,
        diagonal_count=len(result.diagonal_edges),
        result=result,
        action=new_action,
    )


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

    Raises ``InternalInvariantError``, its message prefixed with the step
    number, when a step breaks a guarantee, when more steps are taken than
    the initial complex has cubes, and when a step finds no extremal panel
    on a complex that is not a tree.  The generator holds only the current
    step and its output, so a caller that drops each step keeps no earlier
    complex alive.
    """
    limit = sum(cx.cube_counts)
    for number in itertools.count(1):
        with _context(f"step {number}, "):
            step = equivariant_collapse_step(cx, action)
            if step is None:
                if not cx.is_tree():
                    raise InternalInvariantError("driver stopped on a complex that is not a tree")
                return
            if number > limit:
                raise InternalInvariantError(
                    f"panel {_triple_text(step.panel_triple)}: collapse failed "
                    f"to terminate within {limit} steps"
                )
        yield step
        cx, action = step.result.output_complex, step.action


def run_to_tree(cx: CubeComplex, action: GroupAction, *, recount: bool = False) -> RunTrace:
    """Iterate equivariant collapse until no extremal panel remains, keeping
    one ``StepRecord`` per step: ``iter_steps`` folded by ``_trace``.  With
    ``recount``, as ``fuzz`` runs, each step's carried complexity is also
    checked against a full recount of its output's cube orbits."""
    steps = iter_steps(cx, action)
    return _trace(cx, action, _recounted(steps) if recount else steps)


def _recounted(steps):
    """The steps, each checked: the complexity its output action carried
    must equal ``cube_orbit_count`` taken afresh in every dimension, else
    ``InternalInvariantError`` naming the step and its panel."""
    for number, step in enumerate(steps, 1):
        action = step.action
        dims = range(action.complex.dimension, 1, -1)
        full = ComplexityVector(tuple(action.cube_orbit_count(d) for d in dims))
        if full.entries != step.complexity_after.entries:
            raise InternalInvariantError(
                f"step {number}, panel {_triple_text(step.panel_triple)}: carried "
                f"complexity {step.complexity_after} differs from the recount {full}"
            )
        yield step


def _trace(cx: CubeComplex, action: GroupAction, steps) -> RunTrace:
    """The ``RunTrace`` of ``steps``, the ``StepResult``s that ``iter_steps``
    yields from ``cx`` and ``action``, each kept as a plain ``StepRecord``.

    Tracks, through every step, the set of original walls each surviving or
    diagonal edge crosses.  The sets are lifted per wall, as one mask of
    original walls for each wall of the current complex: all edges of an
    output wall cross one set of input walls, the step result's
    ``wall_crossings`` (checked when the step ran), and the output wall's
    lift is the OR of theirs.  They are expanded to edges once, at the end.
    Collapse keeps every vertex and the action's permutations, so each
    element fixes the same vertices throughout.

    Provenance is equivariant: each generator g maps the original walls
    under a final wall w onto those under g(w).  That is checked at the end,
    on the signed wall tables of the first and last actions, and a breach
    raises ``InternalInvariantError`` naming an edge of w and its origin
    walls; every element fixing an edge then keeps its origin walls.
    """
    initial, first = cx, action
    lift = [1 << h for h in range(len(cx._wall_edges))]
    records = []
    for step in steps:
        cx = step.result.output_complex
        new_lift = []
        for flip in step.result.wall_crossings:
            origin = 0
            for h in _bits(flip):
                origin |= lift[h]
            new_lift.append(origin)
        lift = new_lift
        records.append(StepRecord(*_record_part(step)))
        action = step.action
    order, walls = cx._order, [frozenset(_bits(m)) for m in lift]
    for first_row, row in zip(first._wall_table, action._wall_table):
        for w, (t, _) in enumerate(row):
            if walls[t] != {first_row[h][0] for h in walls[w]}:
                a, b = cx._wall_edges[w][0]
                raise InternalInvariantError(
                    f"a generator maps edge {(order[a], order[b])} but not its "
                    f"origin walls {sorted(walls[w])} onto its image's"
                )
    return RunTrace(
        initial_complex=initial,
        final_complex=cx,
        final_action=action,
        steps=tuple(records),
        edge_origins={
            (order[a], order[b]): walls[cx._wall_of(a, b)] for a, b in cx._int_edges
        },
    )
