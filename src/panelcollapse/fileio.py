"""Text formats for complexes, actions, wallspaces and provenance sidecars.

The first three formats are line oriented: a header line, then one
declaration per line.  Blank lines and ``#`` comments are ignored.  Parse
errors carry the offending line number.

complex (``cubecomplex v1``)::

    cubecomplex v1
    vertex a
    vertex b
    edge a b

action (``action v1``), one generator per ``gen`` line, unmapped vertices
fixed::

    action v1
    gen a->b b->a

wallspace (``wallspace v1``)::

    wallspace v1
    point a
    point b
    wall a | b
    sym a->b b->a

provenance sidecar, no header, one line per edge of a collapsed complex::

    edge a b crosses h0 h2

The writers refuse, with ``StructuralError``, a vertex or point whose token
its reader would not read back: an empty token, one holding whitespace or
``#`` (for a point also ``,``, ``|`` or ``->``), or one that two names share,
such as ``1`` and ``'1'``.
"""

from __future__ import annotations

import re

from .complex import CubeComplex, canonical_vertex_order
from .errors import FileFormatError, StructuralError

__all__ = [
    "format_provenance",
    "format_vertex",
    "parse_action",
    "parse_complex",
    "parse_complex_data",
    "parse_provenance",
    "parse_wallspace",
    "serialize_complex",
    "serialize_wallspace",
]


def format_vertex(v) -> str:
    """Render an opaque vertex id as a whitespace-free token."""
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "|".join(format_vertex(x) for x in v)
    return str(v)


# what ends a point's token on a wallspace line, besides whitespace
_POINT_RESERVED = ("#", ",", "|", "->")


def _breaker(token: str, reserved=("#",)):
    """The first whitespace or ``reserved`` string in ``token``, where a
    reader would split it, else None; the writers and the ``point`` line
    of the wallspace reader share it."""
    found = re.search("|".join([r"\s", *map(re.escape, reserved)]), token)
    return found and found.group()


def _tokens(names, kind: str, reserved=("#",)) -> dict:
    """Each name's token, by name, for a writer; raises unless each token
    reads back as its name alone."""
    tokens, named = {}, {}
    for name in names:
        token = format_vertex(name)
        if not token or _breaker(token, reserved):
            raise StructuralError(
                f"{kind} {name!r} cannot be written: its token {token!r} is "
                f"empty or holds whitespace or {' or '.join(map(repr, reserved))}"
            )
        if token in named:
            raise StructuralError(
                f"{kind} {named[token]!r} and {kind} {name!r} are both "
                f"written {token!r}"
            )
        tokens[name], named[token] = token, name
    return tokens


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header(text, expected):
    it = _lines(text)
    try:
        lineno, line = next(it)
    except StopIteration:
        raise FileFormatError(f"line 1: missing '{expected}' header") from None
    if line != expected:
        raise FileFormatError(f"line {lineno}: expected '{expected}', got '{line}'")
    return it


def parse_complex_data(text: str):
    """Structural parse of a complex file: returns (vertices, edges)."""
    it = _header(text, "cubecomplex v1")
    vertices: list[str] = []
    seen = set()
    edges = []
    edge_seen = set()
    for lineno, line in it:
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise FileFormatError(f"line {lineno}: vertex takes one name")
            name = parts[1]
            if name in seen:
                raise FileFormatError(f"line {lineno}: duplicate vertex '{name}'")
            seen.add(name)
            vertices.append(name)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise FileFormatError(f"line {lineno}: edge takes two names")
            u, v = parts[1], parts[2]
            for name in (u, v):
                if name not in seen:
                    raise FileFormatError(
                        f"line {lineno}: unknown vertex '{name}'"
                    )
            if u == v:
                raise FileFormatError(f"line {lineno}: self-loop at '{u}'")
            key = frozenset((u, v))
            if key in edge_seen:
                raise FileFormatError(f"line {lineno}: duplicate edge '{u} {v}'")
            edge_seen.add(key)
            edges.append((u, v))
        else:
            raise FileFormatError(
                f"line {lineno}: unknown declaration '{parts[0]}'"
            )
    return vertices, edges


def parse_complex(text: str) -> CubeComplex:
    vertices, edges = parse_complex_data(text)
    return CubeComplex(vertices, edges)


def serialize_complex(cx: CubeComplex, comments=()) -> str:
    token = _tokens(cx.vertices, "vertex")
    out = ["cubecomplex v1"]
    out.extend(f"# {c}" for c in comments)
    out.extend(f"vertex {token[v]}" for v in cx.vertices)
    out.extend(f"edge {token[u]} {token[v]}" for u, v in cx.edges)
    return "\n".join(out) + "\n"


def _parse_mapping(parts, lineno, known):
    mapping = {}
    for token in parts:
        if "->" not in token:
            raise FileFormatError(
                f"line {lineno}: expected 'u->v' tokens, got '{token}'"
            )
        u, v = token.split("->", 1)
        if known is not None and (u not in known or v not in known):
            raise FileFormatError(
                f"line {lineno}: unknown vertex in '{token}'"
            )
        if u in mapping:
            raise FileFormatError(f"line {lineno}: '{u}' mapped twice")
        mapping[u] = v
    return mapping


def parse_action(text: str, cx: CubeComplex) -> list[dict]:
    """Generator mappings of an action file, against a known complex."""
    it = _header(text, "action v1")
    known = {format_vertex(v): v for v in cx.vertices}
    gens = []
    for lineno, line in it:
        parts = line.split()
        if parts[0] != "gen":
            raise FileFormatError(
                f"line {lineno}: unknown declaration '{parts[0]}'"
            )
        raw = _parse_mapping(parts[1:], lineno, set(known))
        gens.append({known[u]: known[v] for u, v in raw.items()})
    return gens


def parse_wallspace(text: str):
    """Returns (points, walls, symmetry mappings) as plain data."""
    it = _header(text, "wallspace v1")
    points: list[str] = []
    seen = set()
    walls = []
    syms = []
    for lineno, line in it:
        parts = line.split(None, 1)
        kind = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kind == "point":
            name = rest.strip()
            if not name or " " in name:
                raise FileFormatError(f"line {lineno}: point takes one name")
            if breaker := _breaker(name, _POINT_RESERVED):
                raise FileFormatError(
                    f"line {lineno}: point name {name!r} holds {breaker!r}"
                )
            if name in seen:
                raise FileFormatError(f"line {lineno}: duplicate point '{name}'")
            seen.add(name)
            points.append(name)
        elif kind == "wall":
            if "|" not in rest:
                raise FileFormatError(
                    f"line {lineno}: wall needs two sides separated by '|'"
                )
            left, right = rest.split("|", 1)
            side_a = [p.strip() for p in left.split(",") if p.strip()]
            side_b = [p.strip() for p in right.split(",") if p.strip()]
            if not side_a or not side_b:
                raise FileFormatError(f"line {lineno}: wall side is empty")
            for p in side_a + side_b:
                if p not in seen:
                    raise FileFormatError(f"line {lineno}: unknown point '{p}'")
            walls.append((frozenset(side_a), frozenset(side_b)))
        elif kind == "sym":
            syms.append(_parse_mapping(rest.split(), lineno, seen))
        else:
            raise FileFormatError(f"line {lineno}: unknown declaration '{kind}'")
    return points, walls, syms


def serialize_wallspace(points, walls, syms=()) -> str:
    token = _tokens(points, "point", _POINT_RESERVED)

    def side(ps):
        return ",".join([token[p] for p in canonical_vertex_order(ps)])

    out = ["wallspace v1"]
    out.extend(f"point {token[p]}" for p in points)
    try:
        for a, b in walls:
            out.append(f"wall {side(a)} | {side(b)}")
        for s in syms:
            pairs = [f"{token[u]}->{token[s[u]]}" for u in canonical_vertex_order(s)]
            out.append("sym " + " ".join(pairs))
    except KeyError as exc:
        raise StructuralError(f"unknown point {exc.args[0]!r}") from None
    return "\n".join(out) + "\n"


def format_provenance(cx: CubeComplex, provenance: dict) -> list[str]:
    """Sidecar lines: each edge of ``cx``, in edge order, with the input
    walls ``provenance`` says it crosses."""
    lines = []
    for u, v in cx.edges:
        hs = " ".join(f"h{i}" for i in sorted(provenance[(u, v)]))
        lines.append(f"edge {format_vertex(u)} {format_vertex(v)} crosses {hs}")
    return lines


def parse_provenance(text: str, cx: CubeComplex) -> dict:
    """Edge key -> crossed wall ids of a sidecar, against a known complex."""
    provenance = {}
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) < 4 or parts[0] != "edge" or parts[3] != "crosses":
            raise FileFormatError(f"line {lineno}: bad provenance line")
        for tok in parts[4:]:
            if not (tok[:1] == "h" and tok[1:].isdecimal()):
                raise FileFormatError(f"line {lineno}: bad wall id {tok!r}")
        try:
            key = cx.edge_key(parts[1], parts[2])
        except StructuralError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
        if key in provenance:
            raise FileFormatError(
                f"line {lineno}: duplicate edge '{parts[1]} {parts[2]}'"
            )
        provenance[key] = frozenset(int(tok[1:]) for tok in parts[4:])
    return provenance
