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
"""

from __future__ import annotations

from .complex import CubeComplex
from .errors import FileFormatError

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
    out = ["cubecomplex v1"]
    out.extend(f"# {c}" for c in comments)
    out.extend(f"vertex {format_vertex(v)}" for v in cx.vertices)
    out.extend(
        f"edge {format_vertex(u)} {format_vertex(v)}" for u, v in cx.edges
    )
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
    out = ["wallspace v1"]
    out.extend(f"point {p}" for p in points)
    for a, b in walls:
        out.append(
            "wall " + ",".join(sorted(a)) + " | " + ",".join(sorted(b))
        )
    for s in syms:
        out.append("sym " + " ".join(f"{u}->{v}" for u, v in sorted(s.items())))
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
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 4 or parts[0] != "edge" or parts[3] != "crosses":
            raise FileFormatError(f"line {lineno}: bad provenance line")
        for tok in parts[4:]:
            if not (tok[:1] == "h" and tok[1:].isdecimal()):
                raise FileFormatError(f"line {lineno}: bad wall id {tok!r}")
        hs = frozenset(int(tok[1:]) for tok in parts[4:])
        provenance[cx.edge_key(parts[1], parts[2])] = hs
    return provenance
