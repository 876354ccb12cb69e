"""Graphviz DOT export: one node per vertex, edges colored by wall class,
diagonal edges (crossing several walls) dashed."""

from __future__ import annotations

from .complex import CubeComplex
from .fileio import format_vertex

__all__ = ["export_dot"]

PALETTE = (
    "firebrick",
    "royalblue",
    "forestgreen",
    "darkorange",
    "purple",
    "goldenrod",
    "teal",
    "deeppink",
    "saddlebrown",
    "slategray",
    "olive",
    "navy",
)


def _quoted(v) -> str:
    """A vertex's DOT id: its name in double quotes, ``\\`` and ``"``
    escaped."""
    return '"' + format_vertex(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(cx: CubeComplex, provenance: dict | None = None) -> str:
    """Render the 1-skeleton as DOT text.

    ``provenance`` maps edge keys to sets of wall ids (as produced by a
    collapse); edges crossing more than one wall are drawn dashed.
    """
    lines = ["graph cubecomplex {", "  node [shape=circle fontsize=10];"]
    for v in cx.vertices:
        lines.append(f"  {_quoted(v)};")
    for u, v in cx.edges:
        h = cx.dual_hyperplane(u, v)
        color = PALETTE[h % len(PALETTE)]
        style = ""
        if provenance is not None:
            crossed = provenance.get((u, v), frozenset())
            if len(crossed) > 1:
                style = " style=dashed"
        lines.append(
            f"  {_quoted(u)} -- {_quoted(v)} [color={color}{style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
