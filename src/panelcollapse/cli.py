"""Command-line surface.

Exit codes: 0 on success, 1 on a user error (bad file, bad arguments, failed
precondition, invalid complex), 2 on an internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import __version__
from .collapse import collapse
from .complex import CubeComplex, validate_graph
from .dot import export_dot
from .errors import (
    FileFormatError,
    InternalInvariantError,
    PreconditionError,
    UserInputError,
)
from .fileio import (
    format_vertex,
    parse_action,
    parse_complex,
    parse_complex_data,
    parse_provenance,
    parse_wallspace,
    serialize_complex,
)
from .panels import (
    build_panel,
    codim2_hyperplanes,
    extremal_panels,
    find_extremal_panel,
)
from .pocset import Wallspace, dualize_details, stallings_pipeline
from .randgen import GeneratorConfig, random_complex_with_action, seed_from_env
from .symmetry import GroupAction, counts_text, push_action, run_to_tree


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from None


def _int_at_least(low: int):
    """An argument type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def _load_complex(path: str) -> CubeComplex:
    return parse_complex(_read(path))


def _cmd_validate(args) -> int:
    # parse structure only, then report validity instead of raising
    vertices, edges = parse_complex_data(_read(args.file))
    report = validate_graph(vertices, edges)
    if args.json:
        payload = {
            "valid": report.passed,
            "connected": report.connected,
            "median": report.median,
            "median_violation": (
                list(map(format_vertex, report.median_violation))
                if report.median_violation
                else None
            ),
            "flag_filled": report.flag_filled,
            "cube_counts": list(report.cube_counts),
            "euler_characteristic": report.euler_characteristic,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        if report.passed:
            print(
                f"valid; {counts_text(report.cube_counts)}; "
                f"Euler={report.euler_characteristic}"
            )
        else:
            print(f"invalid; {report.summary()}")
    return 0 if report.passed else 1


def _cmd_hyperplanes(args) -> int:
    cx = _load_complex(args.file)
    planes = cx.hyperplanes()
    if args.json:
        payload = [
            {
                "id": h.id,
                "edges": sorted(
                    [format_vertex(u), format_vertex(v)] for u, v in h.edges
                ),
                "minus_size": len(h.minus),
                "plus_size": len(h.plus),
            }
            for h in planes
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        for h in planes:
            pretty = " ".join(
                f"{format_vertex(u)}-{format_vertex(v)}" for u, v in sorted(h.edges)
            )
            print(f"h{h.id}: {len(h.edges)} edges | sides "
                  f"{len(h.minus)}/{len(h.plus)} | {pretty}")
    return 0


def _cmd_panels(args) -> int:
    cx = _load_complex(args.file)
    rows = [
        (p.abutting, p.extremalising, p.side, len(p.internal_edges))
        for p in extremal_panels(cx)
    ]
    if args.json:
        print(json.dumps([
            {"abutting": a, "extremalising": e, "side": s, "internal_edges": k}
            for a, e, s, k in rows
        ]))
    else:
        for a, e, s, k in rows:
            print(f"h{a} h{e} {s} {k}")
    return 0


def _parse_panel_arg(cx, triple: str):
    parts = triple.split(",")
    if len(parts) != 3:
        raise PreconditionError("--panel expects H,E,side (e.g. h0,h1,+)")
    ids = []
    for raw in parts[:2]:
        raw = raw.strip().lstrip("h")
        try:
            ids.append(int(raw))
        except ValueError:
            raise PreconditionError(f"bad hyperplane id {raw!r}") from None
    side = parts[2].strip()
    if side not in ("+", "-"):
        raise PreconditionError("side must be '+' or '-'")
    k = len(cx._wall_edges)
    for i in ids:
        if not 0 <= i < k:
            raise PreconditionError(f"hyperplane id {i} out of range (0..{k-1})")
    return build_panel(cx, ids[0], ids[1], side)


def _cmd_collapse(args) -> int:
    cx = _load_complex(args.file)
    if args.panel:
        panel = _parse_panel_arg(cx, args.panel)
    else:
        panel = find_extremal_panel(cx)
        if panel is None:
            print("no extremal panel: complex is a tree", file=sys.stderr)
            return 1
    result = collapse(cx, [panel])
    out_text = serialize_complex(
        result.output_complex,
        comments=[
            f"collapsed panel h{panel.abutting},h{panel.extremalising},{panel.side}"
        ],
    )
    if args.output:
        _write(args.output, out_text)
    else:
        sys.stdout.write(out_text)
    sidecar = "\n".join(result.provenance_lines()) + "\n"
    if args.provenance:
        _write(args.provenance, sidecar)
    else:
        sys.stdout.write(sidecar)
    return 0


def _cmd_run(args) -> int:
    cx = _load_complex(args.complex)
    gens = parse_action(_read(args.action), cx)
    action = GroupAction(cx, gens)
    if not action.is_inversion_free:
        cx, action = push_action(cx, action)
        print("# action inverts a hyperplane: passed to the first subdivision")
    trace = run_to_tree(cx, action)
    for line in trace.lines():
        print(line)
    if args.trace:
        payload = {
            "initial": {"cube_counts": list(trace.initial_complex.cube_counts)},
            "steps": [
                {
                    "panel": list(s.panel_triple),
                    "orbit_size": s.orbit_size,
                    "complexity_before": list(s.complexity_before.entries),
                    "complexity_after": list(s.complexity_after.entries),
                    "cube_counts": list(s.result.output_complex.cube_counts),
                }
                for s in trace.steps
            ],
            "tree": {"cube_counts": list(trace.final_complex.cube_counts)},
            "edge_origins": sorted(
                [
                    [format_vertex(u), format_vertex(v), sorted(hs)]
                    for (u, v), hs in trace.edge_origins.items()
                ]
            ),
            "provenance_digest": trace.provenance_digest(),
        }
        _write(args.trace, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_dualize(args) -> int:
    points, walls, _ = parse_wallspace(_read(args.file))
    info = dualize_details(Wallspace.from_data(points, walls))
    text = serialize_complex(
        info.complex,
        comments=[
            f"dual of {args.file}",
            f"policy: {info.metadata['orientation_policy']}",
            f"base point: {info.metadata['base_point']}",
        ],
    )
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stallings(args) -> int:
    points, walls, syms = parse_wallspace(_read(args.file))
    ws = Wallspace.from_data(points, walls)
    result = stallings_pipeline(ws, syms)
    print(f"dual: {counts_text(result.dual_info.complex.cube_counts)}")
    if result.subdivided:
        print("subdivided: yes (action inverted a hyperplane)")
    for line in result.trace.lines():
        print(line)
    print(f"group order: {result.group_order}")
    stabs = " ".join(
        str(result.edge_stabiliser_sizes[e]) for e in result.tree.edges
    )
    print(f"edge stabilisers: {stabs if stabs else '-'}")
    if args.trace:
        payload = {
            "tree": {"cube_counts": list(result.tree.cube_counts)},
            "steps": len(result.trace.steps),
            "group_order": result.group_order,
            "edge_stabilisers": sorted(result.edge_stabiliser_sizes.values()),
            "wall_stabilisers": sorted(result.wall_stabiliser_sizes),
        }
        _write(args.trace, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_stats(args) -> int:
    cx = _load_complex(args.file)
    planes = cx.hyperplanes()
    crossing = codim2_hyperplanes(cx)
    panels = extremal_panels(cx)
    payload = {
        "cube_counts": list(cx.cube_counts),
        "dimension": cx.dimension,
        "euler_characteristic": cx.euler_characteristic,
        "hyperplanes": len(planes),
        "crossing_pairs": len(crossing),
        "extremal_panels": len(panels),
        "is_tree": cx.is_tree(),
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{counts_text(cx.cube_counts)}; Euler={cx.euler_characteristic}")
        print(f"dimension: {cx.dimension}")
        print(f"hyperplanes: {len(planes)}")
        print(f"crossing pairs: {len(crossing)}")
        print(f"extremal panels: {len(panels)}")
        print(f"tree: {'yes' if cx.is_tree() else 'no'}")
    return 0


def _cmd_export_dot(args) -> int:
    cx = _load_complex(args.file)
    provenance = parse_provenance(_read(args.provenance), cx) if args.provenance else None
    sys.stdout.write(export_dot(cx, provenance))
    return 0


def _cmd_fuzz(args) -> int:
    seed = seed_from_env()
    rng = random.Random(seed)
    cfg = GeneratorConfig(max_vertices=args.max_vertices)
    print(f"seed: {seed}")
    for i in range(args.count):
        cx, action = random_complex_with_action(rng, cfg)
        trace = run_to_tree(cx, action)
        print(
            f"run {i}: V={cx.n} dim={cx.dimension} group={action.order} "
            f"steps={trace.step_count} tree V={trace.final_complex.n}"
        )
    print("ok")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="panelcollapse", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="check a complex file is CAT(0)")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("hyperplanes", help="list wall classes")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hyperplanes)

    p = sub.add_parser("panels", help="list extremal panels")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_panels)

    p = sub.add_parser("collapse", help="collapse one extremal panel")
    p.add_argument("file")
    p.add_argument("--panel", help="H,E,side triple, e.g. h0,h1,+")
    p.add_argument("--auto", action="store_true", help="pick the canonical panel")
    p.add_argument("-o", "--output", help="write the collapsed complex here")
    p.add_argument("--provenance", help="write the crossing-set sidecar here")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("run", help="iterate equivariant collapse to a tree")
    p.add_argument("complex")
    p.add_argument("action")
    p.add_argument("--trace", help="write a JSON step trace here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("dualize", help="dual complex of a wallspace")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("stallings", help="wallspace to equivariant tree")
    p.add_argument("file")
    p.add_argument("--trace", help="write a JSON summary here")
    p.set_defaults(func=_cmd_stallings)

    p = sub.add_parser("stats", help="summary counts for a complex")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export-dot", help="Graphviz rendering of a complex")
    p.add_argument("file")
    p.add_argument("--provenance", help="crossing-set sidecar: dash diagonals")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("fuzz", help="random self-check runs (seed via env)")
    p.add_argument("--count", type=_int_at_least(0), default=5)
    p.add_argument("--max-vertices", type=_int_at_least(1), default=120)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant breached: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
