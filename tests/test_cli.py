"""Command-line surface: formats, exit codes, determinism, round trips."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panelcollapse

from panelcollapse.cli import main
from panelcollapse.collapse import collapse
from panelcollapse.complex import CubeComplex
from panelcollapse.errors import FileFormatError, PreconditionError, StructuralError
from panelcollapse.fileio import (
    format_vertex,
    parse_action,
    parse_complex,
    parse_wallspace,
    serialize_complex,
    serialize_wallspace,
)
from panelcollapse.panels import build_panel
from panelcollapse.pocset import Wallspace
from panelcollapse.symmetry import Automorphism, GroupAction, push_action

from conftest import (
    DATA,
    SEVEN_CUBE_SIDES,
    hypercube_complex,
    pairwise_crossing_walls,
    path_complex,
    rotation,
    six_point_walls,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parsing -----------------------------------------------------------------


def test_parse_round_trip(cube3):
    text = serialize_complex(cube3)
    again = parse_complex(text)
    assert again.vertices == cube3.vertices
    assert again.edges == cube3.edges
    assert [sorted(h.edges) for h in again.hyperplanes()] == [
        sorted(h.edges) for h in cube3.hyperplanes()
    ]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FileFormatError, match="line 1"):
        parse_complex("not a header\n")
    with pytest.raises(FileFormatError, match="line 3"):
        parse_complex("cubecomplex v1\nvertex a\nvertex a\n")
    with pytest.raises(FileFormatError, match="line 2"):
        parse_complex("cubecomplex v1\nedge a b\n")
    with pytest.raises(FileFormatError, match="line 4"):
        parse_complex("cubecomplex v1\nvertex a\nvertex b\nedge a a\n")
    with pytest.raises(FileFormatError, match="line 3"):
        parse_wallspace("wallspace v1\npoint a\nwall a |\n")
    with pytest.raises(FileFormatError, match="line 2"):
        parse_action("action v1\ngen a=b\n", CubeComplex(["a", "b"], [("a", "b")]))


def test_comments_and_blank_lines_ignored():
    text = "cubecomplex v1\n# a remark\n\nvertex a\nvertex b\nedge a b  # trailing\n"
    cx = parse_complex(text)
    assert cx.n == 2


# -- subcommands ----------------------------------------------------------------


def test_validate_output(capsys):
    code, out, _ = run_cli(capsys, "validate", str(DATA / "cube3.cc"))
    assert code == 0
    assert out.strip() == "valid; V=8 E=12 F=6 C=1; Euler=1"


def test_validate_invalid_complex(capsys, tmp_path):
    bad = tmp_path / "k23.cc"
    lines = ["cubecomplex v1"]
    lines += [f"vertex {v}" for v in ["a", "b", "x", "y", "z"]]
    lines += [f"edge {a} {b}" for a in "ab" for b in "xyz"]
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out.startswith("invalid; median check fails on triple")


def test_validate_json_non_median(capsys, tmp_path):
    bad = tmp_path / "k23.cc"
    lines = ["cubecomplex v1"]
    lines += [f"vertex {v}" for v in ["a", "b", "x", "y", "z"]]
    lines += [f"edge {a} {b}" for a in "ab" for b in "xyz"]
    bad.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "validate", str(bad), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["median"] is False and not payload["valid"]
    assert payload["median_violation"] == ["x", "y", "z"]
    # cubes are only defined for a median graph
    assert payload["cube_counts"] == []
    assert payload["euler_characteristic"] is None


def test_validate_json(capsys):
    code, out, _ = run_cli(capsys, "validate", str(DATA / "cube3.cc"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["cube_counts"] == [8, 12, 6, 1]


def test_hyperplanes_listing(capsys):
    code, out, _ = run_cli(capsys, "hyperplanes", str(DATA / "cube3.cc"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(ln.split(":")[0] in {"h0", "h1", "h2"} for ln in lines)


def test_panels_listing(capsys):
    code, out, _ = run_cli(capsys, "panels", str(DATA / "square.cc"))
    assert code == 0
    rows = [ln.split() for ln in out.strip().splitlines()]
    assert len(rows) == 4
    assert all(r[3] == "1" for r in rows)


def test_collapse_emits_complex_and_sidecar(capsys, tmp_path):
    out_cc = tmp_path / "out.cc"
    out_prov = tmp_path / "out.prov"
    code, _, _ = run_cli(
        capsys,
        "collapse",
        str(DATA / "cube3.cc"),
        "--auto",
        "-o",
        str(out_cc),
        "--provenance",
        str(out_prov),
    )
    assert code == 0
    collapsed = parse_complex(out_cc.read_text())
    assert collapsed.cube_counts == (8, 10, 3)
    prov_lines = [
        ln for ln in out_prov.read_text().splitlines() if ln.startswith("edge")
    ]
    assert len(prov_lines) == 10
    assert all("crosses h" in ln for ln in prov_lines)


def test_collapse_explicit_panel(capsys, tmp_path):
    out_cc = tmp_path / "out.cc"
    code, _, _ = run_cli(
        capsys,
        "collapse",
        str(DATA / "square.cc"),
        "--panel",
        "h0,h1,+",
        "-o",
        str(out_cc),
        "--provenance",
        str(tmp_path / "p"),
    )
    assert code == 0
    assert parse_complex(out_cc.read_text()).cube_counts == (4, 3)


def test_collapse_tree_is_user_error(capsys):
    code, _, err = run_cli(capsys, "collapse", str(DATA / "tree.cc"))
    assert code == 1
    assert "tree" in err


def test_run_trace(capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys,
        "run",
        str(DATA / "cube3.cc"),
        str(DATA / "trivial.act"),
        "--trace",
        str(trace_file),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert any(ln == "tree: V=8 E=7" for ln in lines)
    payload = json.loads(trace_file.read_text())
    assert payload["tree"]["cube_counts"] == [8, 7]
    assert 1 <= len(payload["steps"]) <= 4
    for u, v, hs in payload["edge_origins"]:
        assert hs and set(hs) <= {0, 1, 2}


def test_run_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "run", str(DATA / "cube3.cc"), str(DATA / "trivial.act")
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_dualize_command(capsys):
    code, out, _ = run_cli(capsys, "dualize", str(DATA / "crossing2.ws"))
    assert code == 0
    cx = parse_complex(out)
    assert cx.cube_counts == (4, 4, 1)


def test_stallings_command(capsys):
    code, out, _ = run_cli(capsys, "stallings", str(DATA / "crossing2.ws"))
    assert code == 0
    assert "tree: V=4 E=3" in out
    assert "group order: 2" in out


def test_stallings_oversized_is_user_error(capsys, tmp_path):
    points, walls = six_point_walls(*SEVEN_CUBE_SIDES)
    path = tmp_path / "seven.ws"
    path.write_text(serialize_wallspace(points, walls, [rotation(6, 1)]))
    code, _, err = run_cli(capsys, "stallings", str(path))
    assert code == 1
    assert "the limit is 1500" in err


def test_stallings_too_many_orientations_is_user_error(capsys, tmp_path):
    path = tmp_path / "crossing15.ws"
    path.write_text(serialize_wallspace(*pairwise_crossing_walls(15), []))
    code, _, err = run_cli(capsys, "stallings", str(path))
    assert code == 1
    assert "more than 1500 consistent orientations" in err


def test_run_refuses_colliding_subdivision_names(capsys, tmp_path):
    # a valid path whose reversal inverts the middle edge {a, b}, so the run
    # subdivides, and that edge's name a|b is already a vertex's name
    complex_path = tmp_path / "p4.cc"
    complex_path.write_text(
        "cubecomplex v1\nvertex a|b\nvertex a\nvertex b\nvertex s\n"
        "edge a|b a\nedge a b\nedge b s\n"
    )
    action_path = tmp_path / "rev.act"
    action_path.write_text("action v1\ngen a|b->s s->a|b a->b b->a\n")
    code, out, err = run_cli(capsys, "run", str(complex_path), str(action_path))
    assert code == 1 and out == ""
    assert err == (
        "error: subdivision names two cubes 'a|b': '|' joins the corners of "
        "a cube in its name and is reserved in vertex names\n"
    )


def test_stats_command(capsys):
    code, out, _ = run_cli(capsys, "stats", str(DATA / "cube3.cc"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hyperplanes"] == 3
    assert payload["crossing_pairs"] == 3
    assert payload["extremal_panels"] == 12


def test_export_dot_counts(capsys):
    code, out, _ = run_cli(capsys, "export-dot", str(DATA / "cube3.cc"))
    assert code == 0
    node_lines = [ln for ln in out.splitlines() if ln.strip().endswith('";')]
    edge_lines = [ln for ln in out.splitlines() if "--" in ln]
    assert len(node_lines) == 8
    assert len(edge_lines) == 12
    colors = {ln.split("color=")[1].split("]")[0] for ln in edge_lines}
    assert len(colors) == 3


def test_export_dot_dashed_diagonals(capsys, tmp_path):
    out_cc = tmp_path / "out.cc"
    out_prov = tmp_path / "out.prov"
    run_cli(
        capsys,
        "collapse",
        str(DATA / "square.cc"),
        "--panel",
        "h0,h1,+",
        "-o",
        str(out_cc),
        "--provenance",
        str(out_prov),
    )
    # collapse one more panel by hand to force a diagonal: use the conflict
    # family through the library instead
    from panelcollapse.collapse import collapse as collapse_fn
    from panelcollapse.panels import build_panel

    square = parse_complex((DATA / "square.cc").read_text())
    res = collapse_fn(
        square,
        [build_panel(square, 0, 1, "+"), build_panel(square, 1, 0, "+")],
    )
    cc = tmp_path / "diag.cc"
    prov = tmp_path / "diag.prov"
    cc.write_text(serialize_complex(res.output_complex))
    prov.write_text("\n".join(res.provenance_lines()) + "\n")
    code, out, _ = run_cli(
        capsys, "export-dot", str(cc), "--provenance", str(prov)
    )
    assert code == 0
    dashed = [ln for ln in out.splitlines() if "style=dashed" in ln]
    solid = [ln for ln in out.splitlines() if "--" in ln and "dashed" not in ln]
    assert len(dashed) == 1 and len(solid) == 2


def test_export_dot_ignores_comments_in_the_sidecar(capsys, tmp_path):
    # a comment line, a blank line and an inline comment, as in the other
    # three formats
    square = parse_complex((DATA / "square.cc").read_text())
    res = collapse(square, [build_panel(square, 0, 1, "+"), build_panel(square, 1, 0, "+")])
    cc = tmp_path / "diag.cc"
    cc.write_text(serialize_complex(res.output_complex))
    lines = res.provenance_lines()
    outputs = []
    for sidecar in (
        lines,
        ["# the crossing sets", "", lines[0] + "  # kept edge", *lines[1:]],
    ):
        prov = tmp_path / "diag.prov"
        prov.write_text("\n".join(sidecar) + "\n")
        outputs.append(run_cli(capsys, "export-dot", str(cc), "--provenance", str(prov)))
    assert outputs[0][0] == 0 and "style=dashed" in outputs[0][1]
    assert outputs[1] == outputs[0]


def test_export_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    cc = tmp_path / "names.cc"
    cc.write_text('cubecomplex v1\nvertex a"b\nvertex a\\\nedge a"b a\\\n')
    code, out, _ = run_cli(capsys, "export-dot", str(cc))
    assert code == 0
    assert out.splitlines()[2:] == [
        r'  "a\"b";',
        r'  "a\\";',
        r'  "a\"b" -- "a\\" [color=firebrick];',
        "}",
    ]


def test_export_dot_bad_wall_id(capsys, tmp_path):
    prov = tmp_path / "bad.prov"
    for sidecar, message in (
        ("edge 00 01 crosses h0\nedge 00 10 crosses hx\n", "line 2: bad wall id 'hx'"),
        # one edge twice, its ends swapped, is refused rather than overwritten
        (
            "edge 00 01 crosses h0\n# note\nedge 01 00 crosses h1\n",
            "line 3: duplicate edge '01 00'",
        ),
        # an unknown vertex or a non-edge is named with its line too
        ("edge 00 01 crosses h0\nedge 00 zz crosses h1\n", "line 2: unknown vertex 'zz'"),
        ("edge 00 01 crosses h0\nedge 00 11 crosses h1\n", "line 2: '00' '11' is not an edge"),
    ):
        prov.write_text(sidecar)
        code, out, err = run_cli(
            capsys, "export-dot", str(DATA / "square.cc"), "--provenance", str(prov)
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


def test_unknown_command_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    _, err = capsys.readouterr().out, capsys.readouterr().err


def test_missing_file_is_user_error(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.cc")
    assert code == 1 and "error" in err


def test_bad_panel_argument(capsys):
    code, _, err = run_cli(
        capsys, "collapse", str(DATA / "square.cc"), "--panel", "nonsense"
    )
    assert code == 1


def test_panel_argument_out_of_range(capsys):
    # the command names the range; the library raises a bare IndexError
    code, _, err = run_cli(
        capsys, "collapse", str(DATA / "cube3.cc"), "--panel", "h3,h0,+"
    )
    assert (code, err) == (1, "error: hyperplane id 3 out of range (0..2)\n")


def test_panel_argument_with_a_bad_side(capsys):
    # the command leaves the side to build_panel, and prints its message
    code, _, err = run_cli(
        capsys, "collapse", str(DATA / "cube3.cc"), "--panel", "h0,h1,x"
    )
    assert (code, err) == (1, "error: side must be one of ('-', '+'), got 'x'\n")


def test_collapse_panel_and_auto_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["collapse", str(DATA / "cube3.cc"), "--panel", "h0,h1,+", "--auto"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: argument --auto: not allowed with argument --panel" in err
    assert "Traceback" not in err


def test_fuzz_command(capsys, monkeypatch):
    monkeypatch.setenv("PANELCOLLAPSE_SEED", "7")
    code, out, _ = run_cli(capsys, "fuzz", "--count", "2", "--max-vertices", "40")
    assert code == 0
    assert "seed: 7" in out and out.strip().endswith("ok")


@pytest.mark.parametrize(
    "command",
    [
        ["run", str(DATA / "cube3.cc"), str(DATA / "trivial.act"), "--trace"],
        ["stallings", str(DATA / "crossing2.ws"), "--trace"],
        ["collapse", str(DATA / "cube3.cc"), "--auto", "--output"],
        ["collapse", str(DATA / "cube3.cc"), "--auto", "--provenance"],
        ["dualize", str(DATA / "crossing2.ws"), "--output"],
    ],
    ids=["run-trace", "stallings-trace", "collapse-output", "collapse-provenance",
         "dualize-output"],
)
def test_unwritable_output_is_user_error(capsys, tmp_path, command):
    target = tmp_path / "missing-directory" / "out"
    code, _, err = run_cli(capsys, *command, str(target))
    assert code == 1
    assert any(
        line.startswith(f"error: cannot write {target}:") for line in err.splitlines()
    )
    assert "Traceback" not in err


def test_binary_input_is_user_error(capsys, tmp_path):
    path = tmp_path / "binary.cc"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}:")
    assert "Traceback" not in err


# One input error per case, as (call, error, message).  A file case's call
# is the command line before the file argument, its error the file's text,
# and the command must exit 1 with ``error: `` and the message; an API
# case's call must raise the error with the message.
INPUT_ERRORS = {
    "duplicate edge line": (
        ["validate"], "cubecomplex v1\nvertex a\nvertex b\nedge a b\nedge b a\n",
        "line 5: duplicate edge 'b a'",
    ),
    "gen token without arrow": (
        ["run", str(DATA / "cube3.cc")], "action v1\ngen 000->001\ngen 000=001\n",
        "line 3: expected 'u->v' tokens, got '000=001'",
    ),
    "vertex mapped twice": (
        ["run", str(DATA / "cube3.cc")], "action v1\ngen 000->001 000->010\n",
        "line 2: '000' mapped twice",
    ),
    "unknown action declaration": (
        ["run", str(DATA / "cube3.cc")], "action v1\n\nrot 000->001\n",
        "line 3: unknown declaration 'rot'",
    ),
    "point without a name": (
        ["dualize"], "wallspace v1\npoint a\npoint\n", "line 3: point takes one name",
    ),
    "wall without a bar": (
        ["stallings"], "wallspace v1\npoint a\npoint b\nwall a b\n",
        "line 4: wall needs two sides separated by '|'",
    ),
    "duplicate points": (
        lambda: Wallspace.from_data(["a", "b", "a"], []), StructuralError,
        "duplicate points",
    ),
    "no points": (
        lambda: Wallspace.from_data([], []), StructuralError, "wallspace has no points",
    ),
    "automorphism of an unknown vertex": (
        lambda: Automorphism(hypercube_complex(2), {"00": "00", "2": "2"}),
        StructuralError, "mapping mentions unknown vertices {'2'}",
    ),
    # in canonical order: a set's order would change with the hash seed
    "automorphism of three unknown vertices": (
        lambda: Automorphism(hypercube_complex(2), {"z": "00", "x": "01", "y": "10"}),
        StructuralError, "mapping mentions unknown vertices {'x', 'y', 'z'}",
    ),
    "edge that is not a pair": (
        lambda: CubeComplex(["a", "b", "c"], [("a", "b", "c")]), StructuralError,
        "edge ('a', 'b', 'c') is not a pair",
    ),
    "convex hull of nothing": (
        lambda: hypercube_complex(2).convex_hull([]), StructuralError,
        "convex hull of an empty set",
    ),
    "transfer onto other vertices": (
        lambda: GroupAction(hypercube_complex(2), []).transfer(hypercube_complex(1)),
        PreconditionError, "transfer requires the identical vertex set",
    ),
    "subdivision under an action on another complex": (
        lambda: push_action(
            hypercube_complex(2), GroupAction(path_complex(2), [{0: 2, 2: 0}])
        ),
        PreconditionError, "action does not act on this complex",
    ),
    # sets of points and vertices are named in canonical order, whatever
    # the hash seed
    "wall that misses a point": (
        ["stallings"],
        "wallspace v1\npoint a\npoint b\npoint c\npoint d\nwall a,b | c\n",
        "wall sides must partition the points: {'a', 'b'} | {'c'}",
    ),
    "vertices that are not a cube": (
        lambda: path_complex(8).subcubes(frozenset({1, 2, 8})), StructuralError,
        "{1, 2, 8} is not a cube",
    ),
    "symmetry breaking a wall on points of mixed types": (
        lambda: Wallspace.from_data([1, "a", 2], [({1}, {"a", 2})]).wall_permutation(
            {1: "a", "a": 1}
        ),
        StructuralError, "symmetry does not preserve wall ['a', 2] | [1]",
    ),
    # a wall is named by its position: a set's repr changes with the hash seed
    "wall of three sides": (
        lambda: Wallspace.from_data(
            ["a", "b", "c"], [({"a"}, {"b", "c"}), ({"a"}, {"b"}, {"c"})]
        ),
        StructuralError, "wall 1 is not a pair of sides",
    ),
    "wall that is not a collection": (
        lambda: Wallspace.from_data(["a", "b"], [5]), StructuralError,
        "wall 0 is not a pair of sides",
    ),
    # a string is a name, not a set of points: it is not read by characters
    "wall that is a string": (
        lambda: Wallspace.from_data(["a", "b"], [({"a"}, {"b"}), "ab"]),
        StructuralError, "wall 1 is not a pair of sides",
    ),
    "side that is a string": (
        lambda: Wallspace.from_data(["a", "b", "c"], [("a", "bc")]), StructuralError,
        "wall 0 is not a pair of sides",
    ),
    # the writers refuse a name whose token would not read back as it
    "complex writer given a vertex holding a space": (
        lambda: serialize_complex(CubeComplex(["a b", "c"], [("a b", "c")])),
        StructuralError,
        "vertex 'a b' cannot be written: its token 'a b' is empty or holds "
        "whitespace or '#'",
    ),
    "complex writer given two vertices of one token": (
        lambda: serialize_complex(CubeComplex([(1, 2), "1|2"], [((1, 2), "1|2")])),
        StructuralError,
        "vertex '1|2' and vertex (1, 2) are both written '1|2'",
    ),
    "wallspace writer given a point holding an arrow": (
        lambda: serialize_wallspace(["a->b", "c"], []), StructuralError,
        "point 'a->b' cannot be written: its token 'a->b' is empty or holds "
        "whitespace or '#' or ',' or '|' or '->'",
    ),
    "wallspace writer given a wall of an unknown point": (
        lambda: serialize_wallspace(["a", "b"], [({"a"}, {"z"})]), StructuralError,
        "unknown point 'z'",
    ),
}


@pytest.mark.parametrize("name", INPUT_ERRORS)
def test_input_errors_name_their_cause(capsys, tmp_path, name):
    call, error, message = INPUT_ERRORS[name]
    if callable(call):
        with pytest.raises(error) as excinfo:
            call()
        assert str(excinfo.value) == message
    else:
        path = tmp_path / "input"
        path.write_text(error)
        assert run_cli(capsys, *call, str(path)) == (1, "", f"error: {message}\n")


def test_validate_does_not_import_numpy():
    # validating a complex loads no numpy
    script = (
        "import sys\n"
        "from panelcollapse import cli\n"
        f"assert cli.main(['validate', {str(DATA / 'cube3.cc')!r}]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(panelcollapse.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["valid; V=8 E=12 F=6 C=1; Euler=1", "False"]


def test_no_path_needs_numpy(tmp_path):
    # with numpy made unimportable: signs, rejection, collapse and stallings
    k23 = tmp_path / "k23.cc"
    lines = ["cubecomplex v1"]
    lines += [f"vertex {v}" for v in ["a", "b", "x", "y", "z"]]
    lines += [f"edge {a} {b}" for a in "ab" for b in "xyz"]
    k23.write_text("\n".join(lines) + "\n")
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from panelcollapse import cli\n"
        "from panelcollapse.complex import CubeComplex, validate_graph\n"
        "from panelcollapse.symmetry import GroupAction, run_to_tree\n"
        "def grid(k):\n"
        "    vs = [(i, j) for i in range(k + 1) for j in range(k + 1)]\n"
        "    es = [((i, j), (i + 1, j)) for i in range(k) for j in range(k + 1)]\n"
        "    es += [((i, j), (i, j + 1)) for i in range(k + 1) for j in range(k)]\n"
        "    return CubeComplex(vs, es)\n"
        "cx = grid(16)\n"
        "print(len(cx.hyperplanes()), cx.vertex_signs().shape)\n"
        "k23 = ([*'abxyz'], [(a, b) for a in 'ab' for b in 'xyz'])\n"
        "print(validate_graph(*k23).median_violation)\n"
        f"print(cli.main(['validate', {str(k23)!r}]))\n"
        "cx = grid(6)\n"
        "swap = {(i, j): (j, i) for i, j in cx.vertices}\n"
        "print(run_to_tree(cx, GroupAction(cx, [swap])).final_complex.is_tree())\n"
        f"print(cli.main(['stallings', {str(DATA / 'cube3_b3.ws')!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(panelcollapse.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[:6] == [
        "32 (289, 32)",
        "('x', 'y', 'z')",
        "invalid; median check fails on triple ('x', 'y', 'z')",
        "1",
        "True",
        "dual: V=8 E=12 F=6 C=1",
    ]
    assert "tree: V=27 E=26" in out and out[-1] == "0"


def test_the_package_runs_as_a_module():
    # ``python -m panelcollapse`` from a checkout, without an install
    proc = subprocess.run(
        [sys.executable, "-m", "panelcollapse", "validate", "tests/data/cube3.cc"],
        capture_output=True,
        text=True,
        cwd=DATA.parents[1],
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(panelcollapse.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "valid; V=8 E=12 F=6 C=1; Euler=1\n"


@pytest.mark.parametrize(
    "args",
    [["--count", "-3"], ["--max-vertices", "0"], ["--max-vertices", "1", "--count", "1"]],
    ids=["negative-count", "no-vertices", "every-draw-too-large"],
)
def test_fuzz_bad_bounds_are_user_errors(args):
    proc = subprocess.run(
        [sys.executable, "-m", "panelcollapse.cli", "fuzz", *args],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(panelcollapse.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in proc.stderr and "None" not in proc.stderr


# -- fuzzing the text formats -------------------------------------------------

FUZZ_SEEDS = {
    path.name: path.read_text()
    for path in sorted(DATA.iterdir())
    if path.suffix in (".cc", ".ws", ".act")
}
FUZZ_TOKENS = sorted(
    {tok for text in FUZZ_SEEDS.values() for tok in text.split()}
    | {"", "|", ",", "->", "-1", "h0", "999", "v2", "é", "\x00", "0" * 40}
)


@st.composite
def mutated_files(draw, seeds=FUZZ_SEEDS):
    """A seed file (by default one of tests/data) with up to four line,
    token or character edits."""
    name = draw(st.sampled_from(sorted(seeds)))
    lines = seeds[name].splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if not lines:
            lines = [""]
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "copy", "token", "char")))
        if kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "token":
            tokens = lines[i].split() or [""]
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        else:
            line = lines[i]
            j = draw(st.integers(0, len(line)))
            char = draw(st.characters(codec="utf-8"))
            lines[i] = line[:j] + char + line[j + 1 :]
    return name, "\n".join(lines) + "\n"


def _commands(name, path):
    square, cube3 = str(DATA / "square.cc"), str(DATA / "cube3.cc")
    if name.endswith(".cc"):
        return [
            ["validate", path],
            ["validate", "--json", path],
            ["hyperplanes", path],
            ["panels", "--json", path],
            ["collapse", path],
            ["collapse", "--panel", "h0,h1,+", path],
            ["run", path, str(DATA / "trivial.act")],
            ["run", path, str(DATA / "diag.act")],
            ["stats", path],
            ["export-dot", path],
        ]
    if name.endswith(".ws"):
        return [["dualize", path], ["stallings", path]]
    return [["run", square, path], ["run", cube3, path]]


def _main_in_process(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(mutated_files())
def test_mutated_inputs_exit_cleanly(case):
    # every command on a corrupted file exits 0 or 1, never with a traceback
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        for argv in _commands(name, str(path)):
            code, out, err = _main_in_process(argv)
            assert code in (0, 1), (argv, text, err)
            assert "Traceback" not in out + err, (argv, text)


@functools.cache
def _collapse_outputs():
    """For each complex of tests/data that is not a tree, the collapsed
    complex and the provenance sidecar that ``collapse`` writes."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cc, prov = Path(tmp) / "out.cc", Path(tmp) / "out.prov"
        for name in ("cube3.cc", "square.cc"):
            argv = ["collapse", str(DATA / name), "-o", str(cc), "--provenance", str(prov)]
            assert main(argv) == 0
            out[name + ".prov"] = (cc.read_text(), prov.read_text())
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_sidecars_exit_cleanly(data):
    # export-dot on a corrupted provenance sidecar exits 0 or 1, never with
    # a traceback
    outputs = _collapse_outputs()
    name, text = data.draw(
        mutated_files({name: prov for name, (_, prov) in outputs.items()})
    )
    with tempfile.TemporaryDirectory() as tmp:
        cc, prov = Path(tmp) / "out.cc", Path(tmp) / "out.prov"
        cc.write_text(outputs[name][0])
        prov.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["export-dot", str(cc), "--provenance", str(prov)])
        assert code in (0, 1), (text, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue(), text


OUTPUT_COMMANDS = [
    ["collapse", str(DATA / "cube3.cc"), "-o"],
    ["collapse", str(DATA / "cube3.cc"), "--provenance"],
    ["run", str(DATA / "cube3.cc"), str(DATA / "trivial.act"), "--trace"],
    ["stallings", str(DATA / "crossing2.ws"), "--trace"],
    ["dualize", str(DATA / "crossing2.ws"), "-o"],
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(OUTPUT_COMMANDS),
    st.sampled_from(("new-file", "directory", "missing-directory", "under-a-file")),
)
def test_output_paths_exit_cleanly(command, kind):
    # an output path is written when it names a new file and is otherwise
    # refused with exit 1 and a message, never with a traceback
    with tempfile.TemporaryDirectory() as tmp:
        blocker = Path(tmp) / "a-file"
        blocker.write_text("")
        target = {
            "new-file": Path(tmp) / "out",
            "directory": Path(tmp),
            "missing-directory": Path(tmp) / "missing" / "out",
            "under-a-file": blocker / "out",
        }[kind]
        code, out, err = _main_in_process([*command, str(target)])
        assert "Traceback" not in out + err, (command, kind)
        if kind == "new-file":
            assert code == 0 and target.is_file(), (command, err)
        else:
            assert code == 1, (command, kind, err)
            assert err.startswith(f"error: cannot write {target}:"), err


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2),
    st.one_of(
        st.integers(-3, 60).map(str),
        st.sampled_from(("", "x", "1.5", "0x10", "--", "-")),
    ),
    st.one_of(
        st.integers(-(2**70), 2**70).map(str),
        st.sampled_from(("", "x", "1.5", "seven", " 7", "-")),
    ),
)
def test_fuzz_arguments_and_seed_exit_cleanly(count, max_vertices, seed):
    argv = ["fuzz", "--count", str(count), "--max-vertices", max_vertices]
    with mock.patch.dict(os.environ, {"PANELCOLLAPSE_SEED": seed}):
        code, out, err = _main_in_process(argv)
    assert code in (0, 1), (argv, seed, err)
    assert "Traceback" not in out + err, (argv, seed)
    if code == 0:
        assert out.strip().endswith("ok"), out


# -- writers -----------------------------------------------------------------


def test_written_complexes_read_back_with_every_name():
    # ints, tuples and strings with '|' are written as their tokens, and
    # the reader gets one vertex per token back, in the same edges
    for vertices in ([1, 2, 3], [(0, 0), (0, 1), (1, 1)], ["a|b", "c", "d,e"]):
        cx = CubeComplex(vertices, list(zip(vertices, vertices[1:])))
        again = parse_complex(serialize_complex(cx))
        token = {v: format_vertex(v) for v in cx.vertices}
        assert again.vertices == tuple(token[v] for v in cx.vertices)
        assert again.edges == tuple((token[u], token[v]) for u, v in cx.edges)


@pytest.mark.parametrize(
    "vertices",
    [["", "a"], ["a#1", "b"], ["a\tb", "c"], [1, "1"], ["a", "b", ("a",)]],
    ids=["empty", "hash", "tab", "int-and-string", "tuple-and-string"],
)
def test_the_complex_writer_refuses_an_unreadable_name(vertices):
    cx = CubeComplex(vertices, list(zip(vertices, vertices[1:])))
    with pytest.raises(StructuralError, match=r"^vertex "):
        serialize_complex(cx)


def test_written_wallspaces_read_back_with_every_point():
    # points that from_data accepts: ints, strings, and both mixed
    cases = [
        ([1, 2, 3], [({1}, {2, 3}), ({1, 2}, {3})], [{1: 3, 3: 1}]),
        (["a", "b", 1], [({"a"}, {"b", 1})], [{1: "b", "b": 1}]),
        (["x", "y"], [({"x"}, {"y"})], []),
    ]
    for points, walls, syms in cases:
        token = {p: format_vertex(p) for p in points}
        read_points, read_walls, read_syms = parse_wallspace(
            serialize_wallspace(points, walls, syms)
        )
        assert read_points == [token[p] for p in points]
        assert read_walls == [
            tuple(frozenset(token[p] for p in side) for side in wall) for wall in walls
        ]
        assert read_syms == [{token[u]: token[v] for u, v in s.items()} for s in syms]


def test_the_wallspace_writer_orders_int_points_by_value():
    # sides and symmetries follow canonical_vertex_order, not the tokens' order
    text = serialize_wallspace([1, 2, 10], [({1}, {2, 10})], [{10: 2, 2: 10, 1: 1}])
    assert text == (
        "wallspace v1\npoint 1\npoint 2\npoint 10\n"
        "wall 1 | 2,10\nsym 1->1 2->10 10->2\n"
    )


def test_the_wallspace_writer_keeps_string_files_as_they_were():
    # string points are written as themselves, sides and symmetries sorted
    text = (DATA / "crossing2.ws").read_text()
    assert serialize_wallspace(*parse_wallspace(text)) == text


@pytest.mark.parametrize(
    "points",
    [["", "a"], ["a b", "c"], ["a#", "b"], ["a,b", "c"], ["a|b", "c"], ["a->b", "c"],
     [1, "1"]],
    ids=["empty", "space", "hash", "comma", "bar", "arrow", "int-and-string"],
)
def test_the_wallspace_writer_refuses_an_unreadable_point(points):
    with pytest.raises(StructuralError, match=r"^point "):
        serialize_wallspace(points, [({points[0]}, {points[1]})])
