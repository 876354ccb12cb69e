"""Outside-in spans around the package's layer boundaries.

``Tracer.installed()`` replaces each module or class attribute that a caller
looks up (``symmetry.find_extremal_panel``, ``CubeComplex.__init__``, ...)
with a wrapper that records a span and restores the original on exit, so the
untraced passes never run through a wrapper.  Spans live in flat in-memory
lists (name, start, end, parent, instance) until the benchmark writes them
out.  ``layer_metrics`` turns the spans of one pass into per-layer self times,
call counts and the work counts gathered by the wrappers' hooks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

from panelcollapse import panels, pocset, symmetry
from panelcollapse.complex import CubeComplex
from panelcollapse.symmetry import GroupAction

# the package re-exports the function ``collapse`` under the module's name
collapse = importlib.import_module("panelcollapse.collapse")


def _count_build(counts, args, result):
    cx = args[0]
    counts["complex.build.vertices"] += cx.n
    counts["complex.build.cubes"] += sum(cx.cube_counts)


def _count_diagonals(counts, args, result):
    counts["collapse.diagonal_edges"] += len(result.diagonal_edges)


def _count_group(counts, args, result):
    counts["symmetry.group_order"] = max(counts["symmetry.group_order"], args[0].order)


def _count_orbit(counts, args, result):
    counts["symmetry.orbit_panels"] += len(result)


def _count_steps(counts, args, result):
    counts["symmetry.steps"] += result.step_count


def _count_dual(counts, args, result):
    counts["pocset.dual_vertices"] += result.complex.n


# (owner, attribute, span name, hook); a function imported into several
# modules is wrapped in each module that calls it, under one span name.
TARGETS = (
    (CubeComplex, "__init__", "complex.build", _count_build),
    (CubeComplex, "_compute_hyperplanes", "complex.hyperplanes", None),
    (symmetry, "find_extremal_panel", "panels.find_extremal_panel", None),
    (panels, "build_panel", "panels.build_panel", None),
    (symmetry, "build_panel", "panels.build_panel", None),
    (panels, "codim2_hyperplanes", "panels.codim2_hyperplanes", None),
    (symmetry, "no_facing_panels", "panels.no_facing_panels", None),
    (collapse, "no_facing_panels", "panels.no_facing_panels", None),
    (symmetry, "collapse", "collapse.collapse", _count_diagonals),
    (collapse, "classify", "collapse.classify", None),
    (collapse, "fundament", "collapse.fundament", None),
    (symmetry, "hyperplane_provenance", "collapse.hyperplane_provenance", None),
    (collapse, "hyperplane_provenance", "collapse.hyperplane_provenance", None),
    (GroupAction, "__init__", "symmetry.group_action", _count_group),
    (GroupAction, "panel_orbit", "symmetry.panel_orbit", _count_orbit),
    (GroupAction, "inversions", "symmetry.inversions", None),
    (GroupAction, "transfer", "symmetry.transfer", None),
    (symmetry, "complexity", "symmetry.complexity", None),
    (symmetry, "run_to_tree", "symmetry.run_to_tree", _count_steps),
    (pocset, "run_to_tree", "symmetry.run_to_tree", _count_steps),
    (pocset, "push_action", "symmetry.push_action", None),
    (pocset, "dualize_details", "pocset.dualize_details", _count_dual),
    (pocset, "stallings_pipeline", "pocset.stallings_pipeline", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
COUNTS = (
    "complex.build.vertices",
    "complex.build.cubes",
    "collapse.diagonal_edges",
    "symmetry.group_order",
    "symmetry.orbit_panels",
    "symmetry.steps",
    "pocset.dual_vertices",
)


class Tracer:
    def __init__(self):
        self.instance = -1
        self.reset()

    def reset(self):
        """Start a new pass: drop its spans and zero its counts."""
        self.names: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.instances: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, hook):
        code = SPAN_NAMES.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.names)
            self.names.append(code)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.instances.append(self.instance)
            self.ends.append(0)
            self._stack.append(span)
            self.starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[span] = time.perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> dict:
        """The current pass's spans as JSON-ready columns (times in ns)."""
        return {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start_ns", "end_ns", "parent", "instance"],
            "spans": [
                list(row)
                for row in zip(self.names, self.starts, self.ends, self.parents, self.instances)
            ],
        }

    def layer_metrics(self) -> dict:
        """Self time (span minus direct children) and calls per span name,
        plus the derived per-layer figures, for the current pass."""
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_ns = dict.fromkeys(SPAN_NAMES, 0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        rebuild_ns = 0
        orbit_builds = 0
        build, collapse_code = SPAN_NAMES.index("complex.build"), SPAN_NAMES.index("collapse.collapse")
        build_panel, orbit = SPAN_NAMES.index("panels.build_panel"), SPAN_NAMES.index("symmetry.panel_orbit")
        for i in range(n):
            name, p = self.names[i], self.parents[i]
            own = self.ends[i] - self.starts[i] - child[i]
            self_ns[SPAN_NAMES[name]] += own
            calls[SPAN_NAMES[name]] += 1
            if p >= 0 and name == build and self.names[p] == collapse_code:
                rebuild_ns += own
            if p >= 0 and name == build_panel and self.names[p] == orbit:
                orbit_builds += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        out["collapse.output_rebuild_s"] = rebuild_ns / 1e9
        out["symmetry.orbit_useful_ratio"] = (
            self.counts["symmetry.orbit_panels"] / orbit_builds if orbit_builds else 0.0
        )
        return out
