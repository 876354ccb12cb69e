#!/usr/bin/env python3
"""Benchmark for panelcollapse: seeded workloads, output checks, layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  The run

1. times set-up (import plus seeded generation of the raw inputs) in
   SETUP_PROBES fresh interpreters and keeps the median;
2. runs passes over every instance of the workload until ``--seconds`` have
   gone (at least one pass), checking each instance's output;
3. with ``--trace 1``, spends half the time untraced and half with the
   tracer's wrappers installed, then removes them.

Every time it reports is scaled to a reference host speed by a calibration
kernel timed around each chunk of work (``hostspeed.py``; NOTES.md says why);
the raw times are printed beside them.

It prints every metric by name with its unit, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and the metrics that
BENCHMARK.json lists for the mode (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  An instance that raises counts as failed and is listed
by index and exception type.  A finished instance whose output fails a check,
or any instance whose outcome differs between passes, between the traced and
untraced passes, or from an earlier run of the same source and seed, makes
the run incorrect and the exit code 1.  Per-run outcomes and spans go to
``.perfbench_runs/`` in the checkout.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
SETUP_PROBES = 5
WORKLOADS = ("wallspace_mix", "grid_transpose", "box_symmetric", "build_large")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters, so import is cold each
    time; each probe scales its time by kernel blocks it runs just before
    and after it."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def run_instance(instance):
    """Raw latency (program time only) and outcome of one instance: ("ok",
    digest, steps, cubes), ("raised", type, message) or ("check", message)."""
    from workloads import CheckFailed

    start = time.perf_counter()
    try:
        result = instance.run()
    except Exception as exc:  # every failure is counted and listed
        latency = time.perf_counter() - start
        message = (str(exc).splitlines() or [""])[0][:160]
        return latency, ("raised", type(exc).__name__, message)
    latency = time.perf_counter() - start
    try:
        out = instance.check(result)
    except CheckFailed as exc:
        return latency, ("check", str(exc))
    return latency, ("ok", out.digest, out.steps, [list(c) for c in out.cubes])


def run_pass(instances, before, tracer=None):
    """One pass over every instance, in chunks of about CHUNK_S seconds with
    a kernel block after each; ``before`` is the block that precedes the
    pass.  Returns the pass and the last block."""
    gc.collect()
    raw, scaled, outcomes = [], [], []
    chunk_start = time.perf_counter()
    for index, instance in enumerate(instances):
        if tracer is not None:
            tracer.instance = index
        latency, outcome = run_instance(instance)
        raw.append(latency)
        outcomes.append(outcome)
        if time.perf_counter() - chunk_start >= hostspeed.CHUNK_S or index == len(instances) - 1:
            after = hostspeed.block()
            factor = hostspeed.scale(before, after)
            scaled.extend(t * factor for t in raw[len(scaled):])
            before = after
            chunk_start = time.perf_counter()
    return {"latencies": scaled, "wall": sum(scaled), "raw_wall": sum(raw),
            "outcomes": outcomes}, before


def run_passes(instances, seconds, tracer=None):
    passes = []
    deadline = time.perf_counter() + seconds
    before = hostspeed.block()
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        result, before = run_pass(instances, before, tracer)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = tracer.spans()
        passes.append(result)
    return passes


def median_pass(passes):
    return sorted(passes, key=lambda p: p["wall"])[(len(passes) - 1) // 2]


def source_digest() -> str:
    """Hash of the package and benchmark sources that decide the outcomes."""
    h = hashlib.sha256()
    for path in sorted((SRC / "panelcollapse").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(args, outcomes) -> bool:
    """True if no earlier run of this source, workload and seed in the
    checkout disagrees; records this run's outcomes for later runs."""
    path = OUT / f"outcomes-{args.workload}-{args.seed}-{source_digest()}.json"
    text = json.dumps(outcomes)
    if path.exists():
        return json.loads(path.read_text()) == json.loads(text)
    OUT.mkdir(exist_ok=True)
    path.write_text(text)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "panelcollapse" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/panelcollapse", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        before = hostspeed.block()
        start = time.perf_counter()
        import workloads

        workloads.generate(args.workload, args.seed)
        elapsed = time.perf_counter() - start
        print(elapsed * hostspeed.scale(before, hostspeed.block()))
        return 0

    import panelcollapse
    import workloads

    if Path(panelcollapse.__file__).resolve().parent != (SRC / "panelcollapse").resolve():
        print(f"error: imported panelcollapse from {panelcollapse.__file__}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = setup_seconds(args)
    instances = workloads.generate(args.workload, args.seed)

    untimed_share = 0.5 if args.trace else 1.0
    plain = run_passes(instances, args.seconds * untimed_share)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced = run_passes(instances, args.seconds / 2, tracer)

    reference = plain[0]["outcomes"]
    consistent = all(p["outcomes"] == reference for p in plain + traced)
    repeatable = compare_with_earlier_runs(args, reference)
    failures = [(i, o[1], o[2]) for i, o in enumerate(reference) if o[0] == "raised"]
    bad = [(i, o[1]) for i, o in enumerate(reference) if o[0] == "check"]
    # an operation is an instance of the seeded input set; every pass repeats
    # it with the identical outcome (checked above), so it counts once
    attempted = len(instances)
    failed = len(failures) + len(bad)

    chosen_plain = median_pass(plain)
    wall_s = chosen_plain["wall"]
    per_instance = [statistics.median(times) for times in zip(*(p["latencies"] for p in plain))]
    deciles = statistics.quantiles(per_instance, n=10) if len(per_instance) > 1 else per_instance * 9
    steps = sum(o[2] for o in reference if o[0] == "ok")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "instance_p50_ms": (statistics.median(per_instance) * 1e3, "ms"),
        "instance_p90_ms": (deciles[8] * 1e3, "ms"),
        "steps_per_s": (steps / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    if traced:
        chosen = median_pass(traced)
        self_total = sum(v for k, v in chosen["layers"].items() if k.endswith(".self_s"))
        consistent = consistent and self_total <= chosen["raw_wall"]
        # layer times take the pass's mean scale, like the pass itself
        factor = chosen["wall"] / chosen["raw_wall"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in chosen["layers"].items():
            if name.endswith("_s"):
                metrics[name] = (value * factor, "s")
            else:
                metrics[name] = (value, units.get(name, "count"))
        metrics["trace.wall_s"] = (chosen["wall"], "s")
        metrics["trace.overhead_frac"] = (chosen["wall"] / wall_s - 1, "ratio")
    correct = consistent and repeatable and not bad

    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances "
          f"({len(instances) // 10} beyond p90), {len(plain)} untraced and "
          f"{len(traced)} traced passes, {steps} collapse steps per pass")
    for label, kind in (("reference", "wall"), ("raw", "raw_wall")):
        print(f"  {label} pass times (s): " + " ".join(f"{p[kind]:.3f}" for p in plain)
              + (" | traced: " + " ".join(f"{p[kind]:.3f}" for p in traced) if traced else ""))
    print(f"  host slowdown against the reference: {chosen_plain['raw_wall'] / wall_s:.3f}x")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    by_kind = {}
    for index, kind, message in failures:
        by_kind.setdefault(kind, []).append(index)
    for kind, indices in by_kind.items():
        print(f"  failed: {len(indices)} instances raised {kind}: {indices}")
    for index, message in bad:
        print(f"  WRONG OUTPUT instance {index} ({instances[index].label}): {message}")
    if not consistent:
        print("  WRONG OUTPUT: outcomes differ between passes or between traced and untraced,"
              " or the layers' self times exceed the traced pass")
    if not repeatable:
        print("  WRONG OUTPUT: outcomes differ from an earlier run of this source and seed")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    stem.with_suffix(".outcomes.json").write_text(json.dumps(
        {"labels": [i.label for i in instances], "outcomes": reference}, indent=0))
    if traced:
        stem.with_suffix(".spans.json").write_text(json.dumps(chosen["spans"]))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
