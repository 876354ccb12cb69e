#!/usr/bin/env python3
"""Random descent experiment: dualize random wallspaces, run the equivariant
collapse driver, and summarize step counts, diagonal usage, and descent
profiles.  Seeded via --seed or the PANELCOLLAPSE_SEED environment variable.
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from panelcollapse.randgen import (
    GeneratorConfig,
    random_complex_with_action,
    seed_from_env,
)
from panelcollapse.symmetry import run_to_tree


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-vertices", type=int, default=200)
    parser.add_argument("--min-dimension", type=int, default=2)
    args = parser.parse_args()
    seed = args.seed if args.seed is not None else seed_from_env()
    rng = random.Random(seed)
    gen_cfg = GeneratorConfig(
        max_vertices=args.max_vertices, min_dimension=args.min_dimension
    )

    print(f"seed={seed} runs={args.runs}")
    dims = Counter()
    group_orders = Counter()
    steps_hist = Counter()
    diagonals = 0
    started = time.perf_counter()
    for i in range(args.runs):
        cx, action = random_complex_with_action(rng, gen_cfg)
        trace = run_to_tree(cx, action)
        dims[cx.dimension] += 1
        group_orders[action.order] += 1
        steps_hist[trace.step_count] += 1
        diagonals += sum(len(s.result.diagonal_edges) for s in trace.steps)
        descent = " > ".join(
            str(s.complexity_before) for s in trace.steps
        )
        print(
            f"run {i:3d}: V={cx.n:4d} dim={cx.dimension} |G|={action.order:3d} "
            f"steps={trace.step_count:3d} "
            f"tree V={trace.final_complex.cube_counts[0]}"
            + (f"  [{descent} > 0]" if trace.steps else "")
        )
    elapsed = time.perf_counter() - started
    print(f"\nelapsed: {elapsed:.1f}s")
    print(f"dimensions: {dict(sorted(dims.items()))}")
    print(f"group orders: {dict(sorted(group_orders.items()))}")
    print(f"step histogram: {dict(sorted(steps_hist.items()))}")
    print(f"diagonal edges created: {diagonals}")


if __name__ == "__main__":
    main()
