"""Random complexes, panel families, and actions for fuzzing.

Random CAT(0) cube complexes are produced by dualizing random finite
wallspaces (every finite CAT(0) cube complex arises this way), optionally
with a cyclic point symmetry so that nontrivial inversion-free actions and
genuinely conflicting panel orbits show up.  The seed can be pinned through
the ``PANELCOLLAPSE_SEED`` environment variable.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .errors import StructuralError, UserInputError
from .pocset import Wallspace, dualize_details, symmetry_automorphism
from .symmetry import GroupAction, push_action

__all__ = [
    "GeneratorConfig",
    "random_complex_with_action",
    "random_wallspace",
    "seed_from_env",
]

SEED_ENV_VAR = "PANELCOLLAPSE_SEED"


def seed_from_env(default: int = 20240) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise StructuralError(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


@dataclass
class GeneratorConfig:
    max_points: int = 9
    max_walls: int = 8
    max_vertices: int = 200
    max_dimension: int = 4
    min_dimension: int = 0
    symmetric_share: float = 0.5


def random_wallspace(rng: random.Random, cfg: GeneratorConfig = GeneratorConfig()):
    """A plain random wallspace (no symmetry)."""
    n = rng.randint(3, cfg.max_points)
    points = [f"p{i}" for i in range(n)]
    walls = []
    seen = set()
    for _ in range(rng.randint(2, cfg.max_walls)):
        size = rng.randint(1, n - 1)
        side = frozenset(rng.sample(points, size))
        other = frozenset(points) - side
        key = min(
            (tuple(sorted(side)), tuple(sorted(other))),
            (tuple(sorted(other)), tuple(sorted(side))),
        )
        if key in seen:
            continue
        seen.add(key)
        walls.append((side, other))
    if not walls:
        walls.append((frozenset(points[:1]), frozenset(points[1:])))
    return Wallspace.from_data(points, walls), None


def cyclic_wallspace(rng: random.Random, cfg: GeneratorConfig = GeneratorConfig()):
    """A wallspace whose walls are closed under a cyclic point rotation."""
    n = rng.randint(4, cfg.max_points)
    points = [f"p{i}" for i in range(n)]
    shift = rng.randint(1, n - 1)
    rotate = {f"p{i}": f"p{(i + shift) % n}" for i in range(n)}
    walls = set()
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, n - 1)
        side = frozenset(rng.sample(points, size))
        for _ in range(n):
            other = frozenset(points) - side
            key = min(
                (tuple(sorted(side)), tuple(sorted(other))),
                (tuple(sorted(other)), tuple(sorted(side))),
            )
            walls.add(key)
            side = frozenset(rotate[p] for p in side)
        if len(walls) >= cfg.max_walls:
            break
    wall_list = [(frozenset(a), frozenset(b)) for a, b in sorted(walls)]
    return Wallspace.from_data(points, wall_list), rotate


def random_complex_with_action(
    rng: random.Random, cfg: GeneratorConfig = GeneratorConfig(), attempts: int = 60
):
    """A random validated complex within the size bounds, together with an
    inversion-free action on it (possibly trivial, after subdivision if the
    raw symmetry inverted a wall)."""
    last_error = None
    for _ in range(attempts):
        symmetric = rng.random() < cfg.symmetric_share
        try:
            ws, rotate = (
                cyclic_wallspace(rng, cfg) if symmetric else random_wallspace(rng, cfg)
            )
            info = dualize_details(ws)
            cx = info.complex
            if cx.n > cfg.max_vertices or cx.dimension > cfg.max_dimension:
                continue
            if cx.dimension < cfg.min_dimension:
                continue
            if rotate is None:
                return cx, GroupAction(cx, [])
            action = GroupAction(cx, [symmetry_automorphism(info, rotate)])
            if not action.is_inversion_free:
                sub, action = push_action(cx, action)
                if sub.n > cfg.max_vertices:
                    return cx, GroupAction(cx, [])
                cx = sub
            return cx, action
        except UserInputError as exc:  # pragma: no cover - generator retry path
            last_error = exc
            continue
    reason = last_error or (
        f"no draw in {attempts} had at most {cfg.max_vertices} vertices and "
        f"dimension {cfg.min_dimension} to {cfg.max_dimension}"
    )
    raise StructuralError(f"could not generate a complex: {reason}")

