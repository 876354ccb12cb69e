"""Random complexes, panel families, and actions for fuzzing.

Random CAT(0) cube complexes are produced by dualizing random finite
wallspaces (every finite CAT(0) cube complex arises this way), optionally
with a cyclic point symmetry so that nontrivial inversion-free actions and
genuinely conflicting panel orbits show up.  A draw collects each wall as
the unordered pair of its sides; only ``Wallspace.from_data`` decides a
wall's canonical form, which side comes first and the order of the walls.
The seed can be pinned through the ``PANELCOLLAPSE_SEED`` environment
variable.
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
MAX_DIMENSION = 4  # draws of a higher dimension are rejected
SYMMETRIC_SHARE = 0.5  # chance that a draw has a cyclic symmetry
ATTEMPTS = 60  # draws before random_complex_with_action gives up


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
    min_dimension: int = 0


def random_wallspace(rng: random.Random, cfg: GeneratorConfig = GeneratorConfig()):
    """A plain random wallspace (no symmetry)."""
    n = rng.randint(3, cfg.max_points)
    points = [f"p{i}" for i in range(n)]
    everything = frozenset(points)
    walls = set()
    for _ in range(rng.randint(2, cfg.max_walls)):
        side = frozenset(rng.sample(points, rng.randint(1, n - 1)))
        walls.add(frozenset((side, everything - side)))
    return Wallspace.from_data(points, walls), None


def cyclic_wallspace(rng: random.Random, cfg: GeneratorConfig = GeneratorConfig()):
    """A wallspace whose walls are closed under a cyclic point rotation."""
    n = rng.randint(4, cfg.max_points)
    points = [f"p{i}" for i in range(n)]
    everything = frozenset(points)
    shift = rng.randint(1, n - 1)
    rotate = {f"p{i}": f"p{(i + shift) % n}" for i in range(n)}
    walls = set()
    for _ in range(rng.randint(1, 3)):
        side = frozenset(rng.sample(points, rng.randint(1, n - 1)))
        for _ in range(n):
            walls.add(frozenset((side, everything - side)))
            side = frozenset(rotate[p] for p in side)
        if len(walls) >= cfg.max_walls:
            break
    return Wallspace.from_data(points, walls), rotate


def random_complex_with_action(
    rng: random.Random, cfg: GeneratorConfig = GeneratorConfig()
):
    """A random validated complex within the size bounds, together with an
    inversion-free action on it (possibly trivial, after subdivision if the
    raw symmetry inverted a wall)."""
    last_error = None
    for _ in range(ATTEMPTS):
        symmetric = rng.random() < SYMMETRIC_SHARE
        try:
            ws, rotate = (
                cyclic_wallspace(rng, cfg) if symmetric else random_wallspace(rng, cfg)
            )
            info = dualize_details(ws)
            cx = info.complex
            if cx.n > cfg.max_vertices or cx.dimension > MAX_DIMENSION:
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
        f"no draw in {ATTEMPTS} had at most {cfg.max_vertices} vertices and "
        f"dimension {cfg.min_dimension} to {MAX_DIMENSION}"
    )
    raise StructuralError(f"could not generate a complex: {reason}")

