"""Combinatorial engine for finite CAT(0) cube complexes.

Core pieces: median-graph representation with derived cubes and walls
(:mod:`.complex`), extremal panel detection (:mod:`.panels`), panel collapse
with provenance (:mod:`.collapse`), finite group actions and the iterated
equivariant collapse driver (:mod:`.symmetry`), and finite wallspace
dualization feeding the same pipeline (:mod:`.pocset`).
"""

__version__ = "0.1.0"

from .collapse import (
    COMPLETELY_EXTERNAL,
    EXTERNAL,
    INTERNAL,
    CollapseResult,
    CubeClassification,
    DiagonalCube,
    Fundament,
    classify,
    collapse,
    fundament,
    hyperplane_provenance,
)
from .complex import CubeComplex, Hyperplane, ValidationReport, validate_graph
from .errors import (
    FileFormatError,
    InternalInvariantError,
    InvalidComplexError,
    PreconditionError,
    StructuralError,
    UserInputError,
)
from .panels import (
    Block,
    Panel,
    block,
    build_panel,
    codim2_hyperplanes,
    extremal_panels,
    find_extremal_panel,
    is_extremal,
    no_facing_panels,
)
from .pocset import (
    DualComplexInfo,
    StallingsResult,
    Wallspace,
    dualize_details,
    stallings_pipeline,
)
from .symmetry import (
    Automorphism,
    ComplexityVector,
    GroupAction,
    RunTrace,
    complexity,
    equivariant_collapse_step,
    iter_steps,
    push_action,
    run_to_tree,
)

__all__ = [
    # complex
    "CubeComplex",
    "Hyperplane",
    "ValidationReport",
    "validate_graph",
    # errors
    "FileFormatError",
    "InternalInvariantError",
    "InvalidComplexError",
    "PreconditionError",
    "StructuralError",
    "UserInputError",
    # panels
    "Block",
    "Panel",
    "block",
    "build_panel",
    "codim2_hyperplanes",
    "extremal_panels",
    "find_extremal_panel",
    "is_extremal",
    "no_facing_panels",
    # collapse
    "COMPLETELY_EXTERNAL",
    "EXTERNAL",
    "INTERNAL",
    "CollapseResult",
    "CubeClassification",
    "DiagonalCube",
    "Fundament",
    "classify",
    "collapse",
    "fundament",
    "hyperplane_provenance",
    # symmetry
    "Automorphism",
    "ComplexityVector",
    "GroupAction",
    "RunTrace",
    "complexity",
    "equivariant_collapse_step",
    "iter_steps",
    "push_action",
    "run_to_tree",
    # pocset
    "DualComplexInfo",
    "StallingsResult",
    "Wallspace",
    "dualize_details",
    "stallings_pipeline",
]
