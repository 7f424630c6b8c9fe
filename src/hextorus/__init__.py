"""Monohedral hexagonal tilings of flat tori.

Constructs the minimal side-to-side tilings of a flat torus by congruent
hexagons, validates arbitrary candidate tilings, enumerates their coverings
through Hermite-normal-form sublattices, samples the moduli regions of the
constructions, and renders conformal pictures in the plane and in R3.

``embed`` and ``moduli``, and the names they export, load on first use
(PEP 562), so a program that neither renders nor samples never imports them.
"""

import importlib

from .construct import (
    B_POINT,
    FreeVector,
    G_POINT,
    G_PRIME,
    GenericityWarning,
    ModuliViolation,
    OMEGA3,
    PlanarPatch,
    R_POINT,
    TorusTiling,
    central_minimal,
    planar_patch,
    strip_tiling,
    type_i_minimal,
    type_ii_minimal,
    type_iii_minimal,
)
from .covering import MINIMAL_TILE_COUNT, build_cover, enumerate_coverings, is_minimal
from .geom import (
    Congruence,
    DegenerateError,
    Isometry,
    MERGE_TOL,
    Polygon,
    congruent,
    corner_angle,
    corner_angles,
    is_simple,
    signed_area,
)
from .hexagon import HexagonSpec, NotSimpleError, TypeReport, classify, spec_from_polygon
from .lattice import (
    HnfTriple,
    IDENTITY_MAP,
    IntBasis,
    SingularBasisError,
    UnimodularMap,
    covering_modulus,
    enumerate_hnf,
    hnf_of_basis,
    lattices_isometric,
    rectangular_solve,
    sl2_reduce,
)
from .validate import (
    TilingCensus,
    ToleranceAmbiguityError,
    ValidationReport,
    census,
    validate,
)

__version__ = "0.1.0"

# the submodules that load on first use, with the names served from each
_LAZY = {
    "embed": (
        "AccuracyError",
        "CurveParams",
        "HopfEmbedding",
        "IncompatibilityError",
        "Mesh3",
        "OMEGA3_CURVE",
        "PoleError",
        "RectEmbedding",
        "conformality",
        "curve_invariants",
        "drape_tiling",
        "hopf_torus_mesh",
        "rect_embed",
        "rect_torus_mesh",
    ),
    "moduli": (
        "Arc",
        "RegionGrid",
        "connected_components",
        "membership",
        "membership_mask",
        "sample_region",
        "type_iii_boundary",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_HOME:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})

__all__ = [
    "AccuracyError",
    "Arc",
    "B_POINT",
    "Congruence",
    "CurveParams",
    "DegenerateError",
    "FreeVector",
    "G_POINT",
    "G_PRIME",
    "GenericityWarning",
    "HexagonSpec",
    "HnfTriple",
    "HopfEmbedding",
    "IDENTITY_MAP",
    "IncompatibilityError",
    "IntBasis",
    "Isometry",
    "MERGE_TOL",
    "MINIMAL_TILE_COUNT",
    "Mesh3",
    "ModuliViolation",
    "NotSimpleError",
    "OMEGA3",
    "OMEGA3_CURVE",
    "PlanarPatch",
    "PoleError",
    "Polygon",
    "R_POINT",
    "RectEmbedding",
    "RegionGrid",
    "SingularBasisError",
    "TilingCensus",
    "ToleranceAmbiguityError",
    "TorusTiling",
    "TypeReport",
    "UnimodularMap",
    "ValidationReport",
    "build_cover",
    "census",
    "central_minimal",
    "classify",
    "conformality",
    "congruent",
    "connected_components",
    "corner_angle",
    "corner_angles",
    "covering_modulus",
    "curve_invariants",
    "drape_tiling",
    "enumerate_coverings",
    "enumerate_hnf",
    "hnf_of_basis",
    "hopf_torus_mesh",
    "is_minimal",
    "is_simple",
    "lattices_isometric",
    "membership",
    "membership_mask",
    "planar_patch",
    "rect_embed",
    "rect_torus_mesh",
    "rectangular_solve",
    "sample_region",
    "signed_area",
    "sl2_reduce",
    "spec_from_polygon",
    "strip_tiling",
    "type_i_minimal",
    "type_ii_minimal",
    "type_iii_minimal",
    "type_iii_boundary",
    "validate",
]
