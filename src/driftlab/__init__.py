"""driftlab: a numerical laboratory for critical drift-diffusion on the torus."""

__version__ = "0.1.0"

from .grids import (
    GridSpec,
    ScalarField,
    VelocityField,
    periodic_distance,
    to_physical,
    to_spectral,
)
from .operators import (
    NormRecord,
    advect,
    fractional_laplacian_spectral,
    gradient,
    inner,
    norms,
    random_band_limited,
    riesz_transform,
)
from .spaces import (
    ClassParams,
    bmo_norm,
    check_class_membership,
    holder_from_classes,
    holder_from_lp,
    holder_seminorm_direct,
    lp_bands,
    make_test_function,
)
from .evolution import (
    SimConfig,
    VelocityHistory,
    VelocitySpec,
    run_dual,
    run_forward,
)
from .verification import SUITE_REGISTRY, VerificationReport, run_suite

__all__ = [
    "ClassParams",
    "SimConfig",
    "SUITE_REGISTRY",
    "VelocityHistory",
    "VelocitySpec",
    "VerificationReport",
    "bmo_norm",
    "check_class_membership",
    "holder_from_classes",
    "holder_from_lp",
    "holder_seminorm_direct",
    "lp_bands",
    "make_test_function",
    "run_dual",
    "run_forward",
    "run_suite",
    "GridSpec",
    "ScalarField",
    "VelocityField",
    "NormRecord",
    "advect",
    "fractional_laplacian_spectral",
    "gradient",
    "inner",
    "norms",
    "periodic_distance",
    "random_band_limited",
    "riesz_transform",
    "to_physical",
    "to_spectral",
]
