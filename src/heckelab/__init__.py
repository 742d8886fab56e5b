"""Computational laboratory for Hecke orbits of j-invariants: heights over
orbits, equidistribution statistics, quadratic lattices, CM points, Tate
valuation orbits, and isogenous-reduction prime scans.
"""

from .hecke import (
    CosetTriple,
    HeckeOrbit,
    OrbitPoint,
    coset_reps,
    e_n,
    equi_fraction,
    hecke_orbit,
    orbit_symmetry_check,
)
from .heights import (
    HeightSeriesPoint,
    IntegralEstimate,
    cusp_height,
    global_identity_residual,
    heuristic_integral,
    local_arch_sum,
    phi_value,
)
from .numerics import (
    DEFAULT_PRECISION,
    ModularMatrix,
    Precision,
    PrecisionOverflowError,
    UpperHalfPoint,
    eval_delta,
    eval_e4,
    eval_e6,
    eval_j,
    log_petersson_norm_delta,
    petersson_norm_delta,
    reduce_to_fundamental_domain,
    tau_from_j,
)

__all__ = [
    "CosetTriple",
    "DEFAULT_PRECISION",
    "HeckeOrbit",
    "HeightSeriesPoint",
    "IntegralEstimate",
    "ModularMatrix",
    "OrbitPoint",
    "Precision",
    "PrecisionOverflowError",
    "UpperHalfPoint",
    "coset_reps",
    "cusp_height",
    "e_n",
    "equi_fraction",
    "eval_delta",
    "eval_e4",
    "eval_e6",
    "eval_j",
    "global_identity_residual",
    "hecke_orbit",
    "heuristic_integral",
    "local_arch_sum",
    "log_petersson_norm_delta",
    "orbit_symmetry_check",
    "petersson_norm_delta",
    "phi_value",
    "reduce_to_fundamental_domain",
    "tau_from_j",
]

__version__ = "0.1.0"
