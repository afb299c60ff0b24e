"""Norms of piecewise radial power functions on R^n under ball-averaged
integral norms, and the geometric constants of the resulting spaces."""

from __future__ import annotations

from morreyconst.constants import (
    ConstantEstimate,
    ConstantKind,
    NotInSpace,
    ZeroFunction,
    estimate_constant,
    ratio,
    theorem2_lower_bound,
    witness_pair_morrey,
    witness_pair_small_morrey,
)
from morreyconst.integrate import (
    BallIntegral,
    IntegrationSettings,
    integrate_abs_pow_ball,
    mc_integrate,
)
from morreyconst.model import (
    Ball,
    FunctionParseError,
    MixedExponentOverlap,
    Mode,
    PiecewiseRadialFunction,
    RadialPiece,
    SpaceParams,
    add,
    canonicalize,
    format_function,
    parse_function,
    scale,
    subtract,
    truncate,
)
from morreyconst.norms import (
    NormResult,
    closed_form_power_norm,
    norm,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BallIntegral",
    "ConstantEstimate",
    "ConstantKind",
    "FunctionParseError",
    "IntegrationSettings",
    "MixedExponentOverlap",
    "Mode",
    "NormResult",
    "NotInSpace",
    "PiecewiseRadialFunction",
    "RadialPiece",
    "SpaceParams",
    "ZeroFunction",
    "add",
    "canonicalize",
    "closed_form_power_norm",
    "estimate_constant",
    "format_function",
    "integrate_abs_pow_ball",
    "mc_integrate",
    "norm",
    "parse_function",
    "ratio",
    "scale",
    "subtract",
    "theorem2_lower_bound",
    "truncate",
    "witness_pair_morrey",
    "witness_pair_small_morrey",
    "__version__",
]
