"""Secrecy-rate analysis for the linear deterministic wiretap channel with a helper."""

from .bounds import UpperBounds, gaussian_upper_bounds, upper_bounds
from .errors import ParameterError
from .gaussian import (
    GaussianParams,
    GaussianRateBreakdown,
    correspondence,
    gaussian_rate,
    level_rate,
    odd_level_sum,
    to_fraction,
)
from .ldm import ChannelParams, ldm_channel
from .scheme import (
    Allocation,
    CaseTag,
    LinearScheme,
    RateBreakdown,
    build_linear_scheme,
    construct_allocation,
    l_func,
    phi1,
    phi2,
    r_achievable,
)
from .sweep import SweepRow, SweepSpec, run_sweep, write_csv, write_svg
from .verify import (
    OracleGap,
    VerificationRun,
    decodable,
    leakage,
    oracle_best_rate,
    run_verification,
    simulate_roundtrip,
)

__version__ = "0.33.0"

__all__ = [
    "Allocation",
    "CaseTag",
    "ChannelParams",
    "GaussianParams",
    "GaussianRateBreakdown",
    "LinearScheme",
    "OracleGap",
    "ParameterError",
    "RateBreakdown",
    "SweepRow",
    "SweepSpec",
    "UpperBounds",
    "VerificationRun",
    "build_linear_scheme",
    "construct_allocation",
    "correspondence",
    "decodable",
    "gaussian_rate",
    "gaussian_upper_bounds",
    "l_func",
    "ldm_channel",
    "leakage",
    "level_rate",
    "odd_level_sum",
    "oracle_best_rate",
    "phi1",
    "phi2",
    "r_achievable",
    "run_sweep",
    "run_verification",
    "simulate_roundtrip",
    "to_fraction",
    "upper_bounds",
    "write_csv",
    "write_svg",
]
