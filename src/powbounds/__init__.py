"""Latency-security bounds and Monte Carlo validation for longest-chain proof-of-work."""

from .bounds import (
    BoundResult,
    Mgf,
    ProtocolParams,
    RaceSpec,
    delay_lower,
    delay_upper,
    delay_upper_universal,
    depth_from_time,
    double_lagger_mgf,
    invert_latencies,
    invert_latency,
    renewal_race_bound,
    zero_delay_lower,
    zero_delay_upper,
)
from .errors import (
    BracketError,
    InfeasibleParametersError,
    InsufficientDataError,
    SchemaError,
)

__all__ = [
    "BoundResult",
    "Mgf",
    "ProtocolParams",
    "RaceSpec",
    "delay_lower",
    "delay_upper",
    "delay_upper_universal",
    "depth_from_time",
    "double_lagger_mgf",
    "invert_latencies",
    "invert_latency",
    "renewal_race_bound",
    "zero_delay_lower",
    "zero_delay_upper",
    "BracketError",
    "InfeasibleParametersError",
    "InsufficientDataError",
    "SchemaError",
]
