"""Applying the bounds to deployed proof-of-work protocols.

Maps block size to propagation delay through an affine model, computes
best-case throughput and fault tolerance, and builds the cross-protocol
latency comparison table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .bounds import ProtocolParams, bracketed_root, invert_latencies
from .errors import InfeasibleParametersError, SchemaError


@dataclass(frozen=True)
class DelayModel:
    """Affine block-size -> worst-case propagation delay map (seconds = a * KB + b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 <= self.a < math.inf and 0 <= self.b < math.inf):
            raise ValueError("delay model coefficients must be nonnegative and finite")


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    block_size_kb: float
    blocks_per_hour: float
    delay_override_s: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.block_size_kb < math.inf:
            raise ValueError(f"block size must be positive and finite, got {self.block_size_kb}")
        if not 0 < self.blocks_per_hour < math.inf:
            raise ValueError(f"generation rate must be positive and finite, got {self.blocks_per_hour}")
        if self.delay_override_s is not None and not 0 <= self.delay_override_s < math.inf:
            raise ValueError(f"delay override must be nonnegative and finite, got {self.delay_override_s}")

    @property
    def total_rate(self) -> float:
        """Combined mining rate in blocks per second."""
        return self.blocks_per_hour / 3600.0


def delay_from_size(model: DelayModel, size_kb: float) -> float:
    if not size_kb > 0:
        raise ValueError(f"block size must be positive, got {size_kb}")
    return model.a * size_kb + model.b


def protocol_delay(spec: ProtocolSpec, model: DelayModel) -> float:
    return spec.delay_override_s if spec.delay_override_s is not None else delay_from_size(
        model, spec.block_size_kb
    )


def throughput(spec: ProtocolSpec) -> float:
    """Best-case throughput in KB per second (full blocks, normal operation)."""
    return spec.block_size_kb * spec.blocks_per_hour / 3600.0


def fault_tolerance(spec: ProtocolSpec, model: DelayModel, criterion: str = "ultimate") -> float:
    """Largest adversarial fraction f = beta/(alpha+beta) the chosen criterion allows.

    'loner-rate' requires beta < alpha e^{-2 alpha delta} (the honest loner
    mining rate must exceed the adversarial rate).  'ultimate' is the
    asymptotic consistency threshold with the total generation rate per delay
    period in the denominator, beta/alpha < 1/(1 + (alpha+beta) delta), which
    is the convention the published protocol comparisons follow; with
    f = beta/rate it reads (1 - f)/(1 + rate delta) > f, so its threshold is
    1/(2 + rate delta) in closed form.  The loner-rate threshold is the root
    of its margin on (1e-12, 0.5 - 1e-12), to 1e-12.  Total rate is held at
    the spec's value.
    """
    rate = spec.total_rate
    delta = protocol_delay(spec, model)
    if criterion == "ultimate":
        return 1.0 / (2.0 + rate * delta)
    if criterion != "loner-rate":
        raise ValueError(f"unknown criterion {criterion!r}")

    def margin(f):
        alpha = (1.0 - f) * rate
        return alpha * math.exp(-2.0 * alpha * delta) - f * rate

    if margin(0.5 - 1e-12) > 0:
        return 0.5
    if margin(1e-12) <= 0:
        return 0.0  # even a sliver of adversarial power breaks the condition
    return bracketed_root(margin, 1e-12, 0.5 - 1e-12, 1e-12)


def build_comparison_table(
    specs, model: DelayModel, adversary_fraction: float, levels
) -> list:
    """Latency/throughput/fault-tolerance rows, one per protocol.

    Latencies are whole seconds from inverting the achievable bound (its
    zero-delay form for a protocol whose delay is 0) in one
    bounds.invert_latencies call: every protocol with a delay is solved in
    the same batch, each zero-delay one on its own.  Rows whose parameters
    violate the bound's feasibility condition carry None latencies and a
    note instead of aborting the table; a latency past the search horizon
    raises BracketError.
    """
    delays = [protocol_delay(spec, model) for spec in specs]
    models = [
        ProtocolParams.from_adversary_share(spec.total_rate, adversary_fraction, delta)
        for spec, delta in zip(specs, delays)
    ]
    rows = []
    for spec, delta, result in zip(specs, delays, invert_latencies("upper", models, levels)):
        note = None
        if isinstance(result, InfeasibleParametersError):
            latencies = dict.fromkeys(levels)
            note = str(result)
        elif isinstance(result, Exception):
            raise result
        else:
            latencies = dict(zip(levels, result))
        rows.append(
            {
                "name": spec.name,
                "delay_s": delta,
                "latencies_s": latencies,
                "throughput_kb_s": throughput(spec),
                "fault_tolerance_loner_rate": fault_tolerance(spec, model, "loner-rate"),
                "fault_tolerance_ultimate": fault_tolerance(spec, model, "ultimate"),
                "note": note,
            }
        )
    return rows


# Published reference values: latency cells in seconds at the 25% adversary
# for levels 1e-3 / 1e-6 / 1e-9, throughput in KB/s, fault tolerance as a
# fraction.  Used by the --check mode of the comparison table.
TABLE2_EXPECTED = {
    "Bitcoin": {
        "latencies_s": {1e-3: 41940, 1e-6: 74400, 1e-9: 106800},
        "throughput_kb_s": 1.7,
        "fault_tolerance": 0.497,
    },
    "BCH": {
        "latencies_s": {1e-3: 60900, 1e-6: 107940, 1e-9: 154980},
        "throughput_kb_s": 13.3,
        "fault_tolerance": 0.469,
    },
    "Litecoin": {
        "latencies_s": {1e-3: 12240, 1e-6: 21720, 1e-9: 31140},
        "throughput_kb_s": 6.7,
        "fault_tolerance": 0.484,
    },
    "Dogecoin": {
        "latencies_s": {1e-3: 6960, 1e-6: 12360, 1e-9: 17760},
        "throughput_kb_s": 16.6,
        "fault_tolerance": 0.462,
    },
    "Zcash": {
        "latencies_s": {1e-3: 13200, 1e-6: 23520, 1e-9: 33780},
        "throughput_kb_s": 26.7,
        "fault_tolerance": 0.442,
    },
    "Ethereum": {
        "latencies_s": {1e-3: 1560, 1e-6: 2760, 1e-9: 3960},
        "throughput_kb_s": 12.2,
        "fault_tolerance": 0.469,
    },
}


def default_config_path() -> str:
    return str(resources.files("powbounds").joinpath("data/protocols.json"))


def load_config(path: str):
    """Read (specs, delay model) from a JSON config; raises SchemaError on bad shape."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key in ("delay_model", "protocols"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    dm = doc["delay_model"]
    for key in ("a_s_per_kb", "b_s"):
        if key not in dm:
            raise SchemaError(f"delay_model missing key {key!r}")
    try:  # a non-numeric or out-of-range value is a bad config, not a crash
        model = DelayModel(a=float(dm["a_s_per_kb"]), b=float(dm["b_s"]))
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad delay_model: {e}") from e
    specs = []
    for i, entry in enumerate(doc["protocols"]):
        for key in ("name", "block_size_kb", "blocks_per_hour"):
            if key not in entry:
                raise SchemaError(f"protocol entry {i} missing key {key!r}")
        try:
            spec = ProtocolSpec(
                name=str(entry["name"]),
                block_size_kb=float(entry["block_size_kb"]),
                blocks_per_hour=float(entry["blocks_per_hour"]),
                delay_override_s=(
                    float(entry["delay_override_s"]) if "delay_override_s" in entry else None
                ),
            )
            if not math.isfinite(protocol_delay(spec, model)):
                raise ValueError("its delay overflows")
        except (TypeError, ValueError) as e:
            raise SchemaError(f"bad protocol entry {i}: {e}") from e
        specs.append(spec)
    return specs, model
