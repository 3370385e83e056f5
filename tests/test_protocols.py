"""Protocol parameter mapping: delay model, throughput, fault tolerance, table."""

import json
import math

import pytest

from powbounds.errors import SchemaError
from powbounds.protocols import (
    TABLE2_EXPECTED,
    DelayModel,
    ProtocolSpec,
    build_comparison_table,
    default_config_path,
    delay_from_size,
    fault_tolerance,
    load_config,
    protocol_delay,
    throughput,
)

MODEL = DelayModel(a=0.0098, b=0.208)


def test_delay_from_size_reference_points():
    assert delay_from_size(MODEL, 1000) == pytest.approx(10.0, abs=0.05)
    assert delay_from_size(MODEL, 2000) == pytest.approx(19.8, abs=0.05)
    assert delay_from_size(DelayModel(a=0.0, b=7.0), 12345) == 7.0
    with pytest.raises(ValueError):
        delay_from_size(MODEL, 0)


def test_delay_override_wins():
    spec = ProtocolSpec(name="x", block_size_kb=1000, blocks_per_hour=6, delay_override_s=3.0)
    assert protocol_delay(spec, MODEL) == 3.0


def test_throughput_reference_points():
    assert throughput(ProtocolSpec("Bitcoin", 1000, 6)) == pytest.approx(1.7, rel=0.02)
    assert throughput(ProtocolSpec("Ethereum", 183, 240)) == pytest.approx(12.2, rel=0.01)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProtocolSpec("x", 0, 6)
    with pytest.raises(ValueError):
        ProtocolSpec("x", 1000, 0)


def test_fault_tolerance_limits():
    # vanishing delay: both criteria approach the 50% majority limit
    tiny = ProtocolSpec("x", 1, 6)
    model = DelayModel(a=0.0, b=1e-9)
    assert fault_tolerance(tiny, model, "loner-rate") == pytest.approx(0.5, abs=1e-6)
    assert fault_tolerance(tiny, model, "ultimate") == pytest.approx(0.5, abs=1e-6)


def test_fault_tolerance_decreases_with_delay():
    spec = ProtocolSpec("x", 1000, 60)
    prev = {"loner-rate": 0.5, "ultimate": 0.5}
    for b in (1.0, 10.0, 50.0, 200.0):
        model = DelayModel(a=0.0, b=b)
        for crit in prev:
            val = fault_tolerance(spec, model, crit)
            assert val < prev[crit]
            prev[crit] = val


def test_ultimate_criterion_dominates_loner_rate():
    specs, model = load_config(default_config_path())
    for spec in specs:
        assert fault_tolerance(spec, model, "ultimate") >= fault_tolerance(
            spec, model, "loner-rate"
        )


def test_ultimate_criterion_closed_form():
    # (1 - f) / (1 + rate delta) = f at f = 1 / (2 + rate delta)
    specs, model = load_config(default_config_path())
    for spec in specs:
        rate, delta = spec.total_rate, protocol_delay(spec, model)
        assert fault_tolerance(spec, model, "ultimate") == 1.0 / (2.0 + rate * delta)


def test_loner_rate_criterion_brackets_its_sign_change():
    # alpha e^{-2 alpha delta} - beta changes sign within 1e-12 of the returned share
    specs, model = load_config(default_config_path())
    assert len(specs) == 6
    for spec in specs:
        rate, delta = spec.total_rate, protocol_delay(spec, model)
        f = fault_tolerance(spec, model, "loner-rate")

        def margin(x):
            return (1.0 - x) * rate * math.exp(-2.0 * (1.0 - x) * rate * delta) - x * rate

        assert margin(f - 1e-12) > 0.0 >= margin(f + 1e-12)


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        fault_tolerance(ProtocolSpec("x", 1000, 6), MODEL, "bogus")


def test_default_config_loads_six_protocols():
    specs, model = load_config(default_config_path())
    assert [s.name for s in specs] == [
        "Bitcoin", "BCH", "Litecoin", "Dogecoin", "Zcash", "Ethereum",
    ]
    assert model.a == 0.0098 and model.b == 0.208


def test_load_config_schema_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_config(str(p))
    p.write_text(json.dumps({"protocols": []}))
    with pytest.raises(SchemaError, match="delay_model"):
        load_config(str(p))
    p.write_text(
        json.dumps({"delay_model": {"a_s_per_kb": 0.01, "b_s": 0.2}, "protocols": [{"name": "x"}]})
    )
    with pytest.raises(SchemaError, match="block_size_kb"):
        load_config(str(p))


def test_comparison_row_bitcoin():
    rows = build_comparison_table(
        [ProtocolSpec("Bitcoin", 1000, 6)], MODEL, 0.25, [1e-3, 1e-9]
    )
    row = rows[0]
    exp = TABLE2_EXPECTED["Bitcoin"]
    for level in (1e-3, 1e-9):
        got = row["latencies_s"][level]
        assert abs(got - exp["latencies_s"][level]) <= 0.05 * exp["latencies_s"][level]
    assert row["note"] is None


def test_comparison_annotates_infeasible_rows():
    # a huge block at a high rate violates the achievability precondition
    rows = build_comparison_table(
        [ProtocolSpec("monster", 300000, 600)], MODEL, 0.25, [1e-3]
    )
    assert rows[0]["latencies_s"][1e-3] is None
    assert rows[0]["note"]


def test_empty_table():
    assert build_comparison_table([], MODEL, 0.25, [1e-3]) == []
