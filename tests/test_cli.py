"""Command-line interface: parsing, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from powbounds import bounds, cli
from powbounds.bounds import ProtocolParams, invert_latency, zero_delay_upper
from powbounds.cli import main, parse_rate, parse_time
from powbounds.errors import InfeasibleParametersError, SchemaError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_rate_units():
    assert parse_rate("6/hour") == pytest.approx(1.0 / 600.0)
    assert parse_rate("2/min") == pytest.approx(1.0 / 30.0)
    assert parse_rate("3/sec") == 3.0
    assert parse_rate("0.5") == 0.5
    with pytest.raises(SchemaError):
        parse_rate("6/fortnight")
    with pytest.raises(SchemaError):
        parse_rate("abc/hour")


def test_parse_time_formats():
    assert parse_time("4h") == 14400.0
    assert parse_time("10h40m") == 38400.0
    assert parse_time("90s") == 90.0
    assert parse_time("30m") == 1800.0
    assert parse_time("7200") == 7200.0
    assert parse_time("0") == 0.0
    with pytest.raises(SchemaError):
        parse_time("soon")
    for text in ("-20", "-0.5", "nan"):
        with pytest.raises(SchemaError):
            parse_time(text)


def test_bound_upper_json_record(capsys):
    code, out = run_cli(
        capsys, "bound", "upper", "--alpha-frac", "0.9", "--total-rate", "6/hour",
        "--delta", "10", "--t", "4h",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["bound_kind"] == "upper"
    assert 0.0 < rec["probability"] < 0.0015
    assert rec["optimizer_v"] < rec["theta"]


def test_bound_zero_delay_routing(capsys):
    code, out = run_cli(capsys, "bound", "upper", "--delta", "0", "--t", "4h")
    assert code == 0
    rec = json.loads(out)
    assert rec["theta"] is None  # the zero-delay form has no rate-function root


def test_bound_lower_smaller_than_upper(capsys):
    _, up = run_cli(capsys, "bound", "upper", "--t", "2h")
    _, lo = run_cli(capsys, "bound", "lower", "--t", "2h")
    assert json.loads(lo)["probability"] < json.loads(up)["probability"]


# 600 blocks/hour against a 45% adversary, delta = 0.5 s
HIGH_RATE = ("--alpha-frac", "0.55", "--total-rate", "600/hour", "--delta", "0.5")


def test_bound_lower_keeps_its_value_at_high_rates(capsys):
    # the lower bound's sums follow the model: 1.81e-3 at 1e4 s, where sums cut at
    # 512 counts read 3.3e-48 with truncation_tail 1.0
    code, out = run_cli(capsys, "bound", "lower", "--t", "10000", *HIGH_RATE)
    assert code == 0
    rec = json.loads(out)
    assert rec["probability"] == pytest.approx(1.8096e-3, rel=1e-4)
    assert rec["truncation_tail"] <= 2.0**-60 * rec["probability"]


def test_sweep_lower_column_stays_between_zero_and_upper_at_high_rates(capsys):
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "latency", "--bounds", "upper,lower",
        *HIGH_RATE, "--grid", "0:100000:21",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 21
    for row in rows:
        assert 0.0 < float(row["lower"]) <= float(row["upper"])


def test_infeasible_exit_code(capsys):
    code, _ = run_cli(capsys, "bound", "upper", "--alpha-frac", "0.5", "--t", "1h")
    assert code == 2


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(capsys, "bound", "upper", "--t", "eventually")
    assert code == 3
    code, _ = run_cli(capsys, "bound", "sideways", "--t", "1h")
    assert code == 3


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unreachable_latency_exit_code(capsys):
    code, out, err = run_cli_err(
        capsys, "latency", "--delta", "0", "--alpha-frac", "0.5000001", "--level", "1e-300"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "unreachable" in err


def test_invalid_model_exit_code(capsys):
    code, out, err = run_cli_err(capsys, "bound", "upper", "--delta", "-1", "--t", "4h")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "delay bound" in err


def test_simulate_majority_adversary_exit_code(capsys):
    code, out, err = run_cli_err(
        capsys, "simulate", "attack", "--alpha-frac", "0.4", "--trials", "10"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("infeasible parameters:")


def test_adversary_free_model_exit_code(capsys):
    for argv in (
        ("bound", "upper", "--alpha-frac", "1", "--t", "1h"),
        ("bound", "upper-universal", "--alpha-frac", "1", "--t", "1h"),
        ("latency", "--alpha-frac", "1", "--level", "1e-3"),
        # alpha delta = 50: a root 1e11 times too large once left no admissible u, exit 2
        ("bound", "upper", "--alpha-frac", "1.0", "--delta", "3e4", "--t", "1e9"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert all(math.isfinite(v) for v in json.loads(out).values() if isinstance(v, float))


def test_overflowing_mean_renewal_time_exit_code(capsys):
    # alpha delta = 360: the mean renewal time e^720 / 360 is past the float
    # range; each once ended in an OverflowError traceback, exit 1
    for argv in (
        ("bound", "upper", "--alpha-frac", "1.0", "--delta", "216000", "--t", "1e9"),
        ("latency", "--alpha-frac", "1.0", "--delta", "216000", "--level", "1e-3"),
    ):
        code, out, err = run_cli_err(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("infeasible parameters:") and "overflows" in err
    # a batch of such models leaves each one's cell empty
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "rate", "--grid", "6,60",
        "--alpha-frac", "1.0", "--delta", "216000",
    )
    assert code == 0 and out == "x,latency_s\n6.0,\n60.0,\n"


def test_latency_record_and_monotonicity(capsys):
    code, out = run_cli(capsys, "latency", "--level", "1e-3")
    assert code == 0
    rec = json.loads(out)
    assert rec["depth_blocks"] == 45
    assert 12600 <= rec["t_seconds"] <= 16200
    _, deeper = run_cli(capsys, "latency", "--level", "1e-9")
    rec9 = json.loads(deeper)
    assert rec9["t_seconds"] > rec["t_seconds"]
    assert rec9["depth_blocks"] > rec["depth_blocks"]


def test_csv_and_json_encode_same_values(capsys):
    _, js = run_cli(capsys, "latency", "--level", "1e-3")
    _, cs = run_cli(capsys, "--format", "csv", "latency", "--level", "1e-3")
    rec = json.loads(js)
    row = next(csv.DictReader(io.StringIO(cs)))
    assert int(row["t_seconds"]) == rec["t_seconds"]
    assert int(row["depth_blocks"]) == rec["depth_blocks"]


def test_outputs_are_reproducible(capsys):
    _, a = run_cli(capsys, "--format", "csv", "sweep", "--var", "latency",
                   "--grid", "3600,7200,14400")
    _, b = run_cli(capsys, "--format", "csv", "sweep", "--var", "latency",
                   "--grid", "3600,7200,14400")
    assert a == b


def test_sweep_latency_monotone_columns(capsys):
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "latency",
        "--grid", "3600,7200,14400,28800", "--bounds", "upper,lower",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ups = [float(r["upper"]) for r in rows]
    los = [float(r["lower"]) for r in rows]
    assert ups == sorted(ups, reverse=True)
    assert los == sorted(los, reverse=True)
    assert all(lo < up for lo, up in zip(los, ups))


# Bound kind -> (zero-delay, delay) form, as the CLI documents them.
REFERENCE_FORMS = {
    "upper": ("zero_delay_upper", "delay_upper"),
    "lower": ("zero_delay_lower", "delay_lower"),
    "upper-universal": ("zero_delay_upper", "delay_upper_universal"),
}


def reference_latency_sweep(params, grid, kinds):
    """CSV of a latency sweep made one bound call per grid point, blank where infeasible."""
    rows = []
    for t in grid:
        row = {"x": t}
        for kind in kinds:
            fn = getattr(bounds, REFERENCE_FORMS[kind][params.delta > 0])
            try:
                row[kind] = fn(params, float(t)).probability
            except InfeasibleParametersError:
                row[kind] = ""
        rows.append(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "delta,alpha_frac,grid",
    [
        ("0", "0.9", "0:40000:41"),
        ("10", "0.9", "0:40000:41"),
        ("10", "0.9", "1300:1890:60"),  # across delay_upper's vacuous edge (~1754 s)
        ("10", "0.6", "3600,7200,14400,28800,57600"),
        ("10", "0.5", "3600,7200"),  # infeasible: blank cells
    ],
)
def test_sweep_latency_matches_per_point_reference(capsys, delta, alpha_frac, grid):
    kinds = ["upper", "lower", "upper-universal"]
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "latency", "--bounds", ",".join(kinds),
        "--alpha-frac", alpha_frac, "--delta", delta, "--grid", grid,
    )
    assert code == 0
    params = ProtocolParams.from_adversary_share(
        parse_rate("6/hour"), 1.0 - float(alpha_frac), float(delta)
    )
    assert out == reference_latency_sweep(params, cli._parse_grid(grid), kinds)


def test_latency_sweep_memory_is_bounded(tmp_path):
    # 2e5 points: the rows and their text take ~350 B a point, and each bound
    # kernel holds one block of t at a time on top of that
    target = tmp_path / "sweep.csv"
    argv = ["--format", "csv", "--out", str(target), "sweep", "--var", "latency",
            "--bounds", "upper-universal", "--grid", "0:200000:200000"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 200_000
    assert len(target.read_text().splitlines()) == 200_001


def test_rate_sweep_memory_is_bounded(tmp_path):
    # 2000 rates: the models are inverted in batches of at most
    # bounds._BATCH_ROWS rows, not all at once (~90 MB)
    target = tmp_path / "sweep.csv"
    argv = ["--format", "csv", "--out", str(target), "sweep", "--var", "rate", "--grid", "6:600:2000"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert len(target.read_text().splitlines()) == 2001


def test_negative_times_are_schema_errors(capsys):
    assert_schema_error(capsys, "bound", "lower", "--t=-20")
    assert_schema_error(capsys, "bound", "lower", "--delta", "0", "--t=-20")
    assert_schema_error(capsys, "bound", "upper", "--t", "nan")
    assert_schema_error(capsys, "simulate", "attack", "--t=-20", "--trials", "10")
    assert_schema_error(capsys, "sweep", "--var", "latency", "--grid=-20,10")
    assert_schema_error(capsys, "sweep", "--var", "latency", "--grid=-20:10:3")


def test_infinite_times_are_schema_errors(capsys):
    # an infinite time once printed a nan probability (lower) or 0.0 (upper) with exit 0
    assert_schema_error(capsys, "bound", "lower", "--t", "inf")
    assert_schema_error(capsys, "bound", "lower", "--delta", "0", "--t", "inf")
    assert_schema_error(capsys, "bound", "upper", "--t", "inf")
    assert_schema_error(capsys, "simulate", "attack", "--t", "inf", "--trials", "10")
    assert_schema_error(capsys, "sweep", "--var", "latency", "--grid", "1,inf")


def test_non_finite_model_inputs_are_schema_errors(capsys):
    # each once exited 1 with a ValueError from bracketed_root (sweep: empty
    # columns with exit 0)
    assert_schema_error(capsys, "bound", "upper", "--total-rate", "inf/hour", "--t", "4h")
    assert_schema_error(capsys, "latency", "--level", "1e-9", "--total-rate", "1e400/hour")
    assert_schema_error(capsys, "bound", "lower", "--t", "4h", "--delta", "inf")
    assert_schema_error(capsys, "sweep", "--var", "latency", "--delta", "inf", "--grid", "3600")


def test_overflowing_throughput_delay_is_infeasible(capsys):
    # a KB/s past 1e300 s/KB overflows every rate's delay to inf, where no
    # model is feasible: an empty cell, as an infinite delay gives
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "throughput", "--delay-a", "1e308",
        "--grid", "1e10", "--level", "1e-3",
    )
    assert code == 0
    assert [row["latency_s"] for row in csv.DictReader(io.StringIO(out))] == [""]


def test_malformed_grids_are_schema_errors(capsys):
    # each once exited 1 with a traceback, or (0:inf:3) warned from numpy first
    assert_schema_error(capsys, "sweep", "--var", "latency", "--grid=0:10:-1")
    assert_schema_error(capsys, "sweep", "--var", "latency", "--grid=0:10:abc")
    assert_schema_error(capsys, "sweep", "--var", "latency", "--grid=a,b")
    assert_schema_error(capsys, "sweep", "--var", "latency", "--grid=0:inf:3")


def test_infinite_grid_range_writes_one_stderr_line():
    # in a fresh process, so that a numpy warning would reach stderr uncaptured
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "powbounds.cli", "sweep", "--var", "latency", "--grid=0:inf:3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def test_parser_is_built_once_and_keeps_no_options(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out = run_cli(
        capsys, "--format", "csv", "--out", str(target), "sweep", "--var", "latency",
        "--grid", "3600,7200",
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("x,upper,lower\n")
    code, out = run_cli(capsys, "latency", "--level", "1e-3")
    assert code == 0
    assert json.loads(out)["depth_blocks"] == 45  # JSON on stdout: no --format, no --out
    assert cli._parser() is cli._parser()


def test_sweep_bad_grid(capsys):
    code, _ = run_cli(capsys, "sweep", "--var", "latency", "--grid", "10,5")
    assert code == 3
    assert_schema_error(capsys, "sweep", "--var", "rate", "--grid=-6,60")
    assert_schema_error(capsys, "sweep", "--var", "rate", "--grid", "nan,60")
    assert_schema_error(capsys, "sweep", "--var", "throughput", "--grid=-1,1")


@pytest.mark.parametrize(
    "argv",
    [
        ["protocol-table", "--levels", "abc"],
        ["protocol-table", "--levels", "2"],
        ["protocol-table", "--levels", "1e-3,nan"],
        ["protocol-table", "--adversary", "1.5"],
        ["protocol-table", "--adversary=-0.1"],
        ["sweep", "--var", "rate", "--grid", "6,60", "--level", "2"],
        ["sweep", "--var", "rate", "--grid", "6,60", "--delta=-1"],
        ["sweep", "--var", "rate", "--grid", "6,60", "--alpha-frac", "1.5"],
        ["sweep", "--var", "throughput", "--grid", "1,2", "--level", "0"],
        ["sweep", "--var", "throughput", "--grid", "1,2", "--delay-a=-1"],
        ["sweep", "--var", "throughput", "--grid", "1,2", "--delay-b", "nan"],
        ["sweep", "--var", "throughput", "--grid", "1,2", "--delay-b", "inf"],
        ["sweep", "--var", "throughput", "--grid", "1,2", "--delay-a", "inf"],
        ["sweep", "--var", "latency", "--grid", "1,2", "--bounds", "upper,foo"],
        ["latency", "--level", "1e-3", "--delta", "nan"],
    ],
)
def test_invalid_values_are_schema_errors(capsys, argv):
    assert_schema_error(capsys, *argv)


def test_sweep_rate_emits_empty_cell_on_infeasible(capsys):
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "rate", "--alpha-frac", "0.75",
        "--grid", "6,60,600", "--level", "1e-9",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["latency_s"] and rows[1]["latency_s"]
    assert rows[2]["latency_s"] == ""  # 600/hour at 25% violates feasibility


def test_sweep_rate_json_rows_equal_the_csv_rows(capsys):
    argv = ["sweep", "--var", "rate", "--alpha-frac", "0.75", "--grid", "6,60,600", "--level", "1e-9"]
    code, js = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    _, cs = run_cli(capsys, "--format", "csv", *argv)
    rows = [{k: str(v) for k, v in row.items()} for row in json.loads(js)]
    assert rows == list(csv.DictReader(io.StringIO(cs)))
    assert rows[2]["latency_s"] == ""


def test_sweeps_at_zero_delay_invert_the_zero_delay_bound(capsys):
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "rate", "--delta", "0",
        "--grid", "6,60,600", "--level", "1e-9",
    )
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        p = ProtocolParams.from_adversary_share(float(row["x"]) / 3600.0, 0.1, 0.0)
        assert int(row["latency_s"]) == invert_latency(zero_delay_upper, p, 1e-9)
    code, out = run_cli(
        capsys, "--format", "csv", "sweep", "--var", "throughput", "--delay-a", "0",
        "--delay-b", "0", "--grid", "1,10", "--level", "1e-6",
    )
    assert code == 0
    want = min(
        invert_latency(zero_delay_upper, ProtocolParams.from_adversary_share(r / 3600.0, 0.1, 0.0), 1e-6)
        for r in np.geomspace(6.0, 600.0, 80)
    )
    assert [int(r["latency_s"]) for r in csv.DictReader(io.StringIO(out))] == [want, want]


# Frozen outputs: inverting every model of a table or sweep in one batch
# prints these bytes, as inverting one model per call did.
PROTOCOL_TABLE_CSV = """\
name,delay_s,latency_s_0.001,latency_s_1e-06,latency_s_1e-09,throughput_kb_s,fault_tolerance_loner_rate,fault_tolerance_ultimate
Bitcoin,10.008,41065,73861,106446,1.6666666666666667,0.4957950296869165,0.49586449015213124
BCH,78.60799999999999,59652,107240,154518,13.333333333333334,0.46501199539214244,0.4692603205986511
Litecoin,10.008,11971,21521,31009,6.666666666666667,0.48275143499065487,0.4838584810714562
Dogecoin,10.008,6824,12272,17685,16.666666666666668,0.45464219863854677,0.46151006091932806
Zcash,19.807999999999996,12958,23350,33678,26.666666666666668,0.42459549769155747,0.44167530387260906
Ethereum,2.0014,1505,2705,3898,12.2,0.4643239973611521,0.46872949308467754
"""
THROUGHPUT_SWEEP_CSV = "x,latency_s\n1.0,382\n2.0,390\n5.0,414\n10.0,463\n"


def test_batched_outputs_are_pinned_to_the_byte(capsys):
    assert run_cli(capsys, "--format", "csv", "protocol-table") == (0, PROTOCOL_TABLE_CSV)
    assert run_cli(
        capsys, "--format", "csv", "sweep", "--var", "throughput", "--grid", "1,2,5,10"
    ) == (0, THROUGHPUT_SWEEP_CSV)


def test_protocol_table_mixes_delay_forms_and_errors(tmp_path, capsys):
    # one table with a delay model, a zero-delay override and an infeasible
    # protocol: each row as its own invert_latency call gives it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "delay_model": {"a_s_per_kb": 0.0098, "b_s": 0.208},
        "protocols": [
            {"name": "Slow", "block_size_kb": 1000, "blocks_per_hour": 6},
            {"name": "Instant", "block_size_kb": 1000, "blocks_per_hour": 6, "delay_override_s": 0},
            {"name": "Jammed", "block_size_kb": 10, "blocks_per_hour": 600, "delay_override_s": 60},
            {"name": "Fast", "block_size_kb": 10, "blocks_per_hour": 600},
        ],
    }))
    code, out = run_cli(capsys, "protocol-table", "--config", str(cfg), "--levels", "1e-3,1e-9")
    assert code == 0
    rows = json.loads(out)
    for row, per_hour in zip(rows, (6, 6, 600, 600)):
        p = ProtocolParams.from_adversary_share(per_hour / 3600.0, 0.25, row["delay_s"])
        cells = [row["latency_s_0.001"], row["latency_s_1e-09"]]
        if row["name"] == "Jammed":
            assert cells == ["", ""] and "requires beta < alpha" in row["note"]
            with pytest.raises(InfeasibleParametersError):
                bounds.delay_upper(p, 1.0)
        else:
            assert "note" not in row
            assert cells == invert_latency(bounds.bound_of_kind("upper", p), p, [1e-3, 1e-9])


def test_protocol_table_past_the_horizon_exits_2(tmp_path, capsys):
    # beta at 0.9999 of the feasibility edge: the 1e-3 latency lies past 600 * 2^30 s
    alpha = 0.75 * 6.0 / 3600.0
    delay = math.log(0.9999 * 3.0) / (2.0 * alpha)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "delay_model": {"a_s_per_kb": 0.0098, "b_s": 0.208},
        "protocols": [
            {"name": "Bitcoin", "block_size_kb": 1000, "blocks_per_hour": 6},
            {"name": "Edge", "block_size_kb": 1000, "blocks_per_hour": 6, "delay_override_s": delay},
        ],
    }))
    assert run_cli(capsys, "protocol-table", "--config", str(cfg))[0] == 2


def test_latency_at_a_tiny_alpha_delta(capsys):
    # alpha delta = 1.2e-7: the root polish used to raise ValueError here
    code, out = run_cli(capsys, "latency", "--delta", "7.9725869e-05", "--level", "1e-6")
    assert code == 0
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.1, 7.9725869e-05)
    assert json.loads(out)["t_seconds"] == invert_latency(bounds.delay_upper, p, 5e-7)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "r.json"
    code, out = run_cli(capsys, "--out", str(target), "latency", "--level", "1e-3")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["depth_blocks"] == 45


def test_protocol_table_check_passes(capsys):
    code, out = run_cli(capsys, "--format", "csv", "protocol-table", "--check")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["name"] for r in rows] == [
        "Bitcoin", "BCH", "Litecoin", "Dogecoin", "Zcash", "Ethereum",
    ]


def test_protocol_table_empty_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delay_model": {"a_s_per_kb": 0.0098, "b_s": 0.208},
                               "protocols": []}))
    code, out = run_cli(capsys, "protocol-table", "--config", str(cfg))
    assert code == 0
    assert json.loads(out) == []
    assert run_cli(capsys, "--format", "csv", "protocol-table", "--config", str(cfg)) == (0, "")


def test_protocol_table_csv_keeps_a_later_rows_note(capsys):
    # at 45% Zcash alone is infeasible: its note gets a column, empty on the
    # rows before and after it
    code, out = run_cli(capsys, "--format", "csv", "protocol-table", "--adversary", "0.45")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [bool(r["note"]) for r in rows] == [r["name"] == "Zcash" for r in rows]
    assert rows[4]["latency_s_1e-09"] == "" and rows[5]["latency_s_1e-09"] != ""


def test_protocol_table_at_zero_delay_inverts_the_zero_delay_bound(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "delay_model": {"a_s_per_kb": 0, "b_s": 0},
        "protocols": [{"name": "Bitcoin", "block_size_kb": 1000, "blocks_per_hour": 6},
                      {"name": "Fast", "block_size_kb": 10, "blocks_per_hour": 600}],
    }))
    code, out = run_cli(capsys, "protocol-table", "--config", str(cfg), "--levels", "1e-3,1e-9")
    assert code == 0
    for row, per_hour in zip(json.loads(out), (6, 600)):
        p = ProtocolParams.from_adversary_share(per_hour / 3600.0, 0.25, 0.0)
        assert row["delay_s"] == 0.0
        assert [row["latency_s_0.001"], row["latency_s_1e-09"]] == invert_latency(
            zero_delay_upper, p, [1e-3, 1e-9]
        )


def test_protocol_table_missing_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocols": []}))
    code, _ = run_cli(capsys, "protocol-table", "--config", str(cfg))
    assert code == 3


def _one_protocol_config(delay_model, protocol):
    """A config's bytes: this delay model and one Bitcoin-like protocol entry updated by protocol."""
    return json.dumps({
        "delay_model": delay_model,
        "protocols": [dict({"name": "Bitcoin", "blocks_per_hour": 6}, **protocol)],
    }).encode()


@pytest.mark.parametrize(
    "text",
    [
        _one_protocol_config({"a_s_per_kb": -1, "b_s": 0.2}, {"block_size_kb": 1000}),
        _one_protocol_config({"a_s_per_kb": 0.01, "b_s": 0.2}, {"block_size_kb": 0}),
        _one_protocol_config({"a_s_per_kb": 0.01, "b_s": 0.2}, {"block_size_kb": "abc"}),
        _one_protocol_config({"a_s_per_kb": math.inf, "b_s": 0.2}, {"block_size_kb": 1000}),
        _one_protocol_config({"a_s_per_kb": 0.01, "b_s": 0.2}, {"block_size_kb": math.inf}),
        _one_protocol_config(
            {"a_s_per_kb": 0.01, "b_s": 0.2}, {"block_size_kb": 1000, "blocks_per_hour": math.inf}
        ),
        _one_protocol_config(
            {"a_s_per_kb": 0.01, "b_s": 0.2}, {"block_size_kb": 1000, "delay_override_s": math.inf}
        ),
        _one_protocol_config({"a_s_per_kb": 1e308, "b_s": 0.2}, {"block_size_kb": 1e10}),
        b'{"delay_model": {"a_s_per_kb": 0.01, "b_s": 0.2}, "protocols": 5}',
        b'{"delay_model": 5, "protocols": []}',
        b'{"delay_model": {"a_s_per_kb": 0.01, "b_s": 0.2}, "protocols": [5]}',
        b"\xff\xfe{",
    ],
    ids=[
        "negative-a", "zero-block-size", "non-numeric-block-size", "infinite-a",
        "infinite-block-size", "infinite-rate", "infinite-delay-override", "overflowing-delay",
        "protocols-not-a-list", "delay-model-not-an-object", "protocol-not-an-object", "not-utf-8",
    ],
)
def test_protocol_table_bad_config_value_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert_schema_error(capsys, "protocol-table", "--config", str(cfg))


def test_protocol_table_failing_check_still_prints_the_table(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "delay_model": {"a_s_per_kb": 0.0098, "b_s": 0.208},
        "protocols": [{"name": "Bitcoin", "block_size_kb": 2000, "blocks_per_hour": 6}],
    }))
    code, out, err = run_cli_err(capsys, "--format", "csv", "protocol-table", "--check", "--config", str(cfg))
    assert code == 4
    assert err == "check failures: Bitcoin throughput; Bitcoin fault tolerance\n"
    assert [r["name"] for r in csv.DictReader(io.StringIO(out))] == ["Bitcoin"]


def test_unreadable_and_unwritable_paths_exit_code(tmp_path, capsys):
    assert_schema_error(capsys, "protocol-table", "--config", str(tmp_path / "missing.json"))
    assert_schema_error(capsys, "--out", str(tmp_path / "missing" / "r.json"), "latency", "--level", "1e-3")


def test_simulate_attack_self_test(capsys):
    code, out = run_cli(
        capsys, "--seed", "7", "simulate", "attack", "--delta", "0",
        "--trials", "3000", "--t", "2h",
    )
    rec = json.loads(out)
    assert rec["self_test_ok"] is (code == 0)
    assert rec["analytic_lower"] <= rec["analytic_upper"]


def test_simulate_attack_with_no_successes_passes_its_self_test(capsys):
    # 0 successes in 500 trials (stderr 0) against a lower bound of 2.65e-10
    code, out = run_cli(capsys, "--seed", "3", "simulate", "attack", "--t", "8h", "--trials", "500")
    rec = json.loads(out)
    assert code == 0 and rec["self_test_ok"] is True
    assert rec["frequency"] == 0.0 and 0.0 < rec["analytic_lower"] < 1e-9


@pytest.mark.parametrize("level,split", [("1e-300", "1e-100"), ("5e-324", "0.5")])
def test_latency_level_share_that_underflows_is_a_schema_error(capsys, level, split):
    code, out, err = run_cli_err(capsys, "latency", "--level", level, "--split", split)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "underflows" in err


def test_simulate_species_report(capsys):
    code, out = run_cli(
        capsys, "--seed", "1", "simulate", "species", "--alpha-delta", "0.025",
        "--horizon", "100000",
    )
    rec = json.loads(out)
    assert rec["loners"] <= rec["laggers"] <= rec["honest"]
    assert code in (0, 4)


HEAVY_SCIPY = (
    "scipy.signal",
    "scipy.stats",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse",
    "scipy.fft",
)


def test_cli_import_loads_no_heavy_scipy_module():
    # each of these adds a large share of the start-up time; they are checked after
    # the import and again after a table check and a latency query in the same
    # interpreter, so an import deferred into a command fails too
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import contextlib, io, sys\n"
        "import powbounds.cli\n"
        f"heavy = {HEAVY_SCIPY!r}\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [powbounds.cli.main(['protocol-table', '--check']),\n"
        "             powbounds.cli.main(['latency', '--level', '1e-9'])]\n"
        "print(codes)\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0]", "[]"]


def test_designer_commands_load_no_scipy():
    # the designer's commands run on numpy alone; scipy.special loads with the
    # first lower-bound kernel, which shows where the boundary lies
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import contextlib, io, sys\n"
        "import powbounds.cli\n"
        "def report(name, argv=None):\n"
        "    if argv is not None:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert powbounds.cli.main(argv) == 0, argv\n"
        "    print(name, sorted(m for m in sys.modules if m.startswith('scipy')) == [],\n"
        "          'scipy.special' in sys.modules)\n"
        "report('import')\n"
        "report('table', ['protocol-table', '--check'])\n"
        "report('latency', ['latency', '--level', '1e-9'])\n"
        "report('upper', ['bound', 'upper', '--delta', '10', '--t', '3600'])\n"
        "report('sweep', ['sweep', '--var', 'throughput', '--grid', '1,2'])\n"
        "report('curves', ['sweep', '--var', 'latency', '--grid', '600,3600',\n"
        "                  '--bounds', 'upper,upper-universal'])\n"
        "report('lower', ['bound', 'lower', '--delta', '10', '--t', '3600'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import True False",
        "table True False",
        "latency True False",
        "upper True False",
        "sweep True False",
        "curves True False",
        "lower False True",
    ]


def assert_schema_error(capsys, *argv):
    code, out, err = run_cli_err(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_simulate_race_zero_delay_exit_code(capsys):
    assert_schema_error(capsys, "simulate", "race", "--delta", "0", "--trials", "10")


def test_simulate_zero_trials_exit_code(capsys):
    assert_schema_error(capsys, "simulate", "attack", "--trials", "0")


def test_simulate_window_past_the_chunk_ceiling_exit_code(capsys):
    # ~1.7e10 expected blocks: once a numpy _ArrayMemoryError traceback
    assert_schema_error(capsys, "simulate", "attack", "--trials", "10", "--t", "1e12")


def test_simulate_non_numeric_trials_exit_code(capsys):
    assert_schema_error(capsys, "simulate", "attack", "--trials", "abc")


def test_simulate_fractional_trials_exit_code(capsys):
    assert_schema_error(capsys, "simulate", "attack", "--trials", "2.5")


def test_simulate_species_zero_rate_exit_code(capsys):
    assert_schema_error(capsys, "simulate", "species", "--alpha-delta", "0")


def test_simulate_race_unknown_stream_exit_code(capsys):
    assert_schema_error(capsys, "simulate", "race", "--stream", "foo", "--trials", "10")


def test_simulate_trials_in_scientific_notation(capsys):
    code, out = run_cli(capsys, "simulate", "attack", "--delta", "0", "--trials", "1e5")
    assert code in (0, 4)
    assert json.loads(out)["trials"] == 100000


def test_simulate_negative_seed_exit_code(capsys):
    assert_schema_error(capsys, "--seed", "-1", "simulate", "attack", "--trials", "10")


def test_simulate_race_self_test(capsys):
    # the double-lagger race is checked against delay_upper; another stream has no analytic value
    code, out = run_cli(
        capsys, "simulate", "race", "--stream", "double-lagger", "--t", "1h", "--trials", "1000"
    )
    rec = json.loads(out)
    assert code == 0 and rec["self_test_ok"] is True
    params = ProtocolParams.from_adversary_share(parse_rate("6/hour"), 1.0 - 0.9, 10.0)
    assert rec["analytic_upper"] == bounds.delay_upper(params, 3600.0).probability
    code, out = run_cli(capsys, "simulate", "race", "--stream", "jumper", "--t", "1h", "--trials", "1000")
    rec = json.loads(out)
    assert code == 0 and rec["self_test_ok"] is True and rec["analytic_upper"] is None
