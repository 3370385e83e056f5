"""Command-line front end.

Subcommands: bound, latency, sweep, simulate, protocol-table.  Emits CSV or
JSON records; never renders plots.  Exit codes: 0 success, 2 infeasible
parameters or an unreachable latency target, 3 schema/parse error or an
invalid model, 4 self-test failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import re
import sys

import numpy as np

from . import bounds
from .bounds import ProtocolParams, RaceSpec
from .errors import BracketError, InfeasibleParametersError, SchemaError
from .protocols import (
    TABLE2_EXPECTED,
    DelayModel,
    build_comparison_table,
    default_config_path,
    load_config,
)
from . import simulator

_RATE_UNITS = {"hour": 3600.0, "hr": 3600.0, "h": 3600.0, "min": 60.0, "m": 60.0, "sec": 1.0, "s": 1.0}


def parse_rate(text: str) -> float:
    """Rate string like '6/hour', '0.1/min', '2/sec' -> blocks per second."""
    text = text.strip()
    if "/" in text:
        num, unit = text.split("/", 1)
        unit = unit.strip().lower()
        if unit not in _RATE_UNITS:
            raise SchemaError(f"unknown rate unit {unit!r} in {text!r}")
        try:
            return float(num) / _RATE_UNITS[unit]
        except ValueError as e:
            raise SchemaError(f"bad rate {text!r}") from e
    try:
        return float(text)
    except ValueError as e:
        raise SchemaError(f"bad rate {text!r}") from e


def parse_time(text: str) -> float:
    """Duration like '4h', '10h40m', '90s', '30m', or plain seconds; finite and nonnegative."""
    text = text.strip().lower()
    try:
        t = float(text)
    except ValueError:
        m = re.fullmatch(r"(?:(\d+(?:\.\d+)?)h)?(?:(\d+(?:\.\d+)?)m)?(?:(\d+(?:\.\d+)?)s)?", text)
        if not m or not any(m.groups()):
            raise SchemaError(f"bad duration {text!r}")
        h, mi, s = (float(g) if g else 0.0 for g in m.groups())
        t = 3600.0 * h + 60.0 * mi + s
    if not (math.isfinite(t) and t >= 0):
        raise SchemaError(f"duration must be finite and nonnegative, got {text!r}")
    return t


def _params_from(args) -> ProtocolParams:
    total = parse_rate(args.total_rate)
    if not 0 < args.alpha_frac <= 1:
        raise SchemaError(f"--alpha-frac must be in (0,1], got {args.alpha_frac}")
    try:
        return ProtocolParams.from_adversary_share(total, 1.0 - args.alpha_frac, args.delta)
    except ValueError as e:
        raise SchemaError(str(e)) from e


def _emit(obj, args):
    """Write a record (dict) or table (list of dicts) as JSON or CSV.

    A CSV table's columns are every key of its rows in first-seen order; a
    row without a key leaves its cell empty.
    """
    if args.format == "csv":
        rows = obj if isinstance(obj, list) else [obj]
        names = list(dict.fromkeys(k for row in rows for k in row))
        _emit_csv(names, ([row.get(k, "") for k in names] for row in rows), args)
        return
    text = json.dumps(obj, indent=2, default=float) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(names, rows, args):
    """Write a header and an iterable of value rows as CSV, row by row, to --out or stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as f:
        if names:  # an empty table writes nothing
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(rows)


def _bound_record(kind: str, res) -> dict:
    return {
        "bound_kind": kind,
        "probability": res.probability,
        "raw_value": res.raw_value,
        "optimizer_v": res.optimizer_v,
        "theta": res.theta,
        "truncation_tail": res.truncation_tail,
    }


def cmd_bound(args) -> int:
    params = _params_from(args)
    res = bounds.bound_of_kind(args.kind, params)(params, parse_time(args.t))
    _emit(_bound_record(args.kind, res), args)
    return 0


def _check_fraction(name: str, x: float):
    if not 0 < x < 1:
        raise SchemaError(f"{name} must be in (0,1), got {x}")


def cmd_latency(args) -> int:
    params = _params_from(args)
    _check_fraction("--level", args.level)
    _check_fraction("--split", args.split)
    eps_time = args.split * args.level
    eps_depth = (1.0 - args.split) * args.level
    t = bounds.invert_latency(bounds.bound_of_kind("upper", params), params, eps_time)
    depth = bounds.depth_from_time(params, t, eps_depth)
    _emit(
        {
            "level": args.level,
            "split": args.split,
            "t_seconds": t,
            "depth_blocks": depth,
        },
        args,
    )
    return 0


def _parse_grid(text: str):
    """--grid's values: a comma list, or start:stop:count with finite ends and a count >= 1."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise SchemaError(f"grid range must be start:stop:count, got {text!r}")
    try:
        if len(parts) == 1:
            grid = [float(x) for x in text.split(",")]
        else:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise SchemaError(f"bad grid value in {text!r}") from e
    if len(parts) == 3:
        if count < 1 or not (math.isfinite(start) and math.isfinite(stop)):
            raise SchemaError(f"grid range needs finite ends and a count >= 1, got {text!r}")
        grid = list(np.linspace(start, stop, count))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise SchemaError("grid must be strictly increasing")
    return grid


def _try_latencies(models, level):
    """Each model's upper-bound latency at level, None where infeasible or past the horizon."""
    return [
        None if isinstance(t, Exception) else t
        for t in bounds.invert_latencies("upper", models, level)
    ]


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    params = _params_from(args)  # checks the model flags for every sweep, not only a latency one
    if args.var != "latency":
        if not all(math.isfinite(x) and x > 0 for x in grid):
            raise SchemaError(f"{args.var} grid must be finite and positive, got {args.grid!r}")
        _check_fraction("--level", args.level)
    names, rows = ["x", "latency_s"], []
    if args.var == "latency":
        if not all(math.isfinite(t) and t >= 0 for t in grid):
            raise SchemaError(f"latency grid must be finite and nonnegative, got {args.grid!r}")
        ts = np.array(grid)
        columns = {}
        for kind in args.bounds.split(","):
            fn = bounds.bound_of_kind(kind, params)
            try:  # one call per column: the bound takes the whole grid at once
                columns[kind] = fn(params, ts).probability.tolist()
            except (InfeasibleParametersError, ValueError):
                columns[kind] = [""] * len(grid)
        names = ["x", *columns]
        rows = zip(grid, *columns.values())
    elif args.var == "rate":
        share = 1.0 - args.alpha_frac
        models = [ProtocolParams.from_adversary_share(r / 3600.0, share, args.delta) for r in grid]
        rows = [(r, "" if t is None else t) for r, t in zip(grid, _try_latencies(models, args.level))]
    else:  # throughput
        share = 1.0 - args.alpha_frac
        try:
            model = DelayModel(a=args.delay_a, b=args.delay_b)
        except ValueError as e:
            raise SchemaError(str(e)) from e
        rate_grid = np.geomspace(6.0, 600.0, 80)
        for tp in grid:  # one batch per throughput: its 80 rates, each with its own block size
            with np.errstate(over="ignore", invalid="ignore"):
                deltas = model.a * (tp * 3600.0 / rate_grid) + model.b
            models = [  # a rate whose delay overflows has no finite model: it is infeasible
                ProtocolParams.from_adversary_share(rate_per_hour / 3600.0, share, delta)
                for rate_per_hour, delta in zip(rate_grid, deltas)
                if math.isfinite(delta)
            ]
            feasible = [t for t in _try_latencies(models, args.level) if t is not None]
            rows.append((tp, min(feasible) if feasible else ""))
    if args.format == "csv":  # streamed as value rows, no per-row dicts
        _emit_csv(names, rows, args)
    else:
        _emit([dict(zip(names, row)) for row in rows], args)
    return 0


def _trials(text: str) -> int:
    """Trial count like '10000' or '1e5': a whole number of at least 1."""
    try:
        x = float(text)
    except ValueError as e:
        raise SchemaError(f"bad trial count {text!r}") from e
    if not (math.isfinite(x) and x >= 1 and x == int(x)):
        raise SchemaError(f"--trials must be a whole number >= 1, got {text!r}")
    return int(x)


def _campaign(args):
    """Parameters, latency t and simulator config of an attack or race."""
    params = _params_from(args)
    trials = _trials(args.trials)
    if params.beta >= params.alpha:
        raise InfeasibleParametersError(
            f"simulation requires beta < alpha (got alpha={params.alpha}, beta={params.beta})"
        )
    t = parse_time(args.t)
    warmup = 50.0 / (params.alpha - params.beta)
    post = simulator._post_horizon(params, math.inf)  # beta < alpha: 20/(alpha-beta)
    cfg = _sim_config(
        params=params,
        horizon=warmup + t + post,
        warmup_s=warmup,
        trials=trials,
        master_seed=args.seed,
    )
    return params, t, cfg


def _sim_config(**fields) -> simulator.SimConfig:
    """A campaign's SimConfig; one it refuses, such as a chunk past its block ceiling, is a schema error."""
    try:
        return simulator.SimConfig(**fields)
    except ValueError as e:
        raise SchemaError(str(e)) from e


def cmd_simulate(args) -> int:
    ok = True
    if args.mode == "attack":
        params, t, cfg = _campaign(args)
        est = simulator.estimate_attack_success(cfg, t)
        lower = bounds.bound_of_kind("lower", params)(params, t).probability
        upper = bounds.bound_of_kind("upper", params)(params, t).probability
        ok = est.value <= upper + 3.0 * est.stderr and est.value >= lower - 3.0 * est.stderr
        report = {
            "mode": "attack",
            "trials": est.trials,
            "frequency": est.value,
            "stderr": est.stderr,
            "analytic_lower": lower,
            "analytic_upper": upper,
            "self_test_ok": ok,
        }
    elif args.mode == "species":
        a = args.alpha_delta
        if not a > 0:
            raise SchemaError(f"--alpha-delta must be positive, got {a}")
        if not args.horizon > 1:
            raise SchemaError(f"--horizon must exceed 1, got {args.horizon}")
        params = ProtocolParams(alpha=a, beta=0.0, delta=1.0)
        cfg = _sim_config(params=params, horizon=float(args.horizon), master_seed=args.seed)
        trace = simulator.generate_trace(cfg)
        span = (0.0, cfg.horizon - 1.0)
        counts = simulator.classify_species(trace, 1.0, span)
        rate = counts.Y / (span[1] - span[0])
        expect = a * math.exp(-2.0 * a)
        se = math.sqrt(max(counts.Y, 1)) / (span[1] - span[0])
        ok = abs(rate - expect) <= 3.0 * se
        report = {
            "mode": "species",
            "honest": counts.H,
            "jumpers": counts.J,
            "laggers": counts.X,
            "double_laggers": counts.V,
            "loners": counts.Y,
            "loner_rate": rate,
            "loner_rate_expected": expect,
            "self_test_ok": ok,
        }
    else:  # race
        if args.stream not in simulator.SPECIES:
            raise SchemaError(
                f"unknown --stream {args.stream!r}; one of {', '.join(simulator.SPECIES)}"
            )
        if args.stream == "double-lagger" and args.delta == 0:
            raise SchemaError("the double-lagger race needs --delta > 0")
        params, t, cfg = _campaign(args)
        spec = RaceSpec(mu=params.delta, nu=params.delta, n=1, t=t)
        est = simulator.estimate_race_loss(cfg, spec, args.stream)
        upper = bounds.delay_upper(params, t).probability if args.stream == "double-lagger" else None
        ok = upper is None or est.value <= upper + 3.0 * est.stderr
        report = {
            "mode": "race",
            "stream": args.stream,
            "trials": est.trials,
            "frequency": est.value,
            "stderr": est.stderr,
            "analytic_upper": upper,
            "self_test_ok": ok,
        }
    _emit(report, args)
    return 0 if ok else 4


def cmd_protocol_table(args) -> int:
    path = args.config or default_config_path()
    specs, model = load_config(path)
    try:
        levels = [float(x) for x in args.levels.split(",")]
    except ValueError as e:
        raise SchemaError(f"bad --levels {args.levels!r}") from e
    for level in levels:
        _check_fraction("--levels entry", level)
    if not 0 <= args.adversary < 1:
        raise SchemaError(f"--adversary must be in [0,1), got {args.adversary}")
    rows = build_comparison_table(specs, model, args.adversary, levels)
    flat = []
    failures = []
    for row in rows:
        rec = {"name": row["name"], "delay_s": row["delay_s"]}
        for level in levels:
            rec[f"latency_s_{level:g}"] = (
                row["latencies_s"][level] if row["latencies_s"][level] is not None else ""
            )
        rec["throughput_kb_s"] = row["throughput_kb_s"]
        rec["fault_tolerance_loner_rate"] = row["fault_tolerance_loner_rate"]
        rec["fault_tolerance_ultimate"] = row["fault_tolerance_ultimate"]
        if row["note"]:
            rec["note"] = row["note"]
        flat.append(rec)
        if args.check:
            exp = TABLE2_EXPECTED.get(row["name"])
            if exp is None:
                continue
            for level, want in exp["latencies_s"].items():
                got = row["latencies_s"].get(level)
                if got is None or abs(got - want) > 0.05 * want:
                    failures.append(f"{row['name']} latency@{level:g}: {got} vs {want}")
            if abs(row["throughput_kb_s"] - exp["throughput_kb_s"]) > 0.02 * exp["throughput_kb_s"]:
                failures.append(f"{row['name']} throughput")
            dev = min(
                abs(row["fault_tolerance_loner_rate"] - exp["fault_tolerance"]),
                abs(row["fault_tolerance_ultimate"] - exp["fault_tolerance"]),
            )
            if dev > 0.005:
                failures.append(f"{row['name']} fault tolerance")
    _emit(flat, args)
    if failures:
        print("check failures: " + "; ".join(failures), file=sys.stderr)
        return 4
    return 0


def _add_param_flags(p):
    p.add_argument("--alpha-frac", type=float, default=0.9, help="honest share of the mining rate")
    p.add_argument("--total-rate", default="6/hour", help="combined mining rate, e.g. 6/hour")
    p.add_argument("--delta", type=float, default=10.0, help="propagation delay bound in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="powbounds")
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    parser.add_argument("--seed", type=int, default=0, help="master seed for simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate one bound at one time")
    p.add_argument("kind", choices=list(bounds.BOUND_KINDS))
    _add_param_flags(p)
    p.add_argument("--t", required=True, help="confirmation latency, e.g. 4h or 10h40m")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("latency", help="invert a security level to latency and depth")
    _add_param_flags(p)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--split", type=float, default=0.5, help="share of the level spent on the time bound")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("sweep", help="tabulate bounds over a grid")
    _add_param_flags(p)
    p.add_argument("--var", choices=["latency", "rate", "throughput"], required=True)
    p.add_argument("--grid", required=True, help="comma list or start:stop:count")
    p.add_argument("--bounds", default="upper,lower", help="columns for latency sweeps")
    p.add_argument("--level", type=float, default=1e-9)
    p.add_argument("--delay-a", type=float, default=0.0098, help="delay model seconds per KB")
    p.add_argument("--delay-b", type=float, default=0.208, help="delay model intercept seconds")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo campaigns with analytic cross-checks")
    p.add_argument("mode", choices=["attack", "species", "race"])
    _add_param_flags(p)
    p.add_argument("--t", default="2h")
    p.add_argument("--trials", default="10000")
    p.add_argument("--alpha-delta", type=float, default=0.025, help="normalized rate for species mode")
    p.add_argument("--horizon", type=float, default=1e6, help="trace length for species mode")
    p.add_argument("--stream", default="double-lagger", help="renewal stream for race mode")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("protocol-table", help="cross-protocol comparison table")
    p.add_argument("--config", default=None, help="JSON protocol config (default: bundled)")
    p.add_argument("--adversary", type=float, default=0.25)
    p.add_argument("--levels", default="1e-3,1e-6,1e-9")
    p.add_argument("--check", action="store_true", help="compare against the published table")
    p.set_defaults(func=cmd_protocol_table)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use (~1.5 ms) and reused: parse_args keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; report those as parse errors
        return 0 if e.code == 0 else 3
    try:
        return args.func(args)
    except (InfeasibleParametersError, BracketError) as e:
        print(f"infeasible parameters: {e}", file=sys.stderr)
        return 2
    except SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
