"""Seeded request streams for the benchmark workloads, and their output checks.

A request is one unit the closed-loop client times: a `kind` and the list of
`powbounds` CLI argument vectors it runs back to back.  Generators depend only
on the seed; the program sees nothing but the argument vectors.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random

# `sweep --var throughput` space: its total-rate grid spans 6..600 blocks/hour;
# throughputs (KB/s) run in 1-2-5 steps past the protocol table's 1.7..26.7
# up to where a 25% adversary makes the delay bound infeasible.
THROUGHPUT_GRID_KB_S = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
RATE_RANGE_PER_HOUR = (6.0, 600.0)
ADVERSARY_SHARES = (0.10, 0.25)
LEVELS = (1e-3, 1e-6, 1e-9)

# Trade-off figure: 10% adversary at 6 blocks/hour.  zero_delay_lower costs
# ~100 ms a point and delay_lower ~8 ms, so the delta > 0 curve gets ten times
# the points and both lower-bound paths take comparable time.
FIGURE_POINTS = {"0": 3, "10": 30}

# One Monte Carlo validation cycle: 10% adversary at 6/hour.  The delta = 10
# attack's frequency (~0.0418) sits ~1% above its lower bound (0.0413), so the
# CLI's 3-SE self-test can fail by chance for some master seeds; the benchmark
# runs the cycle with fixed seeds, so the outcome is the same in every run.
MC_CYCLE = (
    ("attack_d0", ["simulate", "attack", "--delta", "0", "--t", "30m", "--trials", "2000"]),
    ("attack_d10", ["simulate", "attack", "--delta", "10", "--t", "30m", "--trials", "3000"]),
    ("race", ["simulate", "race", "--stream", "double-lagger", "--delta", "10", "--t", "1h",
              "--trials", "1000"]),
)
MC_PARAMS = ["--alpha-frac", "0.9", "--total-rate", "6/hour"]


def design_queries(rng: random.Random, delay_model):
    """`latency --level eps` queries over the throughput-sweep parameter space.

    Each block of queries takes every (throughput, share, level) combination
    once, in random order, and draws one log-uniform rate from each of as many
    equal strata of the log-rate range, so panels of a given size differ little
    in their mix of cheap (infeasible) and costly points.
    """
    a, b = delay_model
    lo, hi = (math.log(r) for r in RATE_RANGE_PER_HOUR)
    combos = list(itertools.product(THROUGHPUT_GRID_KB_S, ADVERSARY_SHARES, LEVELS))
    strata = list(range(len(combos)))
    while True:
        rng.shuffle(combos)
        rng.shuffle(strata)
        for (tp, share, level), k in zip(combos, strata):
            rate = math.exp(lo + (hi - lo) * (k + rng.random()) / len(strata))
            delta = a * (tp * 3600.0 / rate) + b
            yield "query", [[
                "latency", "--alpha-frac", repr(1.0 - share), "--total-rate", f"{rate!r}/hour",
                "--delta", repr(delta), "--level", repr(level),
            ]]


def tradeoff_curves(rng: random.Random):
    """One trade-off figure: upper and lower curves at delta = 0 and delta = 10 s."""
    while True:
        start = round(rng.uniform(900.0, 3600.0))
        stop = start + 6 * 3600  # fixed span: figures of one run cost about the same
        yield "figure", [
            ["--format", "csv", "sweep", "--var", "latency", "--bounds", "upper,lower",
             "--alpha-frac", "0.9", "--total-rate", "6/hour", "--delta", delta,
             "--grid", f"{start}:{stop}:{points}"]
            for delta, points in FIGURE_POINTS.items()
        ]


def mc_campaigns(rng: random.Random):
    """MC_CYCLE repeated, each campaign with its own master seed drawn from rng."""
    while True:
        for kind, argv in MC_CYCLE:
            yield kind, [["--seed", str(rng.randrange(2**31))] + argv + MC_PARAMS]


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_latency(cli, bounds, argv, rc, out):
    """t is the smallest whole second with upper(t) <= split*eps; exit 2 only if infeasible."""
    params = bounds.ProtocolParams.from_adversary_share(
        cli.parse_rate(_flag(argv, "--total-rate")),
        1.0 - float(_flag(argv, "--alpha-frac")),
        float(_flag(argv, "--delta")),
    )
    a, b, d = params.alpha, params.beta, params.delta
    infeasible = b >= a * math.exp(-2.0 * a * d)
    if rc == 2:
        return None if infeasible else "exit 2 on feasible parameters"
    if rc != 0:
        return f"exit {rc}"
    if infeasible:
        return "answered infeasible parameters"
    rec = json.loads(out)
    t, eps = rec["t_seconds"], rec["split"] * rec["level"]
    if not bounds.delay_upper(params, t).probability <= eps:
        return f"upper({t}) > {eps}"
    if t > 1 and not bounds.delay_upper(params, t - 1).probability > eps:
        return f"upper({t - 1}) <= {eps}: not the smallest latency"
    if not (isinstance(rec["depth_blocks"], int) and rec["depth_blocks"] >= 1):
        return f"bad depth {rec['depth_blocks']!r}"
    return None


def check_curve(rc, out):
    """lower <= upper at every point; both curves non-increasing in t."""
    if rc != 0:
        return f"exit {rc}"
    rows = list(csv.DictReader(io.StringIO(out)))
    if not rows:
        return "empty sweep"
    try:
        up = [float(r["upper"]) for r in rows]
        low = [float(r["lower"]) for r in rows]
    except ValueError:
        return "empty cell in a feasible sweep"
    if any(lo > hi for lo, hi in zip(low, up)):
        return "lower > upper"
    for col in (up, low):
        if any(b > a for a, b in zip(col, col[1:])):
            return "curve increases in t"
    return None


def check_campaign(rc, out):
    """The campaign's own 3-SE self-test against the analytic bounds passed."""
    if rc != 0:
        return f"exit {rc}"
    return None if json.loads(out)["self_test_ok"] is True else "self_test_ok is false"


def check_table(rc, out):
    return None if rc == 0 else f"exit {rc}"
