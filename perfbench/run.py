#!/usr/bin/env python3
"""powbounds benchmark: seeded workloads driven through `powbounds.cli.main(argv)`.

    python3 perfbench/run.py --workload design-queries --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  One single-threaded closed-loop client runs in this interpreter
(BLAS/OpenMP pools pinned to one thread).  The seed draws a panel of distinct
requests, sized so that a run measures about --seconds.  The client runs the
panel ROUNDS times; each round also runs the acceptance operations
(`acceptance_ops`) ACCEPT_REPEATS times, spread evenly through it.  Every
output is checked after the run, outside all timing.

Times are reported in reference-host seconds: each execution's wall time is
scaled by the host speed measured next to it with a fixed calibration
(`calibrate`), and an operation's time is the median over its repeats.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same schedule
twice, untraced and then traced, and prints per-layer metrics from the traced
pass plus the tracing overhead.  Human-readable lines start with '#'; the
last stdout line is the JSON result.  Spans and a full result record are
written to perfbench/out/.
"""

import os

# Must precede the first numpy import, here and in the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("design-queries", "tradeoff-curves")
PROBE = (
    "import powbounds.cli as c; c.load_config(c.default_config_path()); "
    "print('ready', flush=True)"
)
# Every request runs ROUNDS times on identical inputs, and every acceptance
# operation ROUNDS * ACCEPT_REPEATS times, the repeats spread across the run;
# an operation's time is the median of them.  One table check (~1.5 s) varied
# by +-20% within a run even in reference time, so it needs more repeats than
# a request does.  A traced run makes two passes (untraced, traced) of
# TRACE_ROUNDS rounds each.
ROUNDS = 5
ACCEPT_REPEATS = 2
TRACE_ROUNDS = ROUNDS // 2
# Request executions per second, and acceptance-operation seconds per round,
# on the seed commit: a panel of (seconds - ROUNDS * ACCEPT_S) * RATE / ROUNDS
# distinct requests makes a run measure about --seconds.
RATE = {"design-queries": 14.0, "tradeoff-curves": 2.0}
ACCEPT_S = 2.2 * ACCEPT_REPEATS
# Host speed.  On a shared 2-vCPU Xeon VM a fixed Python loop's speed drifted
# by 25-50% over seconds to minutes, in CPU time as in wall time, so it is
# contention from other tenants, not preemption.  A calibration of fixed
# interpreter, numpy and scipy.special work runs before every execution; an
# execution's reference time is wall x CAL_REF_S / (median of the calibrations
# that started within CAL_WINDOW_S of it).  In 4-s bins on that VM, the log
# times of a latency query, a trade-off sweep and a simulate campaign moved
# with the calibration's at slopes 0.92-1.05; across 40-s runs of different
# seeds it cut the spread (IQR/median) of the end-to-end times from 0.11-0.32
# to 0.03-0.10.  CAL_REF_S is about the calibration's median time on that VM,
# so reference times read as its seconds.
CAL_REF_S = 2.5e-3
CAL_WINDOW_S = 2.0
CAL_LOOP = 16000
CAL_VEC = 9
_CAL_X = np.linspace(1.0, 40.0, 4000)
TABLE_CHECK = ["--format", "csv", "protocol-table", "--check"]
# Bitcoin at 10% adversary with a 10 s delay bound: the paper's worked example.
LATENCY_EXAMPLE = ["latency", "--alpha-frac", "0.9", "--total-rate", "6/hour", "--delta", "10",
                   "--level", "1e-9"]
MC_KINDS = tuple(kind for kind, _ in workloads.MC_CYCLE)


def calibrate():
    """Wall seconds of a fixed mix of interpreter, numpy and scipy.special work."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    for _ in range(CAL_VEC):
        np.cumsum(special.gammaln(_CAL_X + acc % 3))
        np.sort(np.exp(-_CAL_X))
    return time.perf_counter() - start


def setup_probe(client, env):
    """Log the wall seconds from spawning a fresh interpreter to powbounds.cli
    imported and config loaded, with calibrations just before and after."""
    for _ in range(3):
        client.calibrate()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    client.setups.append({"t0": start, "s": elapsed})
    for _ in range(3):
        client.calibrate()


class Client:
    """Single closed-loop client: calls cli.main in-process and captures its output."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.log = []  # one entry per execution, in the order run
        self.cals = []  # (start, seconds) of each calibration, in the order run
        self.setups = []  # set-up probes: {"t0", "s"}

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)  # looked up per call so a traced wrapper applies
        except Exception:  # a raise is a failed operation; keep the client running
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def calibrate(self):
        self.cals.append((time.perf_counter(), calibrate()))

    def run(self, op):
        """Execute one operation {"id", "kind", "calls", "request"}; log and time it."""
        self.calibrate()
        if self.tracer is not None:
            self.tracer.request_id = len(self.log)
        start = time.perf_counter()
        outputs = [self.call(argv) for argv in op["calls"]]
        self.log.append(dict(op, outputs=outputs, t0=start, s=time.perf_counter() - start))


def request_panel(workload, seed, seconds):
    """The run's distinct requests, drawn from the seed; size set by --seconds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "design-queries":
        with open(SRC / "powbounds" / "data" / "protocols.json") as f:
            dm = json.load(f)["delay_model"]
        stream = workloads.design_queries(rng, (dm["a_s_per_kb"], dm["b_s"]))
    else:
        stream = workloads.tradeoff_curves(rng)
    size = max(1, round((seconds - ROUNDS * ACCEPT_S) * RATE[workload] / ROUNDS))
    return [{"id": f"r{i}", "kind": kind, "calls": calls, "request": True}
            for i, (kind, calls) in zip(range(size), stream)]


def acceptance_ops():
    """Fixed operations, the same in every run: the table check, the latency example
    and one Monte Carlo cycle with fixed master seeds, so its outputs repeat in every
    run and its 3-SE self-tests pass or fail alike everywhere."""
    cycle = workloads.mc_campaigns(random.Random("acceptance"))
    mc = [next(cycle) for _ in workloads.MC_CYCLE]
    ops = [("table", [TABLE_CHECK]), mc[0], ("latency_example", [LATENCY_EXAMPLE]), *mc[1:]]
    return [{"id": f"a{j}", "kind": kind, "calls": calls, "request": False}
            for j, (kind, calls) in enumerate(ops)]


def run_pass(client, panel, ops, rounds, setup_env=None):
    """Rounds over the panel; acceptance execution j of each round's n runs
    (j + 0.5)/n of the way through.

    Each logged execution and set-up probe gets "ref_s", its wall time in
    reference-host seconds.  With setup_env, a set-up probe runs before each
    round and after the last.
    """
    client.log, client.cals, client.setups = [], [], []
    ops = ops * ACCEPT_REPEATS
    for _ in range(rounds):
        if setup_env is not None:
            setup_probe(client, setup_env)
        done = 0
        for i, request in enumerate(panel):
            while done < len(ops) and i / len(panel) >= (done + 0.5) / len(ops):
                client.run(ops[done])
                done += 1
            client.run(request)
        for op in ops[done:]:
            client.run(op)
    if setup_env is not None:
        setup_probe(client, setup_env)
    client.calibrate()
    starts = [t for t, _ in client.cals]
    for entry in client.log + client.setups:
        lo = bisect.bisect_left(starts, entry["t0"] - CAL_WINDOW_S)
        hi = bisect.bisect_right(starts, entry["t0"] + entry["s"] + CAL_WINDOW_S)
        cal = statistics.median(c for _, c in client.cals[lo:hi])
        entry["ref_s"] = entry["s"] * CAL_REF_S / cal
    client.host_speed = CAL_REF_S / statistics.median(c for _, c in client.cals)
    return client.log


def by_id(log):
    """Executions grouped by operation id, in order of first execution."""
    groups = {}
    for entry in log:
        groups.setdefault(entry["id"], []).append(entry)
    return list(groups.values())


def check_pass(log, cli, bounds):
    """Check each operation's output once and that its repeats printed the same.

    Returns (attempted, failures, infeasible answers); every execution counts
    as attempted, and a failed check fails all of the operation's executions.
    """
    attempted, failures, infeasible = 0, [], 0
    for runs in by_id(log):
        first = runs[0]
        for k, argv in enumerate(first["calls"]):
            rc, out, err = first["outputs"][k]
            kind = first["kind"]
            if kind in ("query", "latency_example"):
                why = workloads.check_latency(cli, bounds, argv, rc, out)
                infeasible += len(runs) * (rc == 2 and why is None)
            elif kind == "figure":
                why = workloads.check_curve(rc, out)
            elif kind == "table":
                why = workloads.check_table(rc, out)
            else:
                why = workloads.check_campaign(rc, out)
            if why is None and any(r["outputs"][k][:2] != (rc, out) for r in runs[1:]):
                why = "repeats of identical input printed different output"
            attempted += len(runs)
            if why is not None:
                failures += [{"argv": argv, "exit": rc, "why": why, "stderr": err[-2000:]}] * len(runs)
    return attempted, failures, infeasible


def op_times(log, key="ref_s"):
    """[(first execution, median seconds over its repeats)] per operation; key
    "ref_s" gives reference-host seconds, "s" wall seconds."""
    return [(runs[0], statistics.median(r[key] for r in runs)) for runs in by_id(log)]


def campaigns(log, key="ref_s"):
    """Per MC kind: seconds, trials and successes, summed over distinct campaigns."""
    pooled = {}
    for entry, secs in op_times(log, key):
        if entry["kind"] not in MC_KINDS or entry["outputs"][0][0] != 0:
            continue
        rec = json.loads(entry["outputs"][0][1])
        c = pooled.setdefault(entry["kind"], {"s": 0.0, "trials": 0, "wins": 0})
        c["s"] += secs
        c["trials"] += rec["trials"]
        c["wins"] += round(rec["frequency"] * rec["trials"])
    return pooled


def mc_cost(pooled):
    """Seconds to reach 10% relative standard error on every campaign kind, summed.

    seconds x (stderr/frequency / 0.10)^2 per kind, with the kind's campaigns pooled.
    """
    total = 0.0
    for c in pooled.values():
        p = c["wins"] / c["trials"]
        rel_se = math.sqrt((1.0 - p) / (p * c["trials"])) if p > 0 else math.inf
        total += c["s"] * (rel_se / 0.10) ** 2
    return total


def request_stats(log, key="ref_s"):
    times = sorted(secs for entry, secs in op_times(log, key) if entry["request"])
    n = len(times)
    # The highest percentile with >= 10 requests beyond it; where that would
    # lie below p75 (n < 40), the maximum.
    tail_index = n - 11 if n >= 40 else n - 1
    return {
        "p50_s": statistics.median(times),
        "tail_s": times[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "samples": n,
        "per_s": n / sum(times),
    }


def end_to_end(log, setup_s, key="ref_s"):
    rs = request_stats(log, key)
    return {
        "setup_s": (setup_s, "s"),
        "req_p50_ms": (rs["p50_s"] * 1e3, "ms"),
        "req_tail_ms": (rs["tail_s"] * 1e3, "ms"),
        "req_per_s": (rs["per_s"], "1/s"),
        "table_check_s": (statistics.median(
            secs for e, secs in op_times(log, key) if e["kind"] == "table"), "s"),
        "mc_cost_s_at_rel10": (mc_cost(campaigns(log, key)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, rs


def per_layer(traced, untraced, spans):
    st = tracing.layer_stats(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return st.get(name, empty)

    m = {}
    for name in ("bounds.invert_latency", "bounds.delay_upper", "bounds.zero_delay_lower",
                 "bounds.delay_lower", "bounds.postmine_gain_pmf", "distributions.skellam_pmf",
                 "distributions.series_div", "simulator.run_private_attack",
                 "simulator.generate_trace", "protocols.fault_tolerance"):
        m[f"{name}.calls"] = (get(name)["calls"], "count")
        m[f"{name}.self_s"] = (get(name)["self_s"], "s")
    for name in ("bounds.delay_upper", "bounds.zero_delay_lower", "bounds.delay_lower",
                 "bounds.postmine_gain_pmf"):
        durations = get(name)["durations"]
        m[f"{name}.p50_us"] = (statistics.median(durations) * 1e6 if durations else 0.0, "us")
    for name in ("bounds.depth_from_time", "distributions.erlang_ccdf_vec",
                 "distributions.log_poisson_pmf_vec", "simulator.species_times",
                 "simulator.estimate_attack_success", "simulator.estimate_race_loss"):
        m[f"{name}.self_s"] = (get(name)["self_s"], "s")
    m["distributions.geometric_sum_ccdf.calls"] = (
        get("distributions.geometric_sum_ccdf")["calls"], "count")
    m["bounds.invert_latency.bound_evals_per_call"] = (tracing.bound_evals_per_call(spans), "count")
    m["bounds.infeasible_frac"] = (tracing.infeasible_frac(spans), "ratio")

    builds = get("protocols.build_comparison_table")["durations"]
    m["protocols.build_comparison_table.s"] = (statistics.median(builds) if builds else 0.0, "s")
    loads = get("protocols.load_config")["durations"]
    m["protocols.load_config.ms"] = (statistics.median(loads) * 1e3 if loads else 0.0, "ms")

    # estimator seconds and trials executed per campaign kind, over every repeat;
    # a span's request id indexes the pass log
    est_s, run_trials = dict.fromkeys(MC_KINDS, 0.0), dict.fromkeys(MC_KINDS, 0)
    for s in spans:
        if s[tracing.NAME] in ("simulator.estimate_attack_success", "simulator.estimate_race_loss"):
            entry = traced[s[tracing.REQUEST]]
            est_s[entry["kind"]] += (s[tracing.END] - s[tracing.START]) * 1e-9
            run_trials[entry["kind"]] += json.loads(entry["outputs"][0][1])["trials"]
    pooled = campaigns(traced)
    for kind in MC_KINDS:
        n = run_trials[kind]
        m[f"simulator.us_per_trial.{kind}"] = (est_s[kind] / n * 1e6 if n else 0.0, "us")
        c = pooled.get(kind, {"trials": 0, "wins": 0})
        m[f"simulator.success_frac.{kind}"] = (c["wins"] / c["trials"] if c["trials"] else 0.0, "ratio")
    total_s = sum(est_s.values())
    m["simulator.trials_per_s"] = (sum(run_trials.values()) / total_s if total_s else 0.0, "1/s")

    m["cli.main.calls"] = (get("cli.main")["calls"], "count")
    m["cli.self_ms"] = (get("cli.main")["self_s"] * 1e3, "ms")

    m["trace.overhead_req_p50_ms"] = (
        (request_stats(traced)["p50_s"] - request_stats(untraced)["p50_s"]) * 1e3, "ms")
    m["trace.overhead_mc_cost_s"] = (mc_cost(pooled) - mc_cost(campaigns(untraced)), "s")
    return m


def stamp():
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "powbounds").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": threading.active_count(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "powbounds" / "cli.py").is_file():
        print(f"error: no powbounds sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    sys.path.insert(0, str(SRC))
    from powbounds import bounds, cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported powbounds from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    client = Client(cli)
    panel = request_panel(args.workload, args.seed, args.seconds)
    ops = acceptance_ops()
    if args.trace == 0:
        passes = [run_pass(client, panel, ops, ROUNDS, setup_env=env)]
    else:
        passes = [run_pass(client, panel, ops, TRACE_ROUNDS)]
    setup_ref = [probe["ref_s"] for probe in client.setups]
    setup_runs = [probe["s"] for probe in client.setups]
    host_speed = client.host_speed
    if args.trace == 1:
        client.tracer = tracing.Tracer()
        client.tracer.install()
        try:
            passes.append(run_pass(client, panel, ops, TRACE_ROUNDS))
        finally:
            client.tracer.uninstall()

    attempted, failures, infeasible = 0, [], 0
    for log in passes:
        a, f, i = check_pass(log, cli, bounds)
        attempted, infeasible = attempted + a, infeasible + i
        failures += f

    if args.trace == 0:
        metrics, rs = end_to_end(passes[0], statistics.median(setup_ref))
        wall = end_to_end(passes[0], statistics.median(setup_runs), key="s")[0]
    else:
        metrics = per_layer(passes[1], passes[0], client.tracer.spans)
        rs = request_stats(passes[1])
        wall = {}

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        client.tracer.write(OUT / f"spans-{tag}.jsonl")
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp(),
        "requests": rs["samples"], "tail_percentile": rs["tail_percentile"],
        "infeasible_answers": infeasible, "failed_frac": len(failures) / attempted,
        "host_speed": host_speed, "setup_wall_s": setup_runs,
        "measured_wall_s": sum(e["s"] for log in passes for e in log),
        "wall_metrics": {k: v for k, (v, _) in wall.items()}, "failures": failures[:20],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as f:
        json.dump(dict(info, **result), f, indent=1)

    print(f"# powbounds benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in info["stamp"].items()))
    print(f"# host speed {host_speed:.3f} x reference (calibration median "
          f"{CAL_REF_S / host_speed * 1e3:.3f} ms, reference {CAL_REF_S * 1e3:g} ms); "
          f"times are reference-host times; {info['measured_wall_s']:.1f} s measured")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "req_tail_ms":
            note = f"  (p{rs['tail_percentile']:.1f} of {rs['samples']} requests)"
        if name in wall and name != "peak_rss_mb":
            note += f"  (wall {wall[name][0]:.6g})"
        print(f"# {name:<46} {value:>14.6g} {unit}{note}")
    print(f"# {'failed_frac':<46} {info['failed_frac']:>14.6g} ratio  "
          f"({len(failures)} of {attempted} operations failed; "
          f"{infeasible} infeasible answers, exit 2)")
    for fail in failures[:5]:
        print(f"# FAILED {fail['why']}: {' '.join(fail['argv'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
