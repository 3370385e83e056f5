"""Span tracing of powbounds' public functions, applied from outside the package.

`Tracer.install()` replaces each function in TRACED with a wrapper in every
loaded `powbounds` module that bound it (for example `bounds.delay_upper`
is also reached as `protocols.delay_upper`, and `distributions.skellam_pmf`
as `bounds.skellam_pmf`), so calls through any of those names are recorded.
Private helpers are not wrapped.  Spans stay in memory as tuples until the
caller writes them out.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs; the span name is "<module suffix>.<function>".
TRACED = [
    ("powbounds.cli", "main"),
    ("powbounds.protocols", "load_config"),
    ("powbounds.protocols", "build_comparison_table"),
    ("powbounds.protocols", "fault_tolerance"),
    ("powbounds.bounds", "invert_latency"),
    ("powbounds.bounds", "delay_upper"),
    ("powbounds.bounds", "depth_from_time"),
    ("powbounds.bounds", "zero_delay_lower"),
    ("powbounds.bounds", "delay_lower"),
    ("powbounds.bounds", "postmine_gain_pmf"),
    ("powbounds.distributions", "skellam_pmf"),
    ("powbounds.distributions", "series_div"),
    ("powbounds.distributions", "erlang_ccdf_vec"),
    ("powbounds.distributions", "log_poisson_pmf_vec"),
    ("powbounds.distributions", "geometric_sum_ccdf"),
    ("powbounds.simulator", "estimate_attack_success"),
    ("powbounds.simulator", "estimate_race_loss"),
    ("powbounds.simulator", "run_private_attack"),
    ("powbounds.simulator", "generate_trace"),
    ("powbounds.simulator", "species_times"),
]

# Exceptions that mean "no answer for these parameters" rather than a fault.
INFEASIBLE = ("InfeasibleParametersError", "BracketError")

# Span tuple fields.
NAME, START, END, PARENT, REQUEST, STATUS = range(6)


class Tracer:
    """Records (name, start_ns, end_ns, parent index, request id, status) per call."""

    def __init__(self):
        self.spans = []
        self.request_id = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            status = "ok"
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                status = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request_id, status)

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "powbounds"]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        """One JSON array per span: name, start_ns, end_ns, parent index, request id, status."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_stats(spans):
    """Per span name: call count, total and self seconds, and each call's duration (s).

    Self time is a span's duration minus the durations of its direct children
    (children never overlap: the program is single-threaded).
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_ns[span[PARENT]] += span[END] - span[START]
    stats = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        dur = span[END] - span[START]
        s["calls"] += 1
        s["total_s"] += dur * 1e-9
        s["self_s"] += (dur - child_ns[i]) * 1e-9
        s["durations"].append(dur * 1e-9)
    return stats


def bound_evals_per_call(spans):
    """Bound evaluations (direct delay_upper children) per invert_latency call."""
    inverts = {i for i, s in enumerate(spans) if s[NAME] == "bounds.invert_latency"}
    evals = sum(1 for s in spans if s[NAME] == "bounds.delay_upper" and s[PARENT] in inverts)
    return evals / len(inverts) if inverts else 0.0


def infeasible_frac(spans):
    """Share of calls entering the bounds layer from outside it that end infeasible."""
    entries = [
        s for s in spans
        if s[NAME].startswith("bounds.")
        and (s[PARENT] is None or not spans[s[PARENT]][NAME].startswith("bounds."))
    ]
    bad = sum(1 for s in entries if s[STATUS] in INFEASIBLE)
    return bad / len(entries) if entries else 0.0
