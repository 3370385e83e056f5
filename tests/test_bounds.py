"""Analytic bounds against frozen high-precision oracles and structure checks."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from powbounds import bounds
from powbounds.bounds import (
    BoundResult,
    Mgf,
    ProtocolParams,
    RaceSpec,
    _g_norm,
    _geometric_poisson,
    _smallest_root_norm,
    _zeta_norm,
    bracketed_root,
    delay_lower,
    delay_upper,
    delay_upper_universal,
    depth_from_time,
    double_lagger_mgf,
    invert_latencies,
    invert_latency,
    postmine_gain_pmf,
    renewal_race_bound,
    zero_delay_lower,
    zero_delay_upper,
)
from powbounds.distributions import erlang_ccdf_vec, log_poisson_pmf_vec, skellam_pmf
from powbounds.errors import BracketError, InfeasibleParametersError
from powbounds.protocols import (
    build_comparison_table,
    default_config_path,
    load_config,
    protocol_delay,
)

BITCOIN_10 = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.10, 10.0)
BITCOIN_25 = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.25, 10.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(alpha=0.0, beta=0.1)
    with pytest.raises(ValueError):
        ProtocolParams(alpha=1.0, beta=-0.1)
    for alpha, beta, delta in ((math.inf, 0.1, 1.0), (1.0, math.inf, 1.0), (1.0, 0.1, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ProtocolParams(alpha, beta, delta)
    p = ProtocolParams.from_adversary_share(1.0, 0.25, 2.0)
    assert p.alpha == pytest.approx(0.75)
    assert p.beta == pytest.approx(0.25)
    assert p.total_rate == pytest.approx(1.0)


def test_bound_result_clamps():
    assert BoundResult.from_raw(3.5).probability == 1.0
    assert BoundResult.from_raw(3.5).raw_value == 3.5
    assert BoundResult.from_raw(-0.1).probability == 0.0


# --- zero delay -----------------------------------------------------------


def test_zero_delay_upper_closed_form():
    p = ProtocolParams(alpha=0.0015, beta=0.0005)
    t = 3600.0
    want = (1 + math.sqrt(1 / 3)) ** 2 * math.exp(
        -((math.sqrt(0.0015) - math.sqrt(0.0005)) ** 2) * t
    )
    assert zero_delay_upper(p, t).raw_value == pytest.approx(want, rel=1e-12)


def test_zero_delay_upper_requires_minority():
    with pytest.raises(InfeasibleParametersError):
        zero_delay_upper(ProtocolParams(alpha=1.0, beta=1.0), 10.0)


def test_zero_delay_lower_oracle():
    # frozen from a 40-digit evaluation of the Skellam series
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.10, 0.0)
    res = zero_delay_lower(p, 7200.0)
    assert res.probability == pytest.approx(8.23807987721121e-4, rel=1e-10)
    assert res.truncation_tail < 1e-15


def test_zero_delay_sandwich():
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.10, 0.0)
    for t in (1800.0, 7200.0, 36000.0):
        assert zero_delay_lower(p, t).probability < zero_delay_upper(p, t).probability


def test_zero_delay_lower_no_adversary():
    assert zero_delay_lower(ProtocolParams(alpha=1.0, beta=0.0), 5.0).probability == 0.0


@pytest.mark.parametrize("share", [0.1, 0.45, 0.4999])
def test_zero_delay_lower_is_finite_at_long_horizons(share):
    # 2 sqrt(alpha beta) t passes ive's 2^30 limit (t ~ 1.2e12 s at 10%, 6/h)
    for per_hour in (6.0, 600.0):
        p = ProtocolParams.from_adversary_share(per_hour / 3600.0, share, 0.0)
        res = zero_delay_lower(p, np.array([1e12, 1e300]))
        for field in (res.raw_value, res.probability, res.truncation_tail):
            assert np.isfinite(field).all() and (field >= 0.0).all()
        assert (res.raw_value <= 1.0).all()


@pytest.mark.parametrize("share", [0.1, 0.45, 0.4999])
def test_delay_lower_is_finite_at_long_horizons(share):
    # at 0.4999 only alpha*delta below ~4e-4 keeps the gain transform proper
    for per_hour in (6.0, 600.0):
        rate = per_hour / 3600.0
        params = ProtocolParams.from_adversary_share(rate, share, 1e-4 / ((1.0 - share) * rate))
        res = delay_lower(params, np.array([1e12, 1e300]))
        for field in (res.raw_value, res.probability, res.truncation_tail):
            assert np.isfinite(field).all() and (field >= 0.0).all() and (field <= 1.0).all()


def test_lower_bound_memory_does_not_grow_with_the_number_of_times():
    # each block of times works in runs of at most _BLOCK_TERMS terms, the widest
    # rows first: 1024 times peak within 10% of 32 over the same span
    cases = (
        (zero_delay_lower, ProtocolParams.from_adversary_share(6.0 / 3600.0, 0.4999, 0.0)),
        (zero_delay_lower, ProtocolParams.from_adversary_share(600.0 / 3600.0, 0.45, 0.0)),
        (delay_lower, ProtocolParams.from_adversary_share(600.0 / 3600.0, 0.45, 0.5)),
    )
    for fn, params in cases:
        fn(params, 3600.0)

        def peak(n):
            ts = np.linspace(0.0, 40000.0, n)
            tracemalloc.start()
            try:
                fn(params, ts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1024) <= 1.1 * peak(32)


def test_zero_delay_lower_makes_one_skellam_call_per_block(monkeypatch):
    # every row's means in one call, over the orders the model's ratio bound sizes
    calls = []
    skellam = bounds.skellam_pmf
    monkeypatch.setattr(bounds, "skellam_pmf", lambda *a: calls.append(a) or skellam(*a))
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.10, 0.0)
    ts = np.linspace(0.0, 36000.0, 30)
    zero_delay_lower(p, ts)
    assert len(calls) == 1
    ks, mu1, mu2 = calls[0]
    assert mu1.shape == mu2.shape == (30, 1)
    z = 2.0 * ts * math.sqrt(p.alpha * p.beta)
    top = max(bounds._zero_delay_orders(p.beta / p.alpha, zj)[0] for zj in z)
    assert ks.tolist() == list(range(-1, top)) and top <= bounds._zero_delay_orders(p.beta / p.alpha)[0]


# --- rate-function machinery ---------------------------------------------


# smallest positive zero of the denominator, refined at 40-digit precision
ROOT_ORACLE = [
    (0.01, 0.0098990052515356771),
    (0.025, 0.024359595083132283),
    (0.1, 0.089076022825951877),
    (0.5, 0.21201958749208845),
    (1.0, 0.13931761125253757),
]


@pytest.mark.parametrize("a,want", ROOT_ORACLE)
def test_smallest_root_oracle(a, want):
    assert _smallest_root_norm(a) == pytest.approx(want, rel=1e-10)


def test_theta_scales_with_delta():
    # theta (per second) is the normalized root u0 of g_a at a = alpha delta, over delta
    a = BITCOIN_10.alpha * BITCOIN_10.delta
    assert delay_upper(BITCOIN_10, 3600.0).theta == pytest.approx(
        _smallest_root_norm(a) / BITCOIN_10.delta, rel=1e-12
    )
    # as delta -> 0, g_a(u) -> (u - a)^2 and the root tends to its double root a
    assert _smallest_root_norm(1e-6) == pytest.approx(1e-6, rel=1e-5)
    assert _smallest_root_norm(1e-300) == 1e-300  # a (1 - a) rounds to a


def test_g_denominator_sign_structure():
    a = BITCOIN_10.alpha * BITCOIN_10.delta
    u0 = _smallest_root_norm(a)
    assert _g_norm(u0 * 0.5, a) > 0
    assert _g_norm(u0, a) == pytest.approx(0.0, abs=1e-18 * BITCOIN_10.delta**2)
    assert _g_norm((u0 + a) / 2, a) < 0


def test_eta_positive_inside_domain():
    # eta(v) = zeta(v delta) in normalized units: positive on (0, u0), negative past u0
    a = BITCOIN_10.alpha * BITCOIN_10.delta
    u0 = _smallest_root_norm(a)
    assert (_zeta_norm(np.array([0.1, 0.5, 0.9]) * u0, a) > 0).all()
    assert _zeta_norm(u0 * 1.01, a) < 0
    assert _zeta_norm(0.0, a) == 0.0


def test_double_lagger_mgf_basics():
    mgf = double_lagger_mgf(0.025)
    assert mgf.mean == pytest.approx(math.exp(0.05) / 0.025, rel=1e-12)
    assert mgf.roc_sup == pytest.approx(0.024359595083132283, rel=1e-10)
    # phi(0) = 1 in the limit; approach from below
    assert mgf.eval(1e-9) == pytest.approx(1.0, abs=1e-4)
    # strictly increasing toward the convergence limit
    assert mgf.eval(mgf.roc_sup * 0.9) > mgf.eval(mgf.roc_sup * 0.5) > mgf.eval(mgf.roc_sup * 0.1)
    with pytest.raises(ValueError):
        mgf.eval(mgf.roc_sup)


def test_renewal_race_bound_monotone_in_t_and_n():
    mgf = double_lagger_mgf(0.025)
    u = mgf.roc_sup * 0.4
    beta = 0.0025
    b1 = renewal_race_bound(mgf, beta, RaceSpec(mu=1, nu=1, n=1, t=50.0), u).raw_value
    b2 = renewal_race_bound(mgf, beta, RaceSpec(mu=1, nu=1, n=1, t=100.0), u).raw_value
    b3 = renewal_race_bound(mgf, beta, RaceSpec(mu=1, nu=1, n=3, t=50.0), u).raw_value
    assert b2 < b1 < b3


def test_renewal_race_bound_zero_beta_limit():
    mgf = double_lagger_mgf(0.025)
    u = mgf.roc_sup * 0.4
    res = renewal_race_bound(mgf, 0.0, RaceSpec(mu=1, nu=1, n=0, t=80.0), u)
    want = mgf.eval(u) * math.exp(-u * 80.0)
    assert res.raw_value == pytest.approx(want, rel=1e-12)


def test_renewal_race_bound_rejects_bad_u():
    mgf = double_lagger_mgf(0.025)
    with pytest.raises(ValueError):
        renewal_race_bound(mgf, 0.001, RaceSpec(t=10.0), mgf.roc_sup * 1.1)
    with pytest.raises(ValueError):
        renewal_race_bound(mgf, 0.001, RaceSpec(t=10.0), 0.0)


# --- achievable bound with delay -----------------------------------------


def test_delay_upper_oracle_values():
    # frozen from an independent 40-digit golden-section minimization
    assert delay_upper(BITCOIN_10, 14400.0).raw_value == pytest.approx(
        1.08846257826522e-3, rel=1e-10
    )
    assert delay_upper(BITCOIN_10, 7200.0).raw_value == pytest.approx(
        8.89914288229971e-2, rel=1e-10
    )


def test_delay_upper_feasibility_gate():
    bad = ProtocolParams(alpha=0.01, beta=0.005, delta=100.0)  # beta > alpha e^{-2}
    with pytest.raises(InfeasibleParametersError):
        delay_upper(bad, 3600.0)
    with pytest.raises(ValueError):
        delay_upper(ProtocolParams(alpha=0.01, beta=0.001, delta=0.0), 3600.0)


def _edge_model(frac, per_hour, delta=10.0):
    """beta = frac alpha e^{-2 alpha delta} with alpha + beta = per_hour, at delay delta (s)."""
    total = per_hour / 3600.0
    alpha = total
    for _ in range(60):  # a contraction: its slope is below total * delta
        alpha = total / (1.0 + frac * math.exp(-2.0 * alpha * delta))
    return ProtocolParams(alpha=alpha, beta=frac * alpha * math.exp(-2.0 * alpha * delta), delta=delta)


@pytest.mark.parametrize("per_hour,frac", [(6.0, 0.999), (60.0, 0.999), (60.0, 0.9999)])
def test_latency_is_finite_next_to_the_feasibility_edge(per_hour, frac):
    # every admissible u lies below the coarse grid's first point u0 / 512 here; an
    # all-nan row retries on geometric points toward 0 instead of raising BracketError
    params = _edge_model(frac, per_hour)
    t = invert_latency(delay_upper, params, 1e-3)
    assert 1e9 < t < bounds._LATENCY_HORIZON
    res = delay_upper(params, np.array([t - 1.0, float(t)]))
    assert res.probability[1] <= 1e-3 < res.probability[0]


def test_delay_upper_is_finite_at_0_9999_of_the_edge_at_6_per_hour():
    # the bound is defined; its 1e-3 crossing (3.9e12 s) lies past the latency horizon
    params = _edge_model(0.9999, 6.0)
    res = delay_upper(params, np.array([0.0, 1e12, 4e12, 1e13]))
    assert np.isfinite(res.raw_value).all() and (np.diff(res.probability) <= 0.0).all()
    assert res.probability[-1] < 1e-3 < res.probability[1]
    with pytest.raises(BracketError, match="horizon"):
        invert_latency(delay_upper, params, 1e-3)


def test_delay_upper_objective_pointwise_consistency():
    # the reported optimizer must actually achieve the reported value: the
    # theorem's objective at v is the race bound at u = v delta in delay units
    t = 14400.0
    d = BITCOIN_10.delta
    res = delay_upper(BITCOIN_10, t)
    mgf = double_lagger_mgf(BITCOIN_10.alpha * d)
    spec = RaceSpec(mu=1.0, nu=1.0, n=1, t=t / d)

    def objective(v):
        return renewal_race_bound(mgf, BITCOIN_10.beta * d, spec, v * d).raw_value

    assert objective(res.optimizer_v) == pytest.approx(res.raw_value, rel=1e-9)
    # and nearby points must not beat it
    for bump in (0.99, 1.01):
        assert objective(res.optimizer_v * bump) >= res.raw_value * (1 - 1e-9)


def test_delay_upper_universal_dominates():
    for t in (3600.0, 14400.0, 36000.0):
        assert (
            delay_upper_universal(BITCOIN_10, t).raw_value
            >= delay_upper(BITCOIN_10, t).raw_value * (1 - 1e-12)
        )
    # as beta -> 0+ the universal form grows like 1/beta, and at beta = 0 the
    # minimizer's resolution sets it: loose, but still above delay_upper
    ts = np.array([3600.0, 36000.0, 72000.0])
    for beta in (0.0, 1e-30, 1e-20, 1e-9):
        params = ProtocolParams(alpha=1.0 / 600.0, beta=beta, delta=10.0)
        universal = delay_upper_universal(params, ts).raw_value
        assert (universal >= delay_upper(params, ts).raw_value * (1 - 1e-12)).all()


def test_delay_upper_decreasing_in_t():
    vals = [delay_upper(BITCOIN_10, t).raw_value for t in (3600, 7200, 14400, 28800)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_delay_upper_without_adversary():
    # beta = 0 admits every u in (0, u0), with c = 1 + zeta(u) and psi(u) = u;
    # the bound lies at or below its value for a vanishing adversary
    free = ProtocolParams(alpha=1.0 / 600.0, beta=0.0, delta=10.0)
    weak = ProtocolParams(alpha=1.0 / 600.0, beta=1e-9, delta=10.0)
    for t in (3600.0, 14400.0, 36000.0):
        raw = delay_upper(free, t).raw_value
        assert math.isfinite(raw)
        assert raw <= delay_upper(weak, t).raw_value
    assert math.isfinite(delay_upper_universal(free, 3600.0).raw_value)
    for eps in (1e-3, 1e-9):
        _same_latency(delay_upper, free, eps)


@pytest.mark.parametrize("params", [BITCOIN_10, BITCOIN_25], ids=["10pct", "25pct"])
def test_delay_upper_monotone_where_vacuous(params):
    # where the bound is vacuous its minimum sits at the u -> 0 edge of the
    # Chernoff rate; the race form keeps its digits there, so it cannot wobble
    vals = delay_upper(params, np.arange(900.0, 3601.0)).probability.tolist()
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    first = next((i for i, v in enumerate(vals) if v < 1.0), len(vals))
    assert all(v == 1.0 for v in vals[:first])


def _feasible_model(share, rate_per_hour, alpha_delta):
    """The model at this share, rate and alpha*delta; None past beta < alpha e^{-2 alpha delta}."""
    params = ProtocolParams.from_adversary_share(
        rate_per_hour / 3600.0, share, alpha_delta / ((1.0 - share) * rate_per_hour / 3600.0)
    )
    return None if params.beta >= params.alpha * math.exp(-2.0 * alpha_delta) else params


MODEL_REGION = dict(
    share=st.floats(0.0, 0.45),
    rate_per_hour=st.floats(6.0, 600.0),
    alpha_delta=st.floats(1e-4, 0.5),
)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(**MODEL_REGION)
def test_delay_upper_monotone_across_vacuous_edge_property(share, rate_per_hour, alpha_delta):
    # from t = 0, where the bound is vacuous, to twice its 1/2 crossing:
    # non-increasing, and never below the unachievable level
    params = _feasible_model(share, rate_per_hour, alpha_delta)
    if params is None:
        return
    mgf, b, _ = bounds._delay_norm(params)
    log_half = np.array([math.log(0.5)])
    t_half = float(bounds._delay_crossings(mgf, b, bounds._delay_coarse(mgf, b), log_half, params.delta)[0])
    ts = np.linspace(0.0, 2.0 * t_half * params.delta, 97)
    upper = delay_upper(params, ts).probability
    assert upper[0] > 1.0 - 1e-12 and upper[-1] <= 0.5
    assert (np.diff(upper) <= 0.0).all()
    assert (delay_lower(params, ts).probability <= upper).all()


def _five_pass_minimize(mgf, b, coarse, objective, prior=None):
    """Reference: the minimizer before its vertex step, five passes each 128x finer to 1e-12 u0.

    It evaluates every pass itself, so it ignores prior, the passes its caller has evaluated."""
    hi = mgf.roc_sup
    vals = objective(*coarse)
    rows = np.arange(vals.shape[0])
    u = bounds._coarse_grid(hi)[bounds._nan_argmin(vals)]
    offsets = np.arange(-bounds._REFINE, bounds._REFINE + 1) / bounds._REFINE
    step = hi / bounds._GRID_CELLS
    while step > 1e-12 * hi:
        xs = u[:, None] + step * offsets
        vals = objective(*bounds._race_log_terms(mgf, b, bounds._DELAY_SPEC, xs))
        i = bounds._nan_argmin(vals)
        u, val = xs[rows, i], vals[rows, i]
        step /= bounds._REFINE
    return u, val


def _grid_delay_models():
    """Feasible delay_upper models over shares x block rates x delay bounds, 97 times to 4e5 s."""
    ts = np.linspace(0.0, 4e5, 97)
    for share in (0.01, 0.10, 0.25, 0.33, 0.45):
        for per_hour in (6.0, 60.0, 600.0):
            for delta in (0.3, 1.0, 10.0, 60.0):
                params = ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta)
                if params.beta < params.alpha * math.exp(-2.0 * params.alpha * delta):
                    yield params, ts


def _edge_delay_models():
    """Random alpha*delta in [1e-4, 0.5], beta up to 0.999 of the edge, 97 times to twice the 1e-9 crossing."""
    rng = np.random.default_rng(1973)
    for _ in range(40):
        alpha_delta = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
        alpha = math.exp(rng.uniform(math.log(6.0), math.log(600.0))) / 3600.0
        beta = rng.uniform(0.0, 0.999) * alpha * math.exp(-2.0 * alpha_delta)
        params = ProtocolParams(alpha=alpha, beta=beta, delta=alpha_delta / alpha)
        mgf, b, _ = bounds._delay_norm(params)
        log_eps = np.array([math.log(1e-9)])
        coarse = bounds._delay_coarse(mgf, b)
        t_star = float(bounds._delay_crossings(mgf, b, coarse, log_eps, params.delta)[0])
        yield params, np.linspace(0.0, 2.0 * t_star * params.delta, 97)


@pytest.mark.parametrize("models", [_grid_delay_models, _edge_delay_models], ids=["grid", "edge"])
def test_vertex_step_matches_five_pass_refinement(monkeypatch, models):
    # one pass plus a parabolic vertex reaches the minimum that five passes to
    # 1e-12 u0 reach, wherever the bound is not vacuous
    checked = 0
    for params, ts in models():
        got = delay_upper(params, ts).raw_value
        with monkeypatch.context() as patched:
            patched.setattr(bounds, "_grid_minimize", _five_pass_minimize)
            want = delay_upper(params, ts).raw_value
        live = want < 0.999
        np.testing.assert_allclose(got[live], want[live], rtol=1e-11, atol=0.0)
        checked += live.sum()
    assert checked >= 1000


def test_race_kernel_calls_per_delay_upper_and_inversion(monkeypatch):
    # delay_upper: coarse grid, one pass, one vertex; invert_latency: the shared
    # coarse grid, the crossing's vertex with the pass around its coarse cell,
    # then the confirmation's vertex, its pass taken from the crossing's
    calls = []
    kernel = bounds._race_log_terms
    monkeypatch.setattr(bounds, "_race_log_terms", lambda *a: calls.append(a) or kernel(*a))
    delay_upper(BITCOIN_10, np.linspace(3600.0, 36000.0, 30))
    assert len(calls) == 3
    calls.clear()
    invert_latency(delay_upper, BITCOIN_10, [1e-3, 1e-6, 1e-9])
    assert len(calls) == 3


def test_race_kernel_points_per_inversion(monkeypatch):
    # each level's crossing evaluates its vertex and one 257-point pass, which its
    # (s - 1, s) confirmation pair takes; 30 delay_upper times from 3.6 to 36 ks
    # evaluate one pass each, also where neighbours share a coarse cell
    calls = []
    kernel = bounds._race_log_terms
    monkeypatch.setattr(bounds, "_race_log_terms", lambda *a: calls.append(np.size(a[3])) or kernel(*a))
    specs, model = load_config(default_config_path())
    build_comparison_table(specs, model, 0.25, [1e-3, 1e-6, 1e-9])
    assert calls == [6 * 511, 6 * 3 * (1 + 257), 6 * 6] and sum(calls) == 7746
    calls.clear()
    invert_latency(delay_upper, BITCOIN_10, 1e-3)
    assert calls == [511, 1 + 257, 2] and sum(calls) == 771
    calls.clear()
    delay_upper(BITCOIN_10, np.linspace(3600.0, 36000.0, 30))
    assert calls == [511, 30 * 257, 30]


def test_confirmation_off_its_crossing_cell_takes_its_own_pass(monkeypatch):
    # moving the second level's crossing pass one coarse cell up leaves that
    # level's confirmation pair no pass to take: each of its two seconds evaluates
    # one of its own, and its values are still the public delay_upper's, bit for bit
    levels = [1e-3, 1e-6, 1e-9]
    want = invert_latency(delay_upper, BITCOIN_10, levels)
    crossings = bounds._delay_crossings

    def moved(mgf, b, coarse, log_eps, d, passes):
        t = crossings(mgf, b, coarse, log_eps, d, passes)
        passes[0][1] += mgf.roc_sup / bounds._GRID_CELLS
        return t

    monkeypatch.setattr(bounds, "_delay_crossings", moved)
    seen, rows = [], bounds._delay_upper_rows

    def recording(mgf, b, d, coarse, ts, prior=None):
        out = rows(mgf, b, d, coarse, ts, prior)
        seen.append((ts.copy(), *out))
        return out

    monkeypatch.setattr(bounds, "_delay_upper_rows", recording)
    calls = _count_race_kernel_calls(monkeypatch)
    assert invert_latency(delay_upper, BITCOIN_10, levels) == want
    assert [np.shape(c[3]) for c in calls] == [(1, 511), (3, 258), (1, 2, 257), (1, 6, 1)]
    assert len(seen) == 1
    ts, raw, v = (np.ravel(x) for x in seen[0])
    public = delay_upper(BITCOIN_10, ts)
    assert _bits(raw) == _bits(public.raw_value)
    assert _bits(v) == _bits(public.optimizer_v)


def _reference_zeta(u, a):
    """phi(u) - 1 of the double-lagger MGF as one expression."""
    au, d = a * u, u - a
    return (a * u - u * u) / (u * u - au - au * np.exp(d) + a * a * np.exp(2.0 * d))


def _reference_race_log_terms(mgf, beta, spec, u):
    """The race kernel with admissibility masked step by step and inadmissible u substituted."""
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        ok = (u > 0) & (u < mgf.roc_sup)
        z = mgf.excess(np.where(ok, u, 0.5 * mgf.roc_sup))
        w = beta * z
        ok &= (z > 0) & (w < mgf.roc_sup)
        zw = mgf.excess(np.where(ok, w, 0.0))
        lap = z * (1.0 - beta * mgf.mean) * (1.0 + zw) / (z - zw)
        ok &= (zw < z) & (lap > 0)
        log_c = w * (spec.mu + spec.nu) + (spec.n + 1) * np.log1p(z) + 2.0 * np.log(lap)
        return np.where(ok, log_c, np.nan), np.where(ok, u - w, np.nan)


def _kernel_models():
    """Delay models as one float column each and as one column batch: Bitcoin, beta = 0, near the edge."""
    edge = ProtocolParams(alpha=1.0 / 600.0, beta=0.999 * math.exp(-2.0 / 60.0) / 600.0, delta=10.0)
    models = [BITCOIN_10, BITCOIN_25, ProtocolParams.from_adversary_share(1.0 / 600.0, 0.0, 10.0), edge]
    models += _protocol_params(0.25)
    norms = [bounds._delay_norm(p) for p in models]
    for p, (mgf, b, d) in zip(models, norms):
        a = p.alpha * d
        yield mgf, Mgf(lambda u, a=a: _reference_zeta(u, a), mgf.roc_sup, mgf.mean), b

    def col(xs):
        return np.array(xs, dtype=float)[:, None, None]

    a = col([p.alpha * d for p, (_, _, d) in zip(models, norms)])
    roc_sup, mean = col([m.roc_sup for m, _, _ in norms]), col([m.mean for m, _, _ in norms])
    batch = Mgf(lambda u: bounds._zeta_norm(u, a), roc_sup, mean)
    yield batch, Mgf(lambda u: _reference_zeta(u, a), roc_sup, mean), col([b for _, b, _ in norms])


def test_race_kernel_equals_its_masked_reference():
    # bit for bit, nan for nan: random u inside and outside (0, u0), the ends
    # themselves, 0-d u, and the same points against a column batch of models
    rng = np.random.default_rng(2026)
    admissible = inadmissible = 0
    for mgf, reference, b in _kernel_models():
        u0 = mgf.roc_sup
        fractions = np.concatenate([
            rng.uniform(0.0, 1.0, 400), rng.uniform(-1.0, 3.0, 200), [0.0, 1.0, -0.0, 1e-300, 1.5, -2.0],
        ])
        for u in (u0 * fractions, u0 * fractions.reshape(2, -1), u0 * 0.37, u0 * 1.2):
            want = _reference_race_log_terms(reference, b, bounds._DELAY_SPEC, u)
            got = bounds._race_log_terms(mgf, b, bounds._DELAY_SPEC, u)
            for g, w in zip(got, want):
                assert isinstance(g, np.ndarray) and g.shape == w.shape
                assert _bits(g) == _bits(w)
            admissible += int((~np.isnan(w)).sum())
            inadmissible += int(np.isnan(w).sum())
    assert admissible > 1000 and inadmissible > 1000


def test_delay_upper_rows_share_passes_bit_for_bit():
    # (t - 1, t) pairs as one batch against one time at a time
    for params in (BITCOIN_10, BITCOIN_25, *_protocol_params(0.25)):
        mgf, b, d = bounds._delay_norm(params)
        coarse = bounds._delay_coarse(mgf, b)
        ts = np.array([x for t in (3600.0, 14536.0, 25403.0, 90000.0) for x in (t - 1.0, t)])
        raw, v = bounds._delay_upper_rows(mgf, b, d, coarse, ts)
        for j, t in enumerate(ts):
            raw_j, v_j = bounds._delay_upper_rows(mgf, b, d, coarse, ts[j : j + 1])
            assert _bits(raw[j]) == _bits(raw_j[0]) and _bits(v[j]) == _bits(v_j[0])


def test_delay_upper_reads_one_where_vacuous():
    # the minimum sits at the u -> 0 edge, where the pass's smallest u keeps the
    # value at or above 1 rather than 1 - ulp
    res = delay_upper(BITCOIN_25, np.array([0.0, 100.0, 1000.0, 2000.0]))
    assert res.probability.tolist() == [1.0] * 4
    assert (res.raw_value >= 1.0).all()


# --- t as an array -------------------------------------------------------

FIELDS = ("raw_value", "probability", "optimizer_v", "theta", "truncation_tail")


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _array_models():
    """Random models (shares 0-45%, 6-600/h, alpha*delta 1e-4..0.5) and Bitcoin at 10%."""
    rng = np.random.default_rng(20260)
    models = [(1.0 / 600.0, 0.10, 10.0)]
    for _ in range(12):
        share = rng.uniform(0.0, 0.45)
        rate = math.exp(rng.uniform(math.log(6.0), math.log(600.0))) / 3600.0
        alpha_delta = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
        models.append((rate, share, alpha_delta / ((1.0 - share) * rate)))
    models.append((1.0 / 600.0, 0.0, 10.0))
    return models


@pytest.mark.parametrize(
    "name",
    ["zero_delay_upper", "zero_delay_lower", "delay_upper", "delay_upper_universal", "delay_lower"],
)
def test_array_t_is_bit_identical_to_scalar_calls(name, monkeypatch):
    fn = getattr(bounds, name)
    rng = np.random.default_rng(7)
    terms, gain = [], bounds.postmine_gain_pmf
    monkeypatch.setattr(bounds, "postmine_gain_pmf", lambda params, n: terms.append(n) or gain(params, n))
    checked = 0
    for i, (rate, share, delta) in enumerate(_array_models()):
        params = ProtocolParams.from_adversary_share(
            rate, share, 0.0 if name.startswith("zero") else delta
        )
        ts = np.concatenate([[0.0], np.sort(rng.uniform(1.0, 60.0 / params.alpha, 9))])
        if i == 0:  # across delay_upper's vacuous edge (~1754 s), past two blocks of t, and
            # to a last block whose rows take more of q than the first block's
            ts = np.concatenate([ts, np.arange(1300.0, 1900.0, 10.0), [2e5]])
        terms.clear()
        try:
            whole = fn(params, ts)
        except InfeasibleParametersError:
            with pytest.raises(InfeasibleParametersError):
                fn(params, float(ts[-1]))
            continue
        if name == "delay_lower" and i == 0:
            assert len(terms) == 2 and terms[0] < terms[1]  # q computed anew, longer, for the last block
        each = [fn(params, float(t)) for t in ts]
        for field in FIELDS:
            got = getattr(whole, field)
            if np.ndim(got) == 0:  # a t-independent field
                assert all(_bits(getattr(r, field)) == _bits(got) for r in each), field
            else:
                assert _bits(got) == _bits([getattr(r, field) for r in each]), field
        assert all(type(r.probability) is float for r in each)
        checked += 1
    assert checked >= 8


def test_array_t_rejects_higher_rank():
    with pytest.raises(ValueError):
        delay_upper(BITCOIN_10, np.ones((2, 2)))


@pytest.mark.parametrize(
    "name",
    ["zero_delay_upper", "zero_delay_lower", "delay_upper", "delay_upper_universal", "delay_lower"],
)
def test_array_t_takes_an_empty_array(name):
    params = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.1, 0.0 if name.startswith("zero") else 10.0)
    assert getattr(bounds, name)(params, np.array([])).raw_value.shape == (0,)


def test_bound_memory_is_bounded_per_block():
    # each kernel holds one block of t at a time: eight blocks peak no higher
    # than one plus the per-t outputs
    p0 = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.10, 0.0)
    cases = ((delay_upper, BITCOIN_10), (delay_lower, BITCOIN_10), (zero_delay_lower, p0))
    for fn, params in cases:
        fn(params, 3600.0)

        def peak(n):
            ts = np.linspace(0.0, 40000.0, n)
            tracemalloc.start()
            try:
                fn(params, ts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(bounds._T_BLOCK)
        assert one < 4 * 2**20
        assert peak(8 * bounds._T_BLOCK) < 1.5 * one


# --- private-attack lower bound ------------------------------------------


def test_postmine_pmf_oracle():
    # frozen from a 40-digit Taylor expansion of the deficit transform
    q = postmine_gain_pmf(BITCOIN_10)
    want = [0.987446843182092, 0.0111560168020777, 0.00124164133937071, 0.00013819200850766,
            1.53804730645976e-5]
    for n, w in enumerate(want):
        assert q[n] == pytest.approx(w, rel=1e-9)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_postmine_pmf_infeasible():
    with pytest.raises(InfeasibleParametersError):
        # alpha - beta - alpha*beta*delta <= 0
        postmine_gain_pmf(ProtocolParams(alpha=0.01, beta=0.009, delta=100.0))


def test_delay_lower_oracle_values():
    # frozen from a 60-digit direct double-sum evaluation
    assert delay_lower(BITCOIN_10, 7200.0).probability == pytest.approx(
        7.754160564545932e-4, rel=1e-8
    )
    assert delay_lower(BITCOIN_10, 24000.0).probability == pytest.approx(
        6.899619380336464e-9, rel=1e-4
    )


def test_delay_lower_deep_tail_keeps_precision():
    # q carries no absolute roundoff floor (~1e-14 summed), so a value near 1e-8
    # keeps nearly full relative precision against the 60-digit oracle
    assert delay_lower(BITCOIN_10, 24000.0).probability == pytest.approx(
        6.899619380336464e-9, rel=1e-12
    )


def test_delay_lower_truncation_tail_is_nonnegative():
    # the tails left out come from Chernoff bounds on the count and the ccdf,
    # not from 1 minus a sum of the kept terms
    p33 = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.33, 10.0)
    assert delay_lower(p33, 36000.0).truncation_tail >= 0.0
    assert delay_lower(BITCOIN_10, 360000.0).truncation_tail < 1e-100
    ts = np.linspace(0.0, 400000.0, 41)
    for params in (BITCOIN_10, BITCOIN_25, p33):
        assert (delay_lower(params, ts).truncation_tail >= 0.0).all()


@pytest.mark.parametrize(
    "share, per_hour, delta, ts",
    [
        (0.10, 6.0, 10.0, [0.0]),  # lam = 0: the geometric pmf itself
        (0.33, 6.0, 10.0, [0.0, 7200.0, 36000.0]),  # r = 0.49
        (0.45, 6.0, 0.1, [0.0, 7200.0, 36000.0]),  # r = 0.82, the largest share MODEL_REGION draws
        (0.25, 600.0, 10.0, [600.0, 36000.0]),  # lam = 1500, far past the 513 counts scanned
    ],
)
def test_geometric_poisson_scan_matches_direct_convolution(share, per_hour, delta, ts):
    params = ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta)
    r = params.beta / params.alpha
    ks = np.arange(513)
    pois = np.exp(log_poisson_pmf_vec(ks, params.beta * np.array(ts)[:, None]))
    pk = _geometric_poisson(pois, r)
    for j in range(len(ts)):
        want = np.convolve((1.0 - r) * r**ks, pois[j])[: ks.size]
        kept = want >= 1e-290
        assert kept.any()
        np.testing.assert_allclose(pk[j, kept], want[kept], rtol=1e-14, atol=0.0)
        assert (pk[j, ~kept] < 1e-280).all()


@pytest.mark.parametrize(
    "share, per_hour, delta",
    [(0.10, 6.0, 10.0), (0.45, 600.0, 0.5), (0.25, 60.0, 1.0), (0.33, 6.0, 60.0), (0.10, 600.0, 0.5),
     (0.40, 60.0, 5.0)],
)
def test_postmine_gain_pmf_is_a_prefix_of_a_longer_call(share, per_hour, delta):
    # a short q is the first terms of a long one, bit for bit, also short of the
    # divisor's support (77-110 terms on these models): delay_lower computes q only as
    # far as its rows reach, and its array calls equal its one-t calls
    params = ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta)
    long = postmine_gain_pmf(params, 3999)
    assert long.size == 4000
    for n in (1, 5, 20, 76, 110, 361):
        assert _bits(postmine_gain_pmf(params, n)) == _bits(long[: n + 1]), n


def _erlang_regimes():
    """Feasible delay_lower models over shares x block rates x delay bounds."""
    for share in (0.01, 0.10, 0.25, 0.33, 0.45):
        for per_hour in (6.0, 60.0, 600.0):
            for delta in (0.3, 1.0, 10.0, 60.0):
                params = ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta)
                try:
                    postmine_gain_pmf(params)
                except InfeasibleParametersError:
                    continue
                yield params


# The references' own length for q: points approaching the gain pole y0 (as fractions
# of it) where q's Chernoff tail is minimized, the tail it must fall below (2^-1134,
# under 2^-60 of any double), and a cap on the terms
_REFERENCE_POLE_GRID = 1.0 - 0.5 ** np.arange(1, 21)
_REFERENCE_LOG_TAIL = -1134.0 * math.log(2.0)
_REFERENCE_GAIN_TERMS_MAX = 2**14


def _gain_size(params):
    """A generous count n of post-mining gain terms q(0..n-1) for a reference sum.

    The first n where the Chernoff bound Q(1 + y) (1 + y)^-n on q's tail falls
    below 2^-1134 at some y of _REFERENCE_POLE_GRID, at most 2^14: far past any
    count delay_lower takes outside near-even shares.
    """
    a, b = params.alpha * params.delta, params.beta * params.delta
    if b == 0:  # all of q's mass is at 0
        return 2
    y = bounds._gain_pole(a, b) * _REFERENCE_POLE_GRID
    log_q = bounds._gain_log_pgf(a, b, y)
    ok = np.isfinite(log_q)
    need = np.ceil((log_q[ok] - _REFERENCE_LOG_TAIL) / np.log1p(y[ok]))
    return int(min(max(need.min(initial=np.inf), 2.0), _REFERENCE_GAIN_TERMS_MAX))


def _wide_tops(params, cuts, q0):
    """Counts K'_j = c_j + d_j + 1 per Erlang cut c_j, a range past delay_lower's count cut M_j.

    d_j divides -log(2^-60 e^-1 q(0) (1 - r)) - log(1 - lam / (c_j + 2)) by log((c_j + 2) / lam),
    and lam / (c_j + 2) < r, so r in place of that ratio gives at least d_j; past c_j + d_j
    the Poisson mass is below 2^-60 e^-1 q(0) (1 - r) P(A = c_j + 1).  On the envelope
    sweep 4 K'_j is at least 3 M_j.
    """
    r = params.beta / params.alpha
    if r == 0:
        return cuts + 1
    need = 60.0 * math.log(2.0) + 1.0 - math.log(q0 * (1.0 - r)) - math.log1p(-r)
    return cuts + math.ceil(need / -math.log(r)) + 1


def _wide_delay_lower(params, ts):
    """Reference: delay_lower's double sum over at least 4x each of its ranges, one row per t.

    q(0..4n-1) for delay_lower's n; pk over k = 0..4 K'_j (_wide_tops), with no
    closed-form tail; every shape from 1.  The ccdf is 1.0 past the Erlang cut
    c_j (exact: test_delay_lower_erlang_cut_skips_only_exact_ones), so the
    shapes past it add sum_n q(n) T_j[c_j + 1 - n], T_j pk's reverse cumulative sum.
    """
    q = postmine_gain_pmf(params, 4 * _gain_size(params) - 1)
    cuts = bounds._erlang_cuts(params.alpha * ts)
    tops = 4 * _wide_tops(params, cuts, q[0])
    out = []
    for t, c, top in zip(ts.tolist(), cuts.tolist(), tops.tolist()):
        pois = np.exp(log_poisson_pmf_vec(np.arange(top + 1), params.beta * t))
        pk = _geometric_poisson(pois, params.beta / params.alpha)
        tails = np.cumsum(pk[::-1])[::-1]
        shapes = np.arange(1, c + 1)
        ccdf = erlang_ccdf_vec(t - shapes * params.delta, shapes, params.alpha)
        head = np.convolve(q[: c + 1], pk[: c + 1])[1 : c + 1]
        out.append(np.dot(head, ccdf) + np.dot(q, tails[np.maximum(c + 1 - np.arange(q.size), 0)]))
    return np.array(out)


def _unsplit_delay_lower(params, ts, scale):
    """Reference: delay_lower's raw value as one dot of q * pk with every shape's Erlang ccdf, per row.

    q and pk over ranges at least delay_lower's: q(0..n-1), but only while the mass
    it has left is above 1e-20 of the row's scale (an estimate of its value);
    and pk_j over k = 0..K'_j (_wide_tops) with its geometric tail past K'_j,
    pk_j(K'_j) r / (1 - r), as one more count.
    """
    r = params.beta / params.alpha
    q = postmine_gain_pmf(params, _gain_size(params) - 1)
    left = np.cumsum(q[::-1])[::-1]  # the q mass from each n on
    cuts = bounds._erlang_cuts(params.alpha * ts)
    out = []
    for t, top, v in zip(ts.tolist(), _wide_tops(params, cuts, q[0]).tolist(), scale.tolist()):
        qt = q[: max(1, np.count_nonzero(left > 1e-20 * v))]
        pois = np.exp(log_poisson_pmf_vec(np.arange(top + 1), params.beta * t))
        pk = _geometric_poisson(pois, r)
        pk = np.concatenate([pk, [pk[-1] * r / (1.0 - r)]])
        m = np.arange(1, qt.size + pk.size - 1)
        ccdf = erlang_ccdf_vec(t - m * params.delta, m, params.alpha)
        out.append(np.dot(np.convolve(qt, pk)[1:], ccdf))
    return np.array(out)


def test_delay_lower_erlang_cut_skips_only_exact_ones():
    # every ccdf past a row's Chernoff cut is 1.0 in scipy's own arithmetic, and
    # the shapes past it, summed through pk's reverse cumulative sum, give the
    # one dot over every shape to roundoff: the split only reorders the sum.  Each
    # regime's times run to 600 honest blocks, so cuts reach ~700 shapes in each
    # (the envelope sweep takes times to 1e6 s)
    checked = skipped = 0
    for params in _erlang_regimes():
        ts = np.linspace(0.0, 600.0 / params.alpha, 80)
        cuts = bounds._erlang_cuts(params.alpha * ts)
        m = np.arange(1, cuts.max() + 400)
        x = ts[:, None] - m * params.delta
        past = (m > cuts[:, None]) & (x > 0)
        shapes = np.broadcast_to(m, x.shape)
        assert (special.gammaincc(shapes[past], params.alpha * x[past]) == 1.0).all()
        skipped += past.sum()
        got = delay_lower(params, ts).raw_value
        want = _unsplit_delay_lower(params, ts, got)
        live = want >= 1e-300
        np.testing.assert_allclose(got[live], want[live], rtol=2e-15, atol=0.0)
        checked += live.sum()
    assert checked >= 2000 and skipped > 0


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(**MODEL_REGION)
def test_postmine_pmf_sums_to_one_and_is_nonnegative_property(share, rate_per_hour, alpha_delta):
    # criterion 10's gates, across the whole feasible region
    params = _feasible_model(share, rate_per_hour, alpha_delta)
    if params is None:
        return
    q = postmine_gain_pmf(params)
    assert abs(q.sum() - 1.0) <= 1e-9
    assert q.min() >= -1e-12


def _envelope_sweep(max_share, delay=True):
    """Derandomised models over shares 0.01..max_share, 6-600/h and alpha*delta 1e-3..1 (feasible
    ones only), plus 600/h at 45% with delta = 0.5 s; per model, t = 0 and times log-uniform in 1..1e6 s."""
    rng = np.random.default_rng(2020)
    models = [(600.0, 0.45, 0.5)]
    while len(models) < 24:
        share = rng.uniform(0.01, max_share)
        per_hour = math.exp(rng.uniform(math.log(6.0), math.log(600.0)))
        alpha_delta = math.exp(rng.uniform(math.log(1e-3), 0.0))
        if not delay or _feasible_model(share, per_hour, alpha_delta) is not None:
            models.append((per_hour, share, alpha_delta / ((1.0 - share) * per_hour / 3600.0)))
    for per_hour, share, delta in models:
        ts = np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(0.0, 6.0, 5))])
        yield ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta if delay else 0.0), ts


def test_delay_lower_truncation_tail_envelopes_the_discarded_terms_property():
    # a reference over at least 4x each range adds discarded terms back: the value
    # may rise by no more than the reported tail, give or take roundoff, and the
    # tail is within 2^-60 of every value a double holds to more than 1e-290
    for params, ts in _envelope_sweep(0.45):
        kept = delay_lower(params, ts)
        rise = _wide_delay_lower(params, ts) - kept.raw_value
        assert (rise <= kept.truncation_tail + 64.0 * np.spacing(kept.raw_value)).all()
        big = kept.raw_value >= 1e-290
        assert (kept.truncation_tail[big] <= 2.0**-60 * kept.raw_value[big]).all()


def test_delay_lower_chernoff_tail_envelopes_a_row_it_spares(monkeypatch):
    # 50.1% honest at 600/h: at 3.16e6 s the row's ranges pass _TERMS_MAX, so it reads 0
    # with the whole-value Chernoff bound as its tail; summed to 2^20 terms the value is
    # 0.39, which that bound (from log Q near z = 1) must cover
    params = ProtocolParams.from_adversary_share(600.0 / 3600.0, 1.0 - 0.501, 0.011976047904191616)
    t = 3.16e6
    kept = delay_lower(params, t)
    monkeypatch.setattr(bounds, "_TERMS_MAX", 2**20)
    wide = delay_lower(params, t).raw_value
    assert kept.raw_value == 0.0 and wide > 0.3
    assert kept.raw_value + kept.truncation_tail >= wide


# (share, total rate per hour, delta, times, delay_lower values), frozen to full
# precision: relative cuts and reordered sums move a value by a few ulps at most
DELAY_LOWER_PANEL = [
    (0.10, 6.0, 10.0, [0.0, 900.0, 7200.0, 24000.0, 86400.0],
     [0.12226947272702944, 0.07944343302995001, 0.0007754160564545935, 6.899619380336475e-09,
      4.396140936545749e-27]),
    (0.25, 6.0, 10.0, [3600.0, 36000.0, 200000.0],
     [0.13922082088717902, 4.973835827807316e-05, 5.188182934095263e-21]),
    (0.33, 60.0, 1.0, [60.0, 3600.0], [0.5651493841581856, 0.007718309882868284]),
    (0.45, 600.0, 0.5, [10.0, 3600.0, 36000.0],
     [0.934544609707524, 0.07139712205827982, 1.5810414629280577e-09]),
    (0.01, 600.0, 60.0, [87.5, 300.0], [0.013610427370958491, 0.00022522347847929948]),
    (0.45, 6.0, 0.1, [7200.0, 36000.0], [0.8095689628657728, 0.5423685092341786]),
    (0.10, 600.0, 1.0, [600.0, 6000.0], [3.204426430982531e-18, 1.9990445191701148e-163]),
    (0.30, 6.0, 60.0, [30.0], [0.5513377825196997]),
]


@pytest.mark.parametrize("share, per_hour, delta, ts, want", DELAY_LOWER_PANEL)
def test_delay_lower_frozen_panel(share, per_hour, delta, ts, want):
    params = ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta)
    np.testing.assert_allclose(delay_lower(params, np.array(ts)).raw_value, want, rtol=1e-14, atol=0.0)


def _delay_lower_work(monkeypatch, params, ts):
    """(erlang_ccdf_vec calls, elements they evaluate, series_div's multiply-adds) of one delay_lower call.

    The multiply-adds are the len(a) len(v) of each np.convolve call series_div makes.
    """
    erlang, work, inside = [], [0], [False]
    ccdf, divide, convolve = bounds.erlang_ccdf_vec, bounds.series_div, np.convolve

    def counted_convolve(a, v, mode="full"):
        work[0] += np.size(a) * np.size(v) if inside[0] else 0
        return convolve(a, v, mode)

    def counted_divide(num, den):
        inside[0] = True
        try:
            return divide(num, den)
        finally:
            inside[0] = False

    monkeypatch.setattr(np, "convolve", counted_convolve)
    monkeypatch.setattr(bounds, "series_div", counted_divide)
    monkeypatch.setattr(bounds, "erlang_ccdf_vec", lambda x, n, rate: erlang.append(np.size(x)) or ccdf(x, n, rate))
    delay_lower(params, ts)
    return len(erlang), sum(erlang), work[0]


def test_delay_lower_work_on_a_figure(monkeypatch):
    # the trade-off figure: 30 times at 10%, 6/h, delta = 10 s make one Erlang call
    # over the shapes the relative cuts keep (running every row to its Erlang cut
    # takes 1963 in 30 calls), and q, taken to the rows' largest count cut (47 terms;
    # divided to the divisor's 77-term support), costs ~3.8e4 multiply-adds (361
    # terms to a model-wide 2^-1134 tail took 1.1e5)
    calls, elements, work = _delay_lower_work(monkeypatch, BITCOIN_10, np.linspace(900.0, 22500.0, 30))
    assert calls == 1 and elements <= 1100
    assert work <= 4.0e4


def test_delay_lower_work_at_a_near_even_high_rate_model(monkeypatch):
    # 45%, 600/h, delta = 0.5 s: q to each time's count cut, 668 and 3405 terms, takes
    # ~3.0e5 and ~1.5e6 multiply-adds (4889 terms to a model-wide 2^-1134 tail took
    # 2.1e6), and a row's shapes stop at its count cut (running to the Erlang cut
    # takes 509 and 2571 at 3600 s and 36,000 s)
    params = ProtocolParams.from_adversary_share(600.0 / 3600.0, 0.45, 0.5)
    for t, most, madds in ((3600.0, 400, 3.1e5), (36000.0, 1000, 1.5e6)):
        calls, elements, work = _delay_lower_work(monkeypatch, params, t)
        assert calls == 1 and elements <= most
        assert work <= madds


def test_delay_lower_redoes_a_row_whose_certificate_fails(monkeypatch):
    # a floor far above the value (e^30 U_j, not 2^-16 U_j) sizes every cut too short:
    # each row's certificate fails against its own partial sum, and the row is redone
    # from that sum
    ts = np.array([900.0, 7200.0, 24000.0])
    want = delay_lower(BITCOIN_10, ts)
    groups, runs = bounds._row_groups, []
    monkeypatch.setattr(bounds, "_LOG_FLOOR_SHARE", 30.0)
    monkeypatch.setattr(bounds, "_row_groups", lambda widths: runs.append(len(widths)) or groups(widths))
    got = delay_lower(BITCOIN_10, ts)
    assert runs == [3, 3]  # every row once with the false floor, then once from its own sum
    np.testing.assert_allclose(got.raw_value, want.raw_value, rtol=1e-15, atol=0.0)
    assert (got.truncation_tail <= 2.0**-60 * got.raw_value).all()


def test_delay_lower_redoes_no_row_on_the_envelope_sweep_and_the_panel(monkeypatch):
    # F_j = 2^-16 U_j is below every value here: each call's one block of times sizes
    # its rows once (one _row_groups run), and no row's certificate fails
    groups, runs = bounds._row_groups, []
    monkeypatch.setattr(bounds, "_row_groups", lambda widths: runs.append(len(widths)) or groups(widths))
    panel = [
        (ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta), np.array(ts))
        for share, per_hour, delta, ts, _ in DELAY_LOWER_PANEL
    ]
    rows = 0
    for params, ts in [*_envelope_sweep(0.45), *panel]:
        runs.clear()
        delay_lower(params, ts)
        assert len(runs) == 1
        rows += runs[0]
    assert rows >= 140


def test_zero_delay_lower_truncation_tail_envelopes_the_discarded_terms_property():
    # as for delay_lower, at delta = 0 and shares to 0.499: the reference sums 4x
    # the orders, each row rescaled to the exact drift as zero_delay_lower does
    for params, ts in _envelope_sweep(0.499, delay=False):
        kept = zero_delay_lower(params, ts)
        a, b = params.alpha, params.beta
        top, _ = bounds._zero_delay_orders(b / a)
        ks = np.arange(4 * (top + 1))
        mu1, mu2 = a * ts[:, None], b * ts[:, None]
        with np.errstate(all="ignore"):
            fix = np.exp(((mu1 - mu2) / (np.sqrt(mu1) + np.sqrt(mu2))) ** 2
                         - ((a - b) / (math.sqrt(a) + math.sqrt(b))) ** 2 * ts[:, None])
        fix = np.where(np.isfinite(fix), fix, 1.0)
        terms = skellam_pmf(ks - 1, mu1, mu2) * fix * bounds.geometric_sum_ccdf(ks, b / a)
        rise = terms.sum(axis=1) - kept.raw_value
        assert (rise <= kept.truncation_tail + 64.0 * np.spacing(kept.raw_value)).all()
        big = kept.raw_value >= 1e-290
        assert (kept.truncation_tail[big] <= 2.0**-60 * kept.raw_value[big]).all()


@pytest.mark.parametrize("share, refused", [(2.2250738585e-313, True), (1e-307, False)])
def test_delay_lower_at_a_subnormal_share(share, refused):
    # at share 2.2e-313 (6/h) alpha/beta overflows, so the gain pole's bracket has no far
    # end: delay_lower refuses the model as infeasible, where it used to end in a
    # RuntimeWarning; at 1e-307 that ratio is finite, and the value is a number in [0, 1]
    params = ProtocolParams.from_adversary_share(6.0 / 3600.0, share, 10.0)
    assert (params.alpha / params.beta == math.inf) == refused
    for t in (100.0, 7200.0):
        if refused:
            with pytest.raises(InfeasibleParametersError):
                delay_lower(params, t)
        else:
            res = delay_lower(params, t)
            assert 0.0 < res.raw_value <= 1e-300 and 0.0 <= res.truncation_tail <= 1e-300


def test_delay_lower_below_upper():
    for t in (7200.0, 14400.0, 36000.0):
        assert delay_lower(BITCOIN_10, t).probability < delay_upper(BITCOIN_10, t).probability
        assert delay_lower(BITCOIN_25, t).probability < delay_upper(BITCOIN_25, t).probability


# --- conversions -----------------------------------------------------------


def test_depth_from_time_worked_example():
    # lambda = 26.1, eps = 5e-4 -> 45 blocks
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.10, 10.0)
    assert depth_from_time(p, 26.1 * 600.0, 0.0005) == 45


def _depth_scalar(params, tau, eps):
    """Reference: the first k in 1..cap with scipy's gammainc(k, lam) = P(X >= k) <= eps."""
    lam = params.total_rate * tau
    ks = np.arange(1, int(lam + 60.0 * math.sqrt(lam + 1.0) + 1000) + 1)
    hit = np.flatnonzero(special.gammainc(ks, lam) <= eps)
    if not hit.size:
        raise BracketError("confirmation depth search did not terminate")
    return int(ks[hit[0]])


@pytest.mark.parametrize("lam", [0.1, 1.0, 7.3, 26.1, 100.0, 600.0, 2500.0, 1e4])
def test_depth_from_time_matches_scalar_search(lam):
    p = ProtocolParams(alpha=0.009, beta=0.001)
    tau = lam / p.total_rate
    for eps in (1e-2, 5e-4, 1e-6, 1e-9, 1e-12):
        assert depth_from_time(p, tau, eps) == _depth_scalar(p, tau, eps)


def test_depth_from_time_matches_gammainc_on_a_grid():
    # 240 geometric rates from 0.01 to 3e4 blocks, at levels from 0.9 down to 1e-12
    p = ProtocolParams(alpha=0.009, beta=0.001)
    for lam in np.geomspace(0.01, 3e4, 240):
        tau = lam / p.total_rate
        for eps in (0.9, 0.5, 1e-2, 5e-4, 1e-6, 1e-9, 1e-12):
            assert depth_from_time(p, tau, eps) == _depth_scalar(p, tau, eps), (lam, eps)


@pytest.mark.parametrize("lam, known", [(1e-12, None), (1e-6, (1e-15, 3)), (1e-4, (1e-30, 7)), (0.01, (1e-100, 33))])
def test_depth_from_time_at_small_rates_and_tiny_levels(lam, known):
    # the window's top lies where the pmf underflows (log pmf(51) ~ -857 at
    # lam = 1e-6, eps = 1e-15), so the scan starts lower, at a normal pmf
    p = ProtocolParams(alpha=1.0, beta=0.0)
    for eps in (1e-3, 1e-9, 1e-15, 1e-30, 1e-100):
        assert depth_from_time(p, lam, eps) == _depth_scalar(p, lam, eps), eps
    if known:
        assert depth_from_time(p, lam, known[0]) == known[1]


def _depth_log_domain(lam, eps):
    """Reference: the downward scan with every tail summed in the log domain, where nothing underflows."""
    top = bounds._poisson_window(lam, math.log(eps) + bounds._LOG_NEGLIGIBLE)[1]
    ks = np.arange(top, 0, -1)
    over = np.flatnonzero(np.logaddexp.accumulate(log_poisson_pmf_vec(ks, lam)) > math.log(eps))
    return int(ks[over[0]]) + 1 if over.size else 1


def test_depth_from_time_at_subnormal_levels():
    # below eps = 2^-900 the pmf and eps are scaled up together, so a subnormal
    # level still meets normal pmfs: at lam = 1924.95 (latency --level 1e-323 at
    # its defaults) and eps = 5e-324 the depth is 3845, where P(X >= 3844) =
    # 8.76e-324 (mpmath); summing subnormal pmfs unscaled read 3844
    p = ProtocolParams(alpha=1.0, beta=0.0)
    for lam in (0.01, 30.0, 600.0, 1924.9466666666667, 1e5):
        for eps in (1e-290, 1e-300, 1e-310, 1e-320, 5e-324):
            assert depth_from_time(p, lam, eps) == _depth_log_domain(lam, eps), (lam, eps)
    assert depth_from_time(p, 1924.9466666666667, 5e-324) == 3845
    # below lam = 2^-1000, P(X >= 1) = lam decides between 1 and 2
    assert depth_from_time(ProtocolParams(alpha=5e-324, beta=0.0), 0.1, 1e-3) == 1  # lam = 0.0
    assert depth_from_time(ProtocolParams(alpha=1e-310, beta=0.0), 1.0, 1e-3) == 1
    assert depth_from_time(ProtocolParams(alpha=1e-310, beta=0.0), 1.0, 5e-324) == 2


def test_depth_from_time_matches_fixed_chunks_on_a_random_panel():
    # 300 log-uniform (lam, eps), lam from 1e-3 to 1e9 and eps from 1e-13 to
    # 0.9: the recurrence's depths are those of the saddle-point pmf at every count
    p = ProtocolParams(alpha=1.0, beta=0.0)
    rng = np.random.default_rng(30)
    lams = np.exp(rng.uniform(math.log(1e-3), math.log(1e9), 300))
    epss = np.exp(rng.uniform(math.log(1e-13), math.log(0.9), 300))
    for lam, eps in zip(lams.tolist(), epss.tolist()):
        want = _depth_fixed_chunks(p, lam, eps, bounds._DEPTH_CHUNK)
        assert depth_from_time(p, lam, eps) == want, (lam, eps)


def test_depth_from_time_keeps_cap(monkeypatch):
    # a tail that exceeds eps at the window's top count fails there, after
    # summing one chunk from that top down
    seen = []

    def heavy(k, lam):
        seen.append(k)
        return 0.0  # pmf 1 at the scan's start

    monkeypatch.setattr(bounds, "log_poisson_pmf", heavy)
    p = ProtocolParams(alpha=0.009, beta=0.001)
    tau = 600.0 / p.total_rate
    with pytest.raises(BracketError):
        depth_from_time(p, tau, 1e-6)
    log_mass = math.log(1e-6) + bounds._LOG_NEGLIGIBLE
    assert seen == [bounds._poisson_window(p.total_rate * tau, log_mass)[1]]


def test_depth_from_time_widens_a_window_above_the_answer(monkeypatch):
    # the scan runs down from the window's top, past its lowest count if the
    # answer lies below it
    window = bounds._poisson_window

    def high(lam, log_mass):
        hi = window(lam, log_mass)[1]
        return hi - 3, hi

    monkeypatch.setattr(bounds, "_poisson_window", high)
    p = ProtocolParams(alpha=0.009, beta=0.001)
    for lam in (0.5, 26.1, 600.0):
        tau = lam / p.total_rate
        assert depth_from_time(p, tau, 1e-6) == _depth_scalar(p, tau, 1e-6)


def test_depth_from_time_chunks_sum_in_one_order(monkeypatch):
    # each chunk's cumsum starts from the running tail, so every tail, and so
    # every depth, is the same whatever the chunk size
    p = ProtocolParams(alpha=0.009, beta=0.001)
    cases = [(lam / p.total_rate, eps) for lam in np.geomspace(0.01, 3e4, 40) for eps in (0.9, 1e-3, 1e-12)]
    want = [depth_from_time(p, tau, eps) for tau, eps in cases]
    for chunk in (5, 64):
        monkeypatch.setattr(bounds, "_DEPTH_CHUNK", chunk)
        assert [depth_from_time(p, tau, eps) for tau, eps in cases] == want


def _depth_fixed_chunks(params, tau, eps, chunk):
    """Reference: depth_from_time's downward scan in fixed chunks of `chunk` counts from the window's top."""
    lam = params.total_rate * tau
    top = bounds._poisson_window(lam, math.log(eps) + bounds._LOG_NEGLIGIBLE)[1]
    tail = 0.0
    for hi in range(top, 0, -chunk):
        ks = np.arange(hi, max(hi - chunk, 0), -1)
        tails = np.cumsum(np.concatenate([[tail], np.exp(log_poisson_pmf_vec(ks, lam))]))[1:]
        over = np.flatnonzero(tails > eps)
        if over.size:
            return int(ks[over[0]]) + 1
        tail = tails[-1]
    return 1


def test_depth_from_time_stops_its_first_chunk_at_floor_lam(monkeypatch):
    # the chunks above floor(lam) end there, where the tail passes 1/2: every depth is
    # the fixed chunking's, at each chunk size, and the scan evaluates only the counts
    # from the window's top down to floor(lam) (1,224 of the 11,223 counts one fixed
    # 16,384-count chunk took at lam = 1e4, eps = 1e-12)
    p = ProtocolParams(alpha=0.009, beta=0.001)
    cumprod, counted = np.cumprod, []
    monkeypatch.setattr(np, "cumprod", lambda a, **kw: counted.append(a.size) or cumprod(a, **kw))
    for chunk in (5, 64, bounds._DEPTH_CHUNK):
        monkeypatch.setattr(bounds, "_DEPTH_CHUNK", chunk)
        for lam in np.geomspace(0.1, 1e4, 25):
            for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
                counted.clear()
                got = depth_from_time(p, lam / p.total_rate, eps)
                assert got == _depth_fixed_chunks(p, lam / p.total_rate, eps, chunk), (chunk, lam, eps)
                top = bounds._poisson_window(lam, math.log(eps) + bounds._LOG_NEGLIGIBLE)[1]
                assert 0 < sum(counted) <= top - max(math.floor(lam), 1) + 1


def test_depth_from_time_memory_stays_flat_at_large_rates():
    # lam = 6.7e9: the window spans ~1.8e6 counts, the chunked scan a few
    # hundred kB at a time
    p = ProtocolParams(alpha=1.0, beta=0.0)
    tracemalloc.start()
    try:
        depth = depth_from_time(p, 6.7e9, 5e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert depth == 6700500084
    assert peak < 16e6


def test_poisson_window_bounds_both_tails():
    # the mass outside (lo, hi) is at most e^log_mass on each side
    for lam in (0.0, 0.01, 3.0, 26.1, 600.0, 3e4):
        for log_mass in (math.log(1e-15), math.log(1e-9) + bounds._LOG_NEGLIGIBLE):
            lo, hi = bounds._poisson_window(lam, log_mass)
            assert special.gammainc(hi + 1, lam) <= math.exp(log_mass)  # P(X > hi)
            if lo > 0:
                assert special.gammaincc(lo, lam) <= math.exp(log_mass)  # P(X < lo)


def test_depth_from_time_monotone_in_eps():
    p = BITCOIN_10
    d_loose = depth_from_time(p, 15000.0, 1e-2)
    d_tight = depth_from_time(p, 15000.0, 1e-6)
    assert d_tight > d_loose


def test_invert_latency_round_trip():
    eps = 1e-4
    t = invert_latency(delay_upper, BITCOIN_10, eps)
    assert delay_upper(BITCOIN_10, t).probability <= eps
    assert delay_upper(BITCOIN_10, t - 1).probability > eps


def test_invert_latency_unreachable():
    p = ProtocolParams(alpha=1.0, beta=0.999999)
    with pytest.raises(BracketError):
        invert_latency(zero_delay_upper, p, 1e-300)


def test_invert_latency_refuses_a_level_a_truncated_sum_cannot_decide():
    # the largest share with beta < alpha e^{-2 alpha delta} at 6/h, delta = 10 s: past
    # _TERMS_MAX delay_lower reads 0, and its truncation tail leaves both levels open
    params = ProtocolParams.from_adversary_share(6.0 / 3600.0, 0.4957984190586051, 10.0)
    calls = []

    def lower(p, t):
        calls.append(np.size(t))
        return delay_lower(p, t)

    start = time.process_time()  # CPU time: other processes on the host do not count
    with pytest.raises(BracketError) as err:
        invert_latency(lower, params, [1e-3, 1e-9])
    assert time.process_time() - start < 3.0
    assert str(err.value) == bounds._UNDECIDED
    assert calls == [4, 4]  # 600 s, then the first stride's times, where it stops
    # the latency the search took before: a row reading 0 that may exceed 1e-3
    res = delay_lower(params, 150577806.0)
    assert res.raw_value == 0.0 and res.truncation_tail > 1e-3


def _bisect_latency(bound_fn, params, eps):
    """Reference: bracket by doubling from 600 s, then bisect on whole seconds."""
    def f(t):
        return bound_fn(params, t).probability

    hi = 600
    while f(hi) > eps:
        hi *= 2
        if hi > 2**40:
            raise BracketError("latency target unreachable within the search horizon")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def _same_latency(bound_fn, params, eps):
    try:
        want = _bisect_latency(bound_fn, params, eps)
    except (InfeasibleParametersError, BracketError) as e:
        with pytest.raises(type(e)):
            invert_latency(bound_fn, params, eps)
        return
    assert invert_latency(bound_fn, params, eps) == want


def _protocol_params(share):
    specs, model = load_config(default_config_path())
    return [
        ProtocolParams.from_adversary_share(spec.total_rate, share, protocol_delay(spec, model))
        for spec in specs
    ]


INVERSION_CASES = (
    [(p, eps) for p in _protocol_params(0.25) for eps in (1e-3, 1e-6, 1e-9)]
    + [(ProtocolParams.from_adversary_share(r / 3600.0, 0.25, 10.0), 1e-9) for r in range(10, 310, 10)]
    + [(p, eps) for p in (BITCOIN_10, BITCOIN_25) for eps in (1e-3, 1e-6, 1e-9)]
    + [
        (ProtocolParams(alpha=ad / 10.0 * (1 - share), beta=ad / 10.0 * share, delta=10.0), eps)
        for ad in (1e-4, 1e-3, 1e-2)
        for share in (0.01, 0.2, 0.45)
        for eps in (1e-3, 1e-9)
    ]
)


@pytest.mark.parametrize("params,eps", INVERSION_CASES)
def test_invert_latency_matches_bisection(params, eps):
    _same_latency(delay_upper, params, eps)


@pytest.mark.parametrize("share", [0.0, 0.1, 0.25, 0.45])
def test_invert_latency_zero_delay_matches_bisection(share):
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, share, 0.0)
    for eps in (0.5, 1e-3, 1e-9, 1e-15):
        _same_latency(zero_delay_upper, p, eps)


def test_invert_latency_log_linear_forms_start_at_the_crossing():
    # c e^{-rate t}: the secant through the start probes is the crossing, so one
    # probe call and one confirmation call find the latency
    calls = []

    def universal(params, t):
        calls.append(t)
        return delay_upper_universal(params, t)

    assert invert_latency(universal, BITCOIN_10, 1e-6) == 25670
    assert len(calls) <= 2
    _same_latency(delay_upper_universal, BITCOIN_10, 1e-6)
    # a bound already below the level at 1 s
    assert invert_latency(zero_delay_upper, ProtocolParams(alpha=50.0, beta=0.0), 1e-3) == 1


def test_invert_latency_iterates_the_secant_for_delay_lower():
    # delay_lower is not log-linear near t = 0, so the secant from 0 and 600 s
    # misses; its steps, one array call for all levels each, reach the latencies
    calls = []

    def lower(params, t):
        calls.append(np.size(t))
        return delay_lower(params, t)

    levels = [1e-3, 1e-6, 1e-9]
    latencies = invert_latency(lower, BITCOIN_10, levels)
    assert len(calls) <= 12
    ts = np.array([x for t in latencies for x in (t - 1.0, t)])
    before, at = delay_lower(BITCOIN_10, ts).probability.reshape(-1, 2).T
    assert (at <= levels).all() and (before > levels).all()


def _counting(monkeypatch, name):
    """Calls of bounds.<name>, recorded by their arguments, while monkeypatch holds."""
    calls = []
    fn = getattr(bounds, name)
    monkeypatch.setattr(bounds, name, lambda *a: calls.append(a) or fn(*a))
    return calls


# Array calls a search from a displaced start may take: two bisections over
# the whole horizon, plus two.
_SEARCH_CALLS = 2 * math.ceil(math.log2(bounds._LATENCY_HORIZON)) + 2


@pytest.mark.parametrize("form", ["delay_upper", "delay_lower", "zero_delay_upper"])
def test_invert_latency_secant_falls_back_to_the_outward_search(monkeypatch, form):
    # starts far from the answer on either side: the search strides outward
    # and bisects where its secant does not halve the bracket, and finds the
    # bisection's latency within _SEARCH_CALLS array calls
    if form == "delay_upper":
        cases, wants = [], []
        for params, eps in [(BITCOIN_10, 1e-3), (BITCOIN_25, 1e-9), *INVERSION_CASES[::9]]:
            try:
                wants.append(_bisect_latency(delay_upper, params, eps))
            except InfeasibleParametersError:
                continue
            cases.append((params, eps))
        crossings = bounds._delay_crossings
        calls = _counting(monkeypatch, "_delay_upper_rows")
        for scale in (1e-6, 0.5, 2.0, 1e6):
            monkeypatch.setattr(bounds, "_delay_crossings", lambda *a, k=scale: k * crossings(*a))
            for (params, eps), want in zip(cases, wants):
                calls.clear()
                assert invert_latency(delay_upper, params, eps) == want
                assert 1 < len(calls) <= _SEARCH_CALLS
        return
    bound_fn = getattr(bounds, form)
    params = BITCOIN_10
    if form == "zero_delay_upper":
        params = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.25, 0.0)
    levels = [1e-3, 1e-9]
    want = [_bisect_latency(bound_fn, params, eps) for eps in levels]
    calls = []

    def counted(params, t):
        calls.append(t)
        return bound_fn(params, t)

    for start in (1, 10**11):
        monkeypatch.setattr(bounds, "_SEARCH_START", start)
        calls.clear()
        assert invert_latency(counted, params, levels) == want
        assert len(calls) <= _SEARCH_CALLS


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    alpha_delta=st.floats(1e-4, 0.5),
    share=st.floats(0.0, 0.45),
    delta=st.floats(0.5, 100.0),
    log10_eps=st.floats(-12.0, -2.0),
)
def test_invert_latency_matches_bisection_property(alpha_delta, share, delta, log10_eps):
    alpha = alpha_delta / delta
    beta = alpha * share / (1.0 - share)
    if beta >= alpha * math.exp(-2.0 * alpha_delta):
        return
    _same_latency(delay_upper, ProtocolParams(alpha, beta, delta), 10.0**log10_eps)


def _latencies_or_error(bound_fn, params, levels):
    """invert_latency per level, or the type of the first level's error."""
    try:
        return [invert_latency(bound_fn, params, eps) for eps in levels]
    except (InfeasibleParametersError, BracketError) as e:
        return type(e)


@pytest.mark.parametrize("params,eps", INVERSION_CASES)
def test_invert_latency_batched_levels_equal_per_level_calls(params, eps):
    levels = [1e-3, eps, 1e-6, 1e-9]
    want = _latencies_or_error(delay_upper, params, levels)
    if isinstance(want, type):
        with pytest.raises(want):
            invert_latency(delay_upper, params, levels)
    else:
        assert invert_latency(delay_upper, params, levels) == want
        assert invert_latency(delay_upper, params, np.array(levels)) == want


def test_invert_latency_other_bounds_take_levels():
    levels = [1e-3, 1e-6]
    p0 = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.25, 0.0)
    for bound_fn, params in ((zero_delay_upper, p0), (delay_upper_universal, BITCOIN_10)):
        assert invert_latency(bound_fn, params, levels) == [
            invert_latency(bound_fn, params, eps) for eps in levels
        ]
    assert invert_latency(delay_upper, BITCOIN_10, []) == []
    for bad in ([1e-3, 1.0], [[1e-3]], 0.0):
        with pytest.raises(ValueError):
            invert_latency(delay_upper, BITCOIN_10, bad)


def test_invert_latency_confirms_with_delay_upper_values(monkeypatch):
    # the confirmation's values at ceil(t*) - 1 and ceil(t*) are the public
    # delay_upper's, bit for bit
    seen = []
    rows = bounds._delay_upper_rows

    def recording(mgf, b, d, coarse, ts, prior=None):
        out = rows(mgf, b, d, coarse, ts, prior)
        seen.append((ts.copy(), *out))
        return out

    monkeypatch.setattr(bounds, "_delay_upper_rows", recording)
    levels = [1e-3, 1e-6, 1e-9]
    for params in (BITCOIN_10, BITCOIN_25, *_protocol_params(0.25)):
        seen.clear()
        latencies = invert_latency(delay_upper, params, levels)
        assert len(seen) == 1
        ts, raw, v = (np.ravel(x) for x in seen[0])  # one row: the batch of one model
        assert ts.tolist() == [x for t in latencies for x in (t - 1.0, t)]
        public = delay_upper(params, ts)
        assert _bits(raw) == _bits(public.raw_value)
        assert _bits(v) == _bits(public.optimizer_v)


def test_invert_latency_crossing_never_needs_the_fallback(monkeypatch):
    # the crossing, minimized as delay_upper is, always starts the search at
    # the answer: every inversion closes in its first step, one kernel call
    calls = _counting(monkeypatch, "_delay_upper_rows")
    bitcoin = [(p, eps) for p in (BITCOIN_10, BITCOIN_25) for eps in (1e-3, 1e-6, 1e-9)]
    assert all(case in INVERSION_CASES for case in bitcoin)
    inverted = 0
    for params, eps in INVERSION_CASES:
        calls.clear()
        try:
            invert_latency(delay_upper, params, eps)
        except InfeasibleParametersError:
            assert calls == []
            continue
        except BracketError:
            pass
        else:
            inverted += 1
        assert len(calls) == 1
    assert inverted >= 60


def test_coarse_crossing_starts_every_design_query_at_its_answer(monkeypatch):
    # the designer's space: shares 10% and 25%, 6-600 blocks/hour (eight
    # log-rate strata), 1-100 KB/s through the bundled delay model, three
    # levels.  Each crossing lies within 1 s of the one _grid_minimize's pass
    # and vertex give, and every feasible query closes in one kernel call
    model = load_config(default_config_path())[1]
    rng = np.random.default_rng(22)
    levels = [1e-3, 1e-6, 1e-9]
    log_eps = np.log(levels)
    calls = _counting(monkeypatch, "_delay_upper_rows")
    inverted = 0
    for kb_s in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        for share in (0.10, 0.25):
            for k in range(8):
                per_hour = 6.0 * 100.0 ** ((k + rng.random()) / 8)
                delta = model.a * kb_s * 3600.0 / per_hour + model.b
                params = ProtocolParams.from_adversary_share(per_hour / 3600.0, share, delta)
                try:
                    mgf, b, _ = bounds._delay_norm(params)
                except InfeasibleParametersError:
                    continue
                coarse = bounds._delay_coarse(mgf, b)
                got = bounds._delay_crossings(mgf, b, coarse, log_eps, delta)
                want = bounds._grid_minimize(
                    mgf, b, coarse, lambda c2, psi: (c2 - log_eps[:, None]) / np.where(psi > 0, psi, np.nan)
                )[1]
                assert (np.abs(got - want) * delta <= 1.0).all()
                for eps in levels:
                    calls.clear()
                    invert_latency(delay_upper, params, eps)
                    assert len(calls) == 1
                    inverted += 1
    assert inverted >= 250


def test_invert_latency_solves_each_model_once(monkeypatch):
    calls = []
    root = bounds._smallest_root_norm

    def counting(a):
        calls.append(a)
        return root(a)

    monkeypatch.setattr(bounds, "_smallest_root_norm", counting)
    for eps in (1e-3, [1e-3, 1e-6, 1e-9]):
        calls.clear()
        invert_latency(delay_upper, BITCOIN_10, eps)
        assert len(calls) == 1
    calls.clear()
    specs, model = load_config(default_config_path())
    build_comparison_table(specs, model, 0.25, [1e-3, 1e-6, 1e-9])
    assert len(calls) == len(specs) == 6


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_invert_latency_fallback_reuses_the_solved_model(monkeypatch, scale):
    # a crossing off by a factor of 2 brackets no answer, so every level steps
    # outward; the steps run on the model solved once, not through delay_upper
    crossings = bounds._delay_crossings
    monkeypatch.setattr(bounds, "_delay_crossings", lambda *a: scale * crossings(*a))
    calls = []
    root = bounds._smallest_root_norm

    def counting(a):
        calls.append(a)
        return root(a)

    monkeypatch.setattr(bounds, "_smallest_root_norm", counting)
    for params, eps in INVERSION_CASES[::6]:
        try:
            want = _bisect_latency(delay_upper, params, eps)
        except InfeasibleParametersError:
            continue
        calls.clear()
        assert invert_latency(delay_upper, params, eps) == want
        assert len(calls) == 1


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    **MODEL_REGION,
    log10_levels=st.lists(st.floats(-12.0, -1.0), min_size=4, max_size=4),
)
def test_invert_latency_monotone_in_eps_property(share, rate_per_hour, alpha_delta, log10_levels):
    # a smaller level never needs a shorter latency; the batched call agrees
    # with a scalar call per level
    params = _feasible_model(share, rate_per_hour, alpha_delta)
    if params is None:
        return
    levels = [10.0**x for x in sorted(log10_levels, reverse=True)]
    latencies = invert_latency(delay_upper, params, levels)
    assert all(b >= a for a, b in zip(latencies, latencies[1:]))
    assert latencies == [invert_latency(delay_upper, params, eps) for eps in levels]


# --- many models in one inversion -------------------------------------------


def _one_model(params, levels):
    """invert_latency with the upper bound's form for params, or the error it raises."""
    try:
        return invert_latency(bounds.bound_of_kind("upper", params), params, levels)
    except (InfeasibleParametersError, BracketError) as e:
        return e


def _same_result(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


# Models every batch below carries besides its drawn ones: two next to the
# feasibility edge (every admissible u below u0 / 512, so the crossing retries on
# _EDGE_GRID), one whose crossing lies past the horizon, one with no admissible
# u at all (beta one ulp short of the edge), an infeasible one and two at delta = 0.
EDGE_AND_ERROR_MODELS = [
    _edge_model(0.999, 60.0),
    _edge_model(0.999, 600.0, delta=2.0),
    _edge_model(0.9999, 6.0),
    _edge_model(1.0 - 2.0**-52, 6.0),
    ProtocolParams.from_adversary_share(600.0 / 3600.0, 0.45, 10.0),
    ProtocolParams.from_adversary_share(6.0 / 3600.0, 0.25, 0.0),
    ProtocolParams.from_adversary_share(600.0 / 3600.0, 0.0, 0.0),
]


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(
    region=st.lists(st.tuples(*MODEL_REGION.values()), min_size=0, max_size=10),
    at=st.integers(0, 10),
    log10_levels=st.lists(st.floats(-12.0, -1.0), min_size=1, max_size=3),
)
def test_invert_latencies_batch_equals_one_model_calls(region, at, log10_levels):
    # every model's latencies, or its error with its message, are those of its
    # own invert_latency call, and each latency t has upper(t) <= eps < upper(t - 1)
    drawn = [
        ProtocolParams.from_adversary_share(
            rate / 3600.0, share, alpha_delta / ((1.0 - share) * rate / 3600.0)
        )
        for share, rate, alpha_delta in region
    ]
    models = drawn[:at] + EDGE_AND_ERROR_MODELS + drawn[at:]
    levels = [10.0**x for x in log10_levels]
    for params, got in zip(models, invert_latencies("upper", models, levels), strict=True):
        want = _one_model(params, levels)
        _same_result(got, want)
        if isinstance(want, Exception):
            continue
        upper = bounds.bound_of_kind("upper", params)
        for t, eps in zip(got, levels):
            before, at_t = upper(params, np.array([t - 1.0, float(t)])).probability
            assert at_t <= eps and (t == 1 or before > eps)


def test_invert_latencies_takes_one_level_or_many():
    models = [BITCOIN_10, BITCOIN_25, EDGE_AND_ERROR_MODELS[4]]
    one = invert_latencies("upper", models, 1e-6)
    assert one[:2] == [invert_latency(delay_upper, p, 1e-6) for p in models[:2]]
    assert isinstance(one[2], InfeasibleParametersError)
    assert invert_latencies("upper", models, [1e-6])[:2] == [[t] for t in one[:2]]
    assert invert_latencies("upper", [], [1e-3]) == []
    assert invert_latencies("upper-universal", models[:1], 1e-6) == [25670]
    with pytest.raises(ValueError):
        invert_latencies("upper", models, [1e-3, 1.0])


def test_invert_latencies_closes_bad_models_in_the_first_step(monkeypatch):
    # a model whose crossing lies past the horizon and one with no admissible
    # u start at the horizon and close there, beside a feasible model: one
    # kernel call for the batch, and each bad model gets its own message
    models = [BITCOIN_10, _edge_model(0.9999, 6.0), _edge_model(1.0 - 2.0**-52, 6.0)]
    levels = [1e-3, 1e-9]
    want = invert_latency(delay_upper, BITCOIN_10, levels)
    calls = _counting(monkeypatch, "_delay_upper_rows")
    got = invert_latencies("upper", models, levels)
    assert len(calls) == 1
    assert got[0] == want
    assert isinstance(got[1], BracketError) and str(got[1]) == bounds._UNREACHABLE
    assert isinstance(got[2], BracketError) and str(got[2]) == bounds._NO_ADMISSIBLE_POINT


@pytest.mark.parametrize("form", [delay_upper, bounds.delay_upper_universal])
def test_delay_upper_forms_refuse_a_model_with_no_admissible_u(form):
    # beta one ulp short of the feasibility edge: no coarse or edge-grid point is admissible
    with pytest.raises(BracketError) as err:
        form(_edge_model(1.0 - 2.0**-52, 6.0), np.array([3600.0]))
    assert str(err.value) == bounds._NO_ADMISSIBLE_POINT


# Models at delta = 0 and delta > 0, feasible and infeasible, and one past the
# horizon at delta = 0, for every bound kind.
MIXED_MODELS = [
    BITCOIN_10,
    ProtocolParams.from_adversary_share(6.0 / 3600.0, 0.25, 0.0),
    ProtocolParams(alpha=1.0 / 600.0, beta=1.0 / 300.0, delta=10.0),
    BITCOIN_25,
    ProtocolParams(alpha=1.0, beta=2.0),
    ProtocolParams.from_adversary_share(60.0 / 3600.0, 0.1, 0.0),
    ProtocolParams(alpha=1.0, beta=0.999999),
]


@pytest.mark.parametrize("kind", list(bounds.BOUND_KINDS))
@pytest.mark.parametrize("levels", [[1e-3, 1e-9], []])
def test_invert_latencies_runs_every_form_through_one_search(monkeypatch, kind, levels):
    # one call over every form gives each model its own call's latencies, or
    # its error with its message, and calls each form other than delay_upper
    # exactly as often as that model's own call does
    calls = []
    for name in {n for names in bounds.BOUND_KINDS.values() for n in names} - {"delay_upper"}:
        fn = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda p, t, fn=fn: calls.append(id(p)) or fn(p, t))
    # the upper kinds also take a model with no admissible u (delay_lower needs
    # ~20 s a level there)
    models = MIXED_MODELS + ([] if kind == "lower" else [_edge_model(1.0 - 2.0**-52, 6.0)])
    want, own_calls = [], []
    for params in models:
        calls.clear()
        try:
            want.append(invert_latency(bounds.bound_of_kind(kind, params), params, levels))
        except (InfeasibleParametersError, BracketError) as e:
            want.append(e)
        own_calls.append(len(calls))
    calls.clear()
    got = invert_latencies(kind, models, levels)
    for params, g, w, n in zip(models, got, want, own_calls, strict=True):
        _same_result(g, w)
        assert calls.count(id(params)) == n
    assert invert_latencies(kind, [], levels) == []
    if levels:  # each kind meets every kind of result
        assert {type(w) for w in want} == {list, InfeasibleParametersError, BracketError}


def _count_race_kernel_calls(monkeypatch):
    calls = []
    kernel = bounds._race_log_terms
    monkeypatch.setattr(bounds, "_race_log_terms", lambda *a: calls.append(a) or kernel(*a))
    return calls


def test_race_kernel_calls_per_batch(monkeypatch):
    # the coarse grid, the crossings' vertices with their passes, and the
    # confirmation's vertex: three calls for all the table's protocols (three
    # each at one model per call), and for a throughput's 80 rates
    calls = _count_race_kernel_calls(monkeypatch)
    specs, model = load_config(default_config_path())
    build_comparison_table(specs, model, 0.25, [1e-3, 1e-6, 1e-9])
    assert len(calls) == 3
    assert all(c[3].shape[0] == len(specs) for c in calls)  # every call carries every model
    from powbounds import cli

    # at 2 and 5 KB/s one rate's confirmation row has its coarse minimum in the
    # cell next to its crossing's, so that row takes a pass of its own
    for grid, want in (("1", 3), ("1,2,5,10", 3 + 4 + 4 + 3)):
        calls.clear()
        assert cli.main(["--format", "csv", "sweep", "--var", "throughput", "--grid", grid]) == 0
        assert len(calls) == want
    # three of these rates lie at 0.87-0.98 of the feasibility edge, where the
    # coarse parabola misses its evaluated vertex by whole seconds: their
    # crossings take _grid_minimize's vertex too, its pass taken from the
    # crossings' own, one more call for the batch
    calls.clear()
    assert cli.main(["--format", "csv", "sweep", "--var", "rate", "--grid", "6:600:80"]) == 0
    assert [np.shape(c[3]) for c in calls] == [(58, 1, 511), (58, 1, 258), (58, 1, 1), (58, 2, 1)]


# --- smallest root ----------------------------------------------------------

# u / a: log-spaced toward 0 (large a puts the root near e^{-2a}) and toward 1
# (small a puts it near a (1 - a))
_SCAN_X = np.unique(np.concatenate([np.geomspace(1e-300, 0.5, 2048), 1.0 - np.geomspace(1e-12, 0.5, 2048)]))


def _full_scan_root(a):
    """Reference: the grid cell of (0, a) where g_a first turns negative, or None
    where roundoff hides g_a's sign next to that point."""
    u = a * _SCAN_X
    g, e = _g_norm(u, a), np.exp(u - a)
    scale = u * u + a * u + a * u * e + a * a * e * e  # the terms' magnitudes
    sign = np.where(g > 1e-12 * scale, 1, np.where(g < -1e-12 * scale, -1, 0))
    neg = np.flatnonzero(sign < 0)
    if neg.size == 0 or neg[0] == 0 or sign[neg[0] - 1] <= 0:
        return None
    return u[neg[0] - 1], u[neg[0]]


def test_smallest_root_polish_checks_its_own_bracket(monkeypatch):
    # g_a is at roundoff level here: np.exp and math.exp give it opposite
    # signs next to the root, and a polish on g_a's sign was handed a bracket
    # whose ends did not differ in sign.  The bracket the solver hands
    # bracketed_root does, and bracketed_root still refuses one that does not
    a = 1.1958880414736195e-07
    ends = []

    def checked(f, lo, hi, xtol):
        ends.append((f(lo), f(hi)))
        return bracketed_root(f, lo, hi, xtol)

    monkeypatch.setattr(bounds, "bracketed_root", checked)
    root = _smallest_root_norm(a)
    assert len(ends) == 1 and (ends[0][0] > 0.0) != (ends[0][1] > 0.0)
    assert 0.0 < root < a and root == pytest.approx(a, rel=1e-6)
    with pytest.raises(ValueError, match="differ in sign"):
        bracketed_root(lambda u: float(_g_norm(u, a)), 0.25 * a, 0.5 * a, 1e-15 * a)


def test_dip_scan_matches_the_full_scan():
    # 20000 log-spaced a over [1e-8, 60]: the root lies in (0, a), and in the
    # full scan's first sign-change cell wherever the scan resolves g_a's sign
    resolved = 0
    for a in np.geomspace(1e-8, 60.0, 20000).tolist():
        got = _smallest_root_norm(a)
        assert 0.0 < got < a
        cell = _full_scan_root(a)
        if cell is None:
            continue
        resolved += 1
        assert cell[0] <= got <= cell[1]
    # the scan resolves 12617 of them; the rest lie below a ~ 1e-3, where roundoff
    # can hide g_a's sign next to the root
    assert 12000 < resolved < 20000
