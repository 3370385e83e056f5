"""The two series-based lower bounds, the Skellam pmf, log k! and the double-lagger MGF
against 50-digit mpmath re-evaluations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import loggamma, mp, mpf
from test_bounds import MODEL_REGION, _REFERENCE_POLE_GRID, _feasible_model, _gain_size, _wide_tops

from powbounds import bounds
from powbounds.bounds import (
    ProtocolParams,
    RaceSpec,
    delay_lower,
    double_lagger_mgf,
    postmine_gain_pmf,
    renewal_race_bound,
    zero_delay_lower,
)
from powbounds.distributions import _stirlerr, log_poisson_pmf_vec, skellam_pmf

# (adversarial share, total rate per hour, t in seconds)
ZERO_DELAY_POINTS = [
    (0.45, 600.0, 95668.0),
    (0.10, 6.0, 7200.0),
    (0.25, 6.0, 36000.0),
    (0.01, 60.0, 600.0),
    (0.30, 600.0, 60.0),
    (0.45, 6.0, 2e5),
    (0.4999, 6.0, 1e12),  # 2 sqrt(alpha beta) t = 1.7e9, past ive's 2^30 limit
    (0.4999, 600.0, 6.5e9),  # large, nearly equal means: the drift must not cancel
]

# (adversarial share, total rate per hour, delta in seconds)
POSTMINE_POINTS = [
    (0.10, 6.0, 10.0),
    (0.25, 6.0, 10.0),
    (0.30, 60.0, 5.0),
    (0.10, 600.0, 1.0),
]


def _zero_delay_series(params, t, top):
    """zero_delay_lower's series over orders 0..top, in mpf arithmetic.

    Term k is e^{-(m1+m2)} I_{|k-1|}(z) r^{(k+1)/2} (1 + k (1 - r)), z = 2 sqrt(m1 m2):
    the Skellam pmf in Bessel form.  The orders come down from mpmath's own
    I_top and I_{top+1} by I_{j-1} = I_{j+1} + (2j/z) I_j, the direction in
    which I is the dominant solution.
    """
    m1, m2 = mpf(params.alpha) * t, mpf(params.beta) * t
    r, z = m2 / m1, 2 * mp.sqrt(m1 * m2)
    bessel = [mpf(0)] * (top + 2)
    bessel[top + 1], bessel[top] = mp.besseli(top + 1, z), mp.besseli(top, z)
    two_over_z = 2 / z
    for j in range(top, 0, -1):
        bessel[j - 1] = bessel[j + 1] + j * two_over_z * bessel[j]
    root, power, terms = mp.sqrt(r), mp.sqrt(r), []  # power = r^{(k+1)/2}
    for k in range(top + 1):
        terms.append(bessel[abs(k - 1)] * power * (1 + k * (1 - r)))
        power *= root
    return mp.exp(-(m1 + m2)) * mp.fsum(terms)


@pytest.mark.parametrize("share,rate_per_hour,t", ZERO_DELAY_POINTS)
def test_zero_delay_lower_matches_mpmath(share, rate_per_hour, t):
    params = ProtocolParams.from_adversary_share(rate_per_hour / 3600.0, share, 0.0)
    got = zero_delay_lower(params, t).raw_value
    with mp.workdps(50):
        # the same series over the orders the model's ratio bound sizes
        want = _zero_delay_series(params, t, bounds._zero_delay_orders(params.beta / params.alpha)[0])
        assert abs(got - want) <= 1e-11 * want


def _zero_delay_lower_reference(params, t):
    """zero_delay_lower's series over the orders the model's ratio bound sizes, in mpf arithmetic.

    A term is at most its weight r^k (1 + k (1 - r)), which falls with k, so
    the sum stops once the weights left are below 1e-20 of it.
    """
    top = bounds._zero_delay_orders(params.beta / params.alpha)[0]
    m1, m2 = mpf(params.alpha) * t, mpf(params.beta) * t
    r = mpf(params.beta) / mpf(params.alpha)
    z = 2 * mp.sqrt(m1 * m2)
    total = mpf(0)
    for k in range(top + 1):
        weight = r**k * (1 + k * (1 - r))
        if (top + 1 - k) * weight <= mpf(10) ** -20 * total:
            break
        j = k - 1
        if m2 == 0:  # t = 0: all mass at 0
            pmf = mpf(1) if j == 0 else mpf(0)
        else:
            pmf = mp.exp(-(m1 + m2)) * (m1 / m2) ** (mpf(j) / 2) * mp.besseli(abs(j), z)
        total += pmf * weight
    return total


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(**MODEL_REGION, blocks=st.floats(0.0, 1000.0))
def test_zero_delay_lower_matches_mpmath_at_random_points(share, rate_per_hour, alpha_delta, blocks):
    # alpha_delta is unused: the region's shares and rates, at delta = 0
    params = ProtocolParams.from_adversary_share(rate_per_hour / 3600.0, share, 0.0)
    t = blocks / params.alpha
    got = zero_delay_lower(params, t).raw_value
    if params.beta == 0:
        assert got == 0.0
        return
    with mp.workdps(50):
        want = _zero_delay_lower_reference(params, t)
        assert abs(got - want) <= 1e-11 * want + 1e-300


def _delay_lower_reference(params, t, q, top, scale):
    """delay_lower's double sum in mpf arithmetic from the float q, over k = 0..top.

    pk(k) = r pk(k-1) + (1-r) P(A = k), A ~ Poisson(beta t), and past top its
    geometric part pk(top) r / (1 - r) enters as one more count, as in
    delay_lower.  q stops once the mass it has left is below 1e-20 of scale,
    an estimate of the value.  Each Erlang ccdf is the upper regularized gamma
    function, so none is rounded to 1.
    """
    a, b, d = mpf(params.alpha), mpf(params.beta), mpf(params.delta)
    r, lam = b / a, b * t
    pk, pois, acc = [], mp.exp(-lam), mpf(0)
    for k in range(top + 1):
        acc = r * acc + (1 - r) * pois
        pk.append(acc)
        pois = pois * lam / (k + 1)
    pk.append(pk[-1] * r / (1 - r))
    left = np.cumsum(q[::-1])[::-1]  # the q mass from each n on
    q = [mpf(x) for x, rest in zip(q, left) if rest > 1e-20 * scale]
    s = [mpf(0)] * (len(q) + len(pk))  # s[m] = sum_{n+k=m} q(n) pk(k)
    for n, qn in enumerate(q):
        for k, p in enumerate(pk):
            s[n + k] += qn * p
    return mp.fsum(
        s[m] * (mp.gammainc(m, a * (t - m * d), mp.inf, regularized=True) if t > m * d else 1)
        for m in range(1, len(s))
    )


@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(**MODEL_REGION, blocks=st.floats(0.0, 300.0))
def test_delay_lower_matches_mpmath_at_random_points(share, rate_per_hour, alpha_delta, blocks):
    # over the model's q and counts at or past delay_lower's own (test_bounds._wide_tops)
    params = _feasible_model(share, rate_per_hour, alpha_delta)
    if params is None:
        return
    t = blocks / params.alpha
    got = delay_lower(params, t).raw_value
    q = postmine_gain_pmf(params, _gain_size(params) - 1)
    top = int(_wide_tops(params, bounds._erlang_cuts(np.array([params.alpha * t])), q[0])[0])
    with mp.workdps(50):
        want = _delay_lower_reference(params, t, q, top, got)
        if want >= 1e-290:
            assert abs(got - want) <= 1e-13 * want


# (share, total rate per hour, delta, t1 < t2) where delay_lower(t2) > delay_lower(t1): over
# [0, delta] (alpha*delta = 0.5, 10%), and past delta where a shape's delay m delta is still ahead
RISES = [
    (0.10, 0.5 / 300.0 / 0.9 * 3600.0, 300.0, 0.0, 300.0),
    (0.01, 600.0, 60.0, 87.5, 89.0),
    (0.25, 600.0, 10.0, 19.6, 20.0),
]


@pytest.mark.parametrize("share,rate_per_hour,delta,t1,t2", RISES)
def test_delay_lower_rises_where_its_formula_does(share, rate_per_hour, delta, t1, t2):
    # delay_lower need not fall with t: each rise holds at 50 digits, far above roundoff
    params = ProtocolParams.from_adversary_share(rate_per_hour / 3600.0, share, delta)
    got = delay_lower(params, np.array([t1, t2])).raw_value
    q = postmine_gain_pmf(params, _gain_size(params) - 1)
    cuts = bounds._erlang_cuts(params.alpha * np.array([t1, t2]))
    tops = _wide_tops(params, cuts, q[0]).tolist()
    with mp.workdps(50):
        want = [_delay_lower_reference(params, t, q, top, g) for t, top, g in zip((t1, t2), tops, got)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w
        assert want[1] - want[0] > 1e-6 * want[0] and got[1] > got[0]


@pytest.mark.parametrize("share,rate_per_hour,delta", POSTMINE_POINTS)
def test_postmine_gain_pmf_matches_mpmath(share, rate_per_hour, delta):
    params = ProtocolParams.from_adversary_share(rate_per_hour / 3600.0, share, delta)
    got = postmine_gain_pmf(params)[:11]
    with mp.workdps(50):
        # Taylor coefficients of xi(rho) taken directly from its closed form
        a, b = mpf(params.alpha) * delta, mpf(params.beta) * delta
        xi = mp.taylor(
            lambda rho: (1 - rho) * (a - b - a * b)
            / (a - mp.exp((1 - rho) * b) * (a + b - b * rho) * rho),
            0,
            11,
        )
        want = [xi[0] + xi[1]] + xi[2:]
        for g, w in zip(got, want):
            assert abs(g - w) <= max(1e-9 * abs(w), 1e-15)


def _postmine_reference(params, n_max):
    """q(0..n_max) by the Cauchy-product recurrence for xi = num / den, in mpf arithmetic."""
    a, b = mpf(params.alpha) * mpf(params.delta), mpf(params.beta) * mpf(params.delta)
    size = n_max + 2
    expo = [mp.exp(b) * (-b) ** n / mp.factorial(n) for n in range(size)]  # e^{(1-rho) b}
    den = [a] + [
        -((a + b) * expo[n - 1] - (b * expo[n - 2] if n >= 2 else 0)) for n in range(1, size)
    ]
    num = [a - b - a * b, -(a - b - a * b)] + [0] * (size - 2)
    xi = []
    for n in range(size):
        xi.append((num[n] - mp.fsum(den[j] * xi[n - j] for j in range(1, n + 1))) / den[0])
    return [xi[0] + xi[1]] + xi[2:]


@pytest.mark.parametrize("share,rate_per_hour,delta", POSTMINE_POINTS + [(0.01, 6.0, 30.0)])
def test_postmine_gain_pmf_keeps_relative_precision(share, rate_per_hour, delta):
    # every coefficient above 1e-30 to ~1e-14 relative, with no absolute roundoff floor
    # from the factor 1 - rho; the 50-digit reference has its own floor near 1e-50
    params = ProtocolParams.from_adversary_share(rate_per_hour / 3600.0, share, delta)
    got = postmine_gain_pmf(params)
    with mp.workdps(50):
        want = _postmine_reference(params, got.size - 1)
        for g, w in zip(got, want):
            if w > 1e-30:
                assert abs(g - w) <= 1e-12 * w


@pytest.mark.parametrize("share", [0.10, 0.25, 0.45])
def test_postmine_gain_pmf_matches_mpmath_series_quotient(share):
    # series_div's blocked quotient by h keeps every coefficient above 1e-30 to 1e-14
    params = ProtocolParams.from_adversary_share(6.0 / 3600.0, share, 10.0)
    got = postmine_gain_pmf(params)
    with mp.workdps(50):
        want = _postmine_reference(params, got.size - 1)
        for g, w in zip(got, want):
            if w > 1e-30:
                assert abs(g - w) <= 1e-14 * w


def _g_mp(u, a):
    return u * u - a * u - a * u * mp.exp(u - a) + a * a * mp.exp(2 * (u - a))


def _smallest_root_mp(a):
    """The smallest positive zero of g_a at 60 digits, bracketed and bisected by
    the sign of g_a itself: g_a > 0 on (0, u0) and g_a < 0 on (u0, a).  The
    points a (1 - 2^-k), k = 1, 2, ..., reach the dip below a; halving the
    first point in it reaches (0, u0); 200 bisection steps then close a
    bracket within a factor 2."""
    with mp.workdps(60):
        am = mpf(a)
        hi = next(u for u in (am * (1 - mpf(2) ** -k) for k in range(1, 400)) if _g_mp(u, am) < 0)
        lo = hi / 2
        while _g_mp(lo, am) <= 0:
            lo, hi = lo / 2, lo
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _g_mp(mid, am) > 0 else (lo, mid)
        return (lo + hi) / 2


@pytest.mark.parametrize("a", [1e-4, 1e-3, 1e-2, 0.1, 0.5, 2.0])
def test_smallest_root_matches_mpmath(a):
    got = bounds._smallest_root_norm(a)
    assert type(got) is float
    with mp.workdps(60):
        want = _smallest_root_mp(a)
        assert abs(got - want) <= 1e-14 * want


# roots that scipy's brentq polished on a grid scan, frozen: below a = 1e-4 the float
# evaluation of g_a, not the polish, limits such a root (relative errors 2.4e-10, 7.2e-11
# and 1.1e-11 against the 60-digit root)
BRENTQ_ROOTS = {1e-7: 9.999999002364404e-08, 1e-6: 9.999990000711947e-07, 1e-5: 9.999899999109611e-06}


@pytest.mark.parametrize("a", sorted(BRENTQ_ROOTS))
def test_smallest_root_no_worse_than_brentq_at_tiny_alpha_delta(a):
    got = bounds._smallest_root_norm(a)
    with mp.workdps(60):
        want = _smallest_root_mp(a)
        assert abs(got - want) <= abs(BRENTQ_ROOTS[a] - want)


def test_smallest_root_where_the_grid_and_polish_disagree_in_sign():
    # at this a, float evaluations of g_a by np.exp and by math.exp give it
    # opposite signs next to the root, which a root taken from g_a's sign
    # cannot place better than 7.4e-10 relative; the root of -ln E*(x) = a s
    # keeps full precision
    a = 1.1958880414736195e-07
    got = bounds._smallest_root_norm(a)
    with mp.workdps(60):
        want = _smallest_root_mp(a)
        assert abs(got - want) <= 1e-14 * want


def test_smallest_root_sweep_matches_mpmath():
    # 20000 log-spaced alpha*delta over [1e-8, 60]: the root lies in (0, a);
    # at every 690th of them (29), the a above and 60, it is the 60-digit root
    # to 1e-14 relative, and g_a is positive below it
    sweep = np.geomspace(1e-8, 60.0, 20000).tolist()
    for a in sweep:
        assert 0.0 < bounds._smallest_root_norm(a) < a
    for a in sweep[::690] + [1.1958880414736195e-07, 60.0]:
        got = bounds._smallest_root_norm(a)
        with mp.workdps(60):
            am, want = mpf(a), _smallest_root_mp(a)
            assert abs(got - want) <= 1e-14 * want, a
            assert all(_g_mp(got * f, am) > 0 for f in (mpf("0.01"), mpf("0.5"), 1 - mpf("1e-12"))), a


# (mu1, mu2, k): modes and tails of large, unequal means, where ive(|k|, 2 sqrt(mu1 mu2))
# itself underflows, and one point of moderate means
SKELLAM_POINTS = [
    (600.0, 6.0, 594),
    (600.0, 6.0, 700),
    (24000.0, 5300.0, 18700),
    (60.0, 6e-11, 60),
    (12.5, 4.2, 80),
]


@pytest.mark.parametrize("mu1,mu2,k", SKELLAM_POINTS)
def test_skellam_pmf_matches_mpmath(mu1, mu2, k):
    got = float(skellam_pmf(np.array([k]), mu1, mu2)[0])
    with mp.workdps(50):
        m1, m2 = mpf(mu1), mpf(mu2)
        want = mp.exp(-(m1 + m2)) * (m1 / m2) ** (mpf(k) / 2) * mp.besseli(
            k, 2 * mp.sqrt(m1 * m2), maxterms=10**6
        )
        assert abs(got - want) <= 1e-10 * want


def test_stirlerr_matches_mpmath():
    # every k from 1 below 2000, then 2000 geometric points up to 1e7 rounded to integers
    ks = np.unique(np.concatenate([np.arange(1, 2000), np.round(np.geomspace(2000, 1e7, 2000))]))
    got = _stirlerr(ks)
    with mp.workdps(50):
        want = [loggamma(mpf(int(k)) + 1) - (k * mp.log(k) - k + mp.log(2 * mp.pi * k) / 2) for k in ks]
        want = np.array([float(w) for w in want])
    # an absolute error in the log-domain pmf: the series' first omitted term is
    # 1.1e-16 at k = 16, and every value keeps 4e-16 relative from k = 100
    assert np.all(np.abs(got - want) <= 1.2e-16)
    assert np.all(np.abs(got - want)[ks >= 100] <= 4e-16 * want[ks >= 100])


@pytest.mark.parametrize("lam", [86.0, 860.0, 6000.0])
def test_poisson_pmf_matches_mpmath_at_large_rates(lam):
    # the saddle-point form keeps ~1e-15 relative over lam +- 6 sqrt(lam), where
    # k ln lam - lam - ln k! lost 1.3e-13, 1.3e-12 and 1.5e-11
    half = 6.0 * np.sqrt(lam)
    ks = np.arange(np.floor(lam - half), np.ceil(lam + half) + 1)
    got = np.exp(log_poisson_pmf_vec(ks, lam))
    with mp.workdps(50):
        want = [mp.exp(int(k) * mp.log(mpf(lam)) - lam - loggamma(int(k) + 1)) for k in ks]
        assert max(abs(g - w) / w for g, w in zip(got, want)) <= 2e-14


@pytest.mark.parametrize("frac", [1e-13, 0.5])
@pytest.mark.parametrize("a", [1e-4, 0.015, 0.025, 0.5])
def test_mgf_excess_matches_mpmath(a, frac):
    # phi(u) - 1 keeps its relative precision down to the u -> 0 edge
    mgf = double_lagger_mgf(a)
    u = frac * mgf.roc_sup
    got = float(mgf.excess(u))
    with mp.workdps(50):
        am, um = mpf(a), mpf(u)
        g = um * um - am * um - am * um * mp.exp(um - am) + am * am * mp.exp(2 * (um - am))
        want = (am * um - um * um) / g
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("b", [0.0, 0.0015])
def test_renewal_race_bound_array_u_is_bit_identical_to_scalar_calls(b):
    mgf = double_lagger_mgf(0.015)
    spec = RaceSpec(mu=1.0, nu=1.0, n=1, t=1440.0)
    us = mgf.roc_sup * np.array([1e-13, 1e-10, 1e-7, 1e-4, *np.linspace(0.05, 0.85, 37)])
    whole = renewal_race_bound(mgf, b, spec, us)
    each = [renewal_race_bound(mgf, b, spec, float(u)) for u in us]
    for field in ("raw_value", "probability", "optimizer_v"):
        got = np.asarray(getattr(whole, field)).tobytes()
        assert got == np.array([getattr(r, field) for r in each]).tobytes(), field


def _gain_pole_mp(a, b):
    """y0 = rho0 - 1 at 50 digits, bisected on the sign of the deficit transform's
    denominator den(rho) = a - e^{(1-rho)b} (a+b-b rho) rho itself: negative on
    (1, rho0), positive from rho0 on, and a > 0 at rho = (a+b)/b.  a+b-b rho
    cancels ~log10 rho digits there, so the working precision grows by as many."""
    with mp.workdps(60 + int(math.log10((a + b) / b))):
        am, bm = mpf(a), mpf(b)

        def den(y):
            return am - mp.exp(-y * bm) * (am - bm * y) * (1 + y)

        lo, hi = mpf(0), am / bm
        while hi - lo > mpf(10) ** -50 * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if den(mid) < 0 else (lo, mid)
        return (lo + hi) / 2


def _gain_log_pgf_mp(a, b, y):
    """log Q(1 + y) at 50 digits from xi's closed form, Q(z) = xi_0 + (xi(z) - xi_0) / z,
    with z = 1 + y formed exactly from the float y."""
    with mp.workdps(50):
        am, bm, z = mpf(a), mpf(b), 1 + mpf(y)
        c = am - bm - am * bm
        xi = (1 - z) * c / (am - mp.exp((1 - z) * bm) * (am + bm - bm * z) * z)
        return mp.log(c / am + (xi - c / am) / z)


def _gain_models(n, min_share, min_alpha_delta, seed):
    """(a, b) of n derandomised feasible models: shares log-uniform from min_share to 0.49,
    6-600/h and alpha*delta log-uniform from min_alpha_delta to 1."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        share = 10.0 ** rng.uniform(math.log10(min_share), math.log10(0.49))
        per_hour = 10.0 ** rng.uniform(math.log10(6.0), math.log10(600.0))
        params = _feasible_model(share, per_hour, 10.0 ** rng.uniform(math.log10(min_alpha_delta), 0.0))
        if params is not None:
            out.append((params.alpha * params.delta, params.beta * params.delta))
    return out


def test_gain_pole_matches_mpmath_across_shares():
    # shares to 1e-160, where the old bracket's far end (a+b)/b took the wrong sign, and
    # the model that raised ValueError at share 1e-16 (alpha*delta = 1e-4)
    crashed = ProtocolParams(alpha=1 / 600, beta=1.6666666666666667e-19, delta=0.060000000000000005)
    models = _gain_models(60, 1e-160, 1e-8, 23) + [
        (crashed.alpha * crashed.delta, crashed.beta * crashed.delta)
    ]
    for a, b in models:
        got = bounds._gain_pole(a, b)
        with mp.workdps(50):
            want = _gain_pole_mp(a, b)
            assert abs(got - want) <= 1e-12 * want, (a, b)
    assert delay_lower(crashed, 3600.0).raw_value > 0.0


def test_gain_log_pgf_matches_mpmath_on_both_grids():
    # log Q within 1e-11 at every admissible point of _lower_chernoff's grid, where
    # z - 1 reaches 1e-18, and within 1e-7 on the pole grid, out to 2^-20 of y0
    checked = 0
    for a, b in _gain_models(24, 1e-15, 1e-4, 2020):
        y0 = bounds._gain_pole(a, b)
        u = a * bounds._CHERNOFF_GRID
        for ys, tol in (((a * np.expm1(u) + u) / (a - u), 1e-11), (y0 * _REFERENCE_POLE_GRID, 1e-7)):
            got = bounds._gain_log_pgf(a, b, ys)
            live = np.isfinite(got) & (ys < y0)
            assert live.any()
            for y, g in zip(ys[live].tolist(), got[live].tolist()):
                with mp.workdps(50):
                    assert abs(g - _gain_log_pgf_mp(a, b, y)) <= tol, (a, b, y)
                checked += 1
    assert checked >= 1000
