"""Distribution primitives against closed forms and high-precision oracles."""

import math

import numpy as np
import pytest

from powbounds.distributions import (
    erlang_ccdf_vec,
    geometric_sum_ccdf,
    log_poisson_pmf,
    log_poisson_pmf_vec,
    series_div,
    skellam_pmf,
)


def poisson_pmf(ks, lam):
    return np.exp(log_poisson_pmf_vec(ks, lam))


def test_poisson_pmf_matches_direct_formula():
    for k, lam in [(0, 0.5), (3, 2.0), (10, 7.7), (40, 40.0)]:
        direct = math.exp(-lam) * lam**k / math.factorial(k)
        assert poisson_pmf(k, lam) == pytest.approx(direct, rel=1e-13)
    ks = np.arange(12)
    direct = [math.exp(-2.5) * 2.5**k / math.factorial(k) for k in ks]
    assert np.allclose(poisson_pmf(ks, 2.5), direct, rtol=1e-13, atol=0.0)


def test_poisson_pmf_edge_cases():
    assert np.array_equal(poisson_pmf([-1, 0, 2], 0.0), [0.0, 1.0, 0.0])
    assert poisson_pmf(-1, 3.0) == 0.0
    with pytest.raises(ValueError):
        log_poisson_pmf_vec([1], -1.0)


def test_poisson_pmf_huge_rate_no_overflow():
    # log-domain evaluation must survive rates in the hundreds
    assert 0.0 < poisson_pmf(500, 500.0) < 1.0
    assert np.isfinite(log_poisson_pmf_vec([1, 700], 700.0)).all()


def test_vectorized_pmf_agrees_with_scalar():
    ks = np.array([-1, 0, 1, 5, 17])
    logs = log_poisson_pmf_vec(ks, 3.3)
    assert logs[0] == -math.inf
    for k, lg in zip(ks[1:], logs[1:]):
        assert lg == pytest.approx(k * math.log(3.3) - 3.3 - math.lgamma(k + 1), abs=1e-12)


def test_scalar_log_pmf_matches_the_array_form():
    # within 4 ulps of log_poisson_pmf_vec: counts below 16 (the Stirling table),
    # counts inside (the series) and outside (log1p) _bd0's |v| < 1/4 band around
    # lam, and counts far above and below lam, at rates from 1e-6 to 1e9
    worst = 0.0
    for lam in np.geomspace(1e-6, 1e9, 151):
        near = np.round(lam * np.array([0.05, 0.59, 0.61, 0.8, 1.0, 1.2, 1.65, 1.68, 3.0, 40.0]))
        ks = np.unique(np.concatenate([np.arange(16), near[near < 2**52]])).astype(int)
        want = log_poisson_pmf_vec(ks, lam)
        got = np.array([log_poisson_pmf(int(k), float(lam)) for k in ks])
        assert got[0] == want[0] == -lam
        ulps = np.abs(got - want)[1:] / np.spacing(np.abs(want[1:]))
        worst = max(worst, ulps.max())
    assert worst <= 4.0
    assert log_poisson_pmf(-1, 2.0) == -math.inf


def test_poisson_rows_match_one_rate_calls():
    # a column of rates gives one row per rate, bit for bit the one-rate call
    ks = np.arange(-1, 40)
    rates = np.array([0.0, 1e-300, 0.3, 7.7, 40.0, 700.0])
    rows = log_poisson_pmf_vec(ks, rates[:, None])
    assert rows.shape == (rates.size, ks.size)
    for lam, row in zip(rates, rows):
        assert row.tobytes() == log_poisson_pmf_vec(ks, float(lam)).tobytes()
    assert np.exp(rows[0]).tolist() == [0.0, 1.0] + [0.0] * (ks.size - 2)
    with pytest.raises(ValueError):
        log_poisson_pmf_vec(ks, np.array([[1.0], [-1.0]]))


def test_poisson_cdf_sums_pmf():
    # P(Poisson(lam) <= k) == P(Erlang(k+1, 1) > lam)
    lam = 4.2
    ks = np.arange(12)
    cdf = erlang_ccdf_vec(lam, ks + 1, 1.0)
    assert np.allclose(cdf, np.cumsum(poisson_pmf(ks, lam)), rtol=1e-12, atol=0.0)


def test_poisson_sf_complements_cdf():
    # P(Poisson(lam) >= k) == P(Erlang(k, 1) <= lam) == 1 - P(Poisson(lam) <= k - 1)
    lam = 9.0
    ks = np.arange(1, 20)
    sf = poisson_pmf(np.arange(200), lam)[::-1].cumsum()[::-1][ks]  # sums of pmf(j), j >= k
    cdf = erlang_ccdf_vec(lam, ks, 1.0)
    assert np.allclose(sf, 1.0 - cdf, rtol=0.0, atol=1e-12)
    assert np.allclose(sf, 1.0 - np.cumsum(poisson_pmf(ks - 1, lam)), rtol=0.0, atol=1e-12)


def test_erlang_cdf_is_poisson_tail():
    # P(Erlang(n, rate) <= x) == 1 - erlang_ccdf_vec(x, n, rate) == P(Poisson(rate x) >= n)
    for n, rate, x in [(1, 0.5, 2.0), (3, 1.5, 4.0), (10, 0.01, 2000.0)]:
        lam = rate * x
        tail = poisson_pmf(np.arange(n, n + 200), lam).sum()
        assert 1.0 - erlang_ccdf_vec(x, n, rate) == pytest.approx(tail, rel=1e-12)
        assert erlang_ccdf_vec(x, n, rate) + tail == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(erlang_ccdf_vec([-1.0, 0.0], [2, 2], 0.8), [1.0, 1.0])


def test_erlang_exponential_special_case():
    # n = 1 is the exponential distribution
    xs = np.array([0.5, 2.0, 7.0])
    assert np.allclose(erlang_ccdf_vec(xs, 1, 0.7), np.exp(-0.7 * xs), rtol=1e-12, atol=0.0)


def test_erlang_ccdf_vec_broadcasts():
    xs = np.array([-1.0, 0.0, 3.0, 10.0])
    ns = np.array([2, 2, 2, 5])
    out = erlang_ccdf_vec(xs, ns, 0.8)
    assert out[0] == 1.0 and out[1] == 1.0
    assert out[2] == pytest.approx(poisson_pmf(np.arange(2), 2.4).sum(), rel=1e-12)
    assert out[3] == pytest.approx(poisson_pmf(np.arange(5), 8.0).sum(), rel=1e-12)
    # P(Poisson(0.8 x) <= n - 1): the pmf's sums over 0..n-1, 1 at x <= 0
    heads = [1.0, 1.0] + [poisson_pmf(np.arange(n), 0.8 * x).sum() for x, n in zip(xs[2:], ns[2:])]
    assert np.allclose(out, heads, rtol=0.0, atol=1e-15)
    scalar = erlang_ccdf_vec(3.0, 2, 0.8)
    assert float(scalar) == pytest.approx(out[2], rel=1e-15)


# values computed independently at 40-digit precision via the Bessel form
SKELLAM_ORACLE = [
    (3, 12.5, 4.2, 0.043274077032617038),
    (-2, 0.9, 2.7, 0.209171956057936),
    (0, 30.0, 10.0, 3.2013127016531843e-4),
]


@pytest.mark.parametrize("k,m1,m2,want", SKELLAM_ORACLE)
def test_skellam_matches_bessel_oracle(k, m1, m2, want):
    assert skellam_pmf(k, m1, m2) == pytest.approx(want, rel=1e-11)


def test_skellam_degenerate_components():
    ks = np.array([-2, 0, 1, 2])
    assert np.allclose(skellam_pmf(ks, 3.0, 0.0), poisson_pmf(ks, 3.0), rtol=1e-12, atol=0.0)
    assert np.allclose(skellam_pmf(ks, 0.0, 3.0), poisson_pmf(-ks, 3.0), rtol=1e-12, atol=0.0)
    assert skellam_pmf(1, 0.0, 3.0) == 0.0
    assert np.array_equal(skellam_pmf(ks, 0.0, 0.0), [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        skellam_pmf(0, -1.0, 1.0)


def test_skellam_normalizes():
    ks = np.arange(-60, 80)
    assert skellam_pmf(ks, 6.0, 2.0).sum() == pytest.approx(1.0, abs=1e-10)
    # the mean is mu1 - mu2
    assert np.dot(ks, skellam_pmf(ks, 6.0, 2.0)) == pytest.approx(4.0, abs=1e-9)


def test_geometric_pmf_and_sum_ccdf():
    q = 1.0 / 3.0
    pmf = (1.0 - q) * q ** np.arange(200)
    assert pmf[0] == pytest.approx(2.0 / 3.0)
    # ccdf of a sum of two geometrics vs direct enumeration
    joint = np.add.outer(np.arange(200), np.arange(200))
    weights = np.outer(pmf, pmf)
    ns = np.array([0, 1, 4])
    direct = [weights[joint >= n].sum() for n in ns]
    assert np.allclose(geometric_sum_ccdf(ns, q), direct, rtol=0.0, atol=1e-10)
    with pytest.raises(ValueError):
        geometric_sum_ccdf([-1], q)


def test_series_div_inverts_mul():
    a = np.zeros(33)
    a[:4] = [2.0, -1.0, 0.5, 0.25]
    b = np.zeros(33)
    b[:3] = [1.0, 0.7, -0.3]
    q = series_div(np.convolve(a, b)[:33], b)
    assert q.shape == (33,)
    assert np.allclose(q, a, atol=1e-12)


def _series_div_reference(num, den, n):
    """Reference: the forward substitution g[k] = (num[k] - sum_{j>=1} den[j] g[k-j]) / den[0], one term at a time."""
    g = []
    for k in range(n):
        acc = num[k] - math.fsum(den[j] * g[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        g.append(acc / den[0])
    return np.array(g)


@pytest.mark.parametrize("support, n", [(1, 9), (2, 40), (5, 203), (17, 250), (40, 39)])
def test_series_div_blocks_match_forward_substitution(support, n):
    # a divisor with `support` nonzero coefficients and zeros past them, over n terms:
    # one block, several, and a last block cut short
    rng = np.random.default_rng(support)
    den = np.zeros(n + 7)
    den[0] = 1.0
    den[1:support] = rng.uniform(-0.4, 0.4, support - 1) / np.arange(1, support) ** 2
    num = rng.uniform(-1.0, 1.0, n + 3)
    got = series_div(num, den)
    assert got.shape == (n + 3,)
    want = _series_div_reference(num, den[:support], n + 3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_series_div_geometric():
    # 1 / (1 - x) = sum x^n, to the shorter order
    one = np.zeros(17)
    one[0] = 1.0
    q = series_div(one, [1.0, -1.0] + [0.0] * 20)
    assert q.shape == (17,)
    assert np.allclose(q, 1.0)
    with pytest.raises(ZeroDivisionError):
        series_div(one, [0.0, 1.0] + [0.0] * 15)
