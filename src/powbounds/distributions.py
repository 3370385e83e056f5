"""Elementary distributions and Taylor-coefficient division, over whole arrays.

Each distribution takes numpy arrays of indices or points (scalars broadcast)
and returns an array of their shape, so a bound over an index range is one
expression.  Pmf values are formed in the log domain and exponentiated last,
so factors like e^{lambda} with lambda in the hundreds never overflow.

The Poisson pmf, and so the Skellam pmf at a zero mean, runs on numpy
alone.  The Erlang ccdf (the regularized incomplete gamma function, the
Poisson partial sum in closed form) and the Skellam pmf's Bessel factor come
from scipy.special, which `_special` imports on the first call that needs
it, so code that never calls them never loads scipy.
"""

from __future__ import annotations

import math

import numpy as np


def _special():
    """scipy.special, imported on first use: it alone costs most of a cold start."""
    from scipy import special

    return special


# Stirling's error term log k! - (k ln k - k + ln(2 pi k)/2) for k = 1..15, from
# 40-digit log-gamma values (0 stands in at k = 0, where the pmf needs none); the
# series takes over from 16
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(ks: np.ndarray) -> np.ndarray:
    """Stirling's error term log k! - (k ln k - k + ln(2 pi k)/2) over an array of integers k >= 1.

    From k = 16 the series 1/(12k) - 1/(360k^3) + 1/(1260k^5) - 1/(1680k^7) + 1/(1188k^9)
    (Loader 2000, "Fast and accurate computation of binomial probabilities"),
    whose first omitted term, 691/(360360 k^11), is below 1.1e-16 there, as
    an absolute error of a log-domain pmf; below 16, a table.
    """
    k = np.maximum(ks, 16.0)
    r = 1.0 / (k * k)
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / k
    small = ks < 16
    if small.any():
        out = np.where(small, _STIRLERR_SMALL[np.minimum(ks, 15).astype(int)], out)
    return out


# Terms v^{2j+1}/(2j+1), j >= 1, that _bd0's series sums: at |v| < 1/4 the first
# one left out is below 2e-18 of the first.
_BD0_TERMS = 14


def _bd0(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Deviance x ln(x/lam) + lam - x over broadcast arrays x > 0, lam >= 0, without cancellation.

    With v = (x - lam)/(x + lam) it is (x - lam) v + 2x sum_{j>=1} v^{2j+1}/(2j+1)
    (Loader 2000), two terms that cancel little: that form where |v| < 1/4,
    where the direct form cancels most; elsewhere x log1p((x - lam)/lam) + lam - x,
    whose log1p keeps its relative precision however near x/lam is to 1;
    and x (ln x - ln lam) + lam - x where (x - lam)/lam overflows, at a
    subnormal lam (or 0, where both read inf).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = x - lam
        v = gap / (x + lam)
        direct = np.asarray(x * np.log1p(gap / lam) - gap)  # an array even for 0-d x and lam
        if np.isinf(direct).any():
            direct = np.where(np.isinf(direct), x * (np.log(x) - np.log(lam)) - gap, direct)
    near = np.abs(v) < 0.25
    if not near.any():
        return direct
    vn, xn = v[near], np.broadcast_to(x, v.shape)[near]
    v2 = vn * vn
    series = np.full(vn.shape, 1.0 / (2 * _BD0_TERMS + 1))
    for j in range(_BD0_TERMS - 1, 0, -1):  # Horner in v^2, smallest term first, in place
        series *= v2
        series += 1.0 / (2 * j + 1)
    series *= v2
    direct[near] = gap[near] * vn + 2.0 * xn * vn * series
    return direct


def log_poisson_pmf_vec(ks: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Log Poisson pmf over an integer array; -inf outside the support.

    Loader's (2000) saddle-point form -stirlerr(k) - bd0(k, lam) - ln(2 pi k)/2
    for k >= 1, and -lam at k = 0: no term is larger than the result's own
    deviance, so the pmf keeps ~1e-15 relative precision at rates in the
    thousands, where k ln lam - lam - ln k! cancels digits of terms ~k ln k.
    lam is one rate or an array of rates that broadcasts against ks (rates of
    shape (T, 1) against ks of shape (K,) give one row per rate); a row
    equals the one-rate call bit for bit.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError(f"Poisson rate must be nonnegative, got {lam}")
    ks = np.asarray(ks, dtype=float)
    x = np.maximum(ks, 1.0)
    out = -(_bd0(x, lam) + (_stirlerr(x) + (0.5 * np.log(x) + _HALF_LOG_2PI)))
    low = ks < 1
    if low.any():
        out = np.where(low, np.where(ks == 0, -lam, -np.inf), out)
    zero = lam == 0
    if zero.any():  # a zero rate puts all mass at 0
        out = np.where(zero, np.where(ks == 0, 0.0, -np.inf), out)
    return out


def log_poisson_pmf(k: int, lam: float) -> float:
    """log_poisson_pmf_vec at one count k and one rate lam > 0, in Python floats.

    The same saddle-point form, _STIRLERR_SMALL table, Stirling series and
    _bd0 branches and series, in Python floats at a fraction of the array
    form's cost for one count.  Its deviance outside _bd0's series band takes
    numpy's log1p, whose last bit math.log1p does not always share: that
    term is x times it less x - lam, which can amplify one ulp to several.
    """
    if k < 1:
        return -lam if k == 0 else -math.inf
    x = float(k)
    if k < 16:
        stirlerr = float(_STIRLERR_SMALL[k])
    else:
        r = 1.0 / (x * x)
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / x
    gap = x - lam
    v = gap / (x + lam)
    if abs(v) < 0.25:
        v2, series = v * v, 1.0 / (2 * _BD0_TERMS + 1)
        for j in range(_BD0_TERMS - 1, 0, -1):
            series = series * v2 + 1.0 / (2 * j + 1)
        bd0 = gap * v + 2.0 * x * v * (series * v2)
    elif gap / lam < math.inf:
        bd0 = x * float(np.log1p(gap / lam)) - gap
    else:  # (x - lam)/lam overflows at a subnormal lam
        bd0 = x * (math.log(x) - math.log(lam)) - gap
    return -(bd0 + (stirlerr + (0.5 * math.log(x) + _HALF_LOG_2PI)))


def erlang_ccdf_vec(xs: np.ndarray, ns: np.ndarray, rate: float) -> np.ndarray:
    """Erlang complementary cdf over aligned (x, shape) arrays; 1 for x <= 0 (gammaincc(n, 0) = 1)."""
    return _special().gammaincc(np.asarray(ns, dtype=float), rate * np.maximum(xs, 0.0))


# u_1 .. u_4 of the uniform asymptotic expansion of I_nu (DLMF 10.41.10), as
# coefficients of t^0, t^1, ...
_DEBYE_U = [
    np.array([0, 3, 0, -5]) / 24,
    np.array([0, 0, 81, 0, -462, 0, 385]) / 1152,
    np.array([0, 0, 0, 30375, 0, -369603, 0, 765765, 0, -425425]) / 414720,
    np.array([0, 0, 0, 0, 4465125, 0, -94121676, 0, 349922430, 0, -446185740, 0, 185910725])
    / 39813120,
]


def _log_ive(nus: np.ndarray, z: float | np.ndarray) -> np.ndarray:
    """log(I_nu(z) e^{-z}) over an order array nus >= 0, for z > 0.

    z is one argument or an array that broadcasts against nus; each element
    equals the one-z value bit for bit.

    Where ive gives nan (z past 2^30, AMOS's limit) and nu^2 < z / 50, the
    large-argument expansion (DLMF 10.40.1) takes over: its terms fall by
    (4 nu^2) / (8 k z) < 1e-2 / k each, so six leave less than 1e-17.  Where ive
    underflows (below 1e-290), or gives nan at a larger nu (from ~4600 on),
    the uniform asymptotic expansion in nu (DLMF 10.41.3) takes over: its
    relative error is ~1e-10 at nu = 50 and below 2e-12 from nu = 100, and
    the underflow region has nu < 50 only for z < 1e-5.  Its exponent
    nu (sqrt(1 + x^2) - x + ln(x / (1 + sqrt(1 + x^2)))), x = z/nu, is formed
    as nu (1/(s + x) - ln(1 + (1 + 1/(s + x))/x)) with s = sqrt(1 + x^2), which
    cancels nothing at large x.
    """
    nus, z = np.broadcast_arrays(np.asarray(nus, dtype=float), np.asarray(z, dtype=float))
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(_special().ive(nus, z)))
    big = np.isnan(out)
    uniform = (out < math.log(1e-290)) | (big & (50.0 * nus * nus >= z))  # nan compares false
    big &= ~uniform
    if big.any():
        mu, zb = 4.0 * nus[big] ** 2, z[big]
        term, series = np.ones(zb.shape), np.ones(zb.shape)
        for k in range(1, 7):
            term = term * -(mu - (2 * k - 1) ** 2) / (8.0 * k * zb)
            series = series + term
        with np.errstate(divide="ignore"):  # z = inf: log ive = -inf, a zero pmf
            out[big] = np.log(series) - 0.5 * np.log(2.0 * np.pi * zb)
    if uniform.any():
        n = nus[uniform]
        x = z[uniform] / n
        s = np.sqrt(1.0 + x * x)
        t = 1.0 / s
        series = sum(
            np.polynomial.polynomial.polyval(t, u) / n ** (k + 1) for k, u in enumerate(_DEBYE_U)
        )
        gap = 1.0 / (s + x)  # s - x
        out[uniform] = (
            n * (gap - np.log1p((1.0 + gap) / x))
            - 0.5 * np.log(2.0 * np.pi * n)
            + 0.5 * np.log(t)
            + np.log1p(series)
        )
    return out


def skellam_pmf(ks: np.ndarray, mu1: float | np.ndarray, mu2: float | np.ndarray) -> np.ndarray:
    """P(P1 - P2 = k) over an integer array, for independent Poissons with means mu1, mu2.

    Bessel form e^{-(sqrt mu1 - sqrt mu2)^2} (mu1/mu2)^{k/2} ive(|k|, 2 sqrt(mu1 mu2)),
    combined in the log domain, so the pmf stays exact where ive alone would
    underflow (near the mode of large, unequal means); a zero mean leaves a
    Poisson pmf.  The drift is formed as -((mu1 - mu2) / (sqrt mu1 + sqrt mu2))^2,
    which keeps its digits at large, nearly equal means.  mu1 and mu2 are
    means or arrays of means that broadcast against ks (columns of shape
    (T, 1) against ks of shape (K,) give one row per pair); a row equals the
    one-pair call bit for bit.
    """
    mu1, mu2 = np.broadcast_arrays(np.asarray(mu1, dtype=float), np.asarray(mu2, dtype=float))
    if (mu1 < 0).any() or (mu2 < 0).any():
        raise ValueError("Skellam means must be nonnegative")
    ks = np.asarray(ks, dtype=float)
    both = (mu1 > 0) & (mu2 > 0)
    x, y = np.where(both, mu1, 1.0), np.where(both, mu2, 1.0)  # a zero mean is the Poisson case
    drift = -(((x - y) / (np.sqrt(x) + np.sqrt(y))) ** 2)
    tilt = np.log(x / y)
    with np.errstate(over="ignore"):  # x y = inf leaves z = inf, where log ive is -inf
        z = 2.0 * np.sqrt(x * y)
    out = np.exp(drift + 0.5 * ks * tilt + _log_ive(np.abs(ks), z))
    if both.all():
        return out
    poisson = np.where(
        mu2 == 0, np.exp(log_poisson_pmf_vec(ks, mu1)), np.exp(log_poisson_pmf_vec(-ks, mu2))
    )
    return np.where(both, out, poisson)


def geometric_sum_ccdf(ns: np.ndarray, q: float) -> np.ndarray:
    """P(L1 + L2 >= n) over an integer array, for i.i.d. geometric(q) on {0,1,...}.

    Closed form q^n (1 + n (1-q)).
    """
    if not 0 < q < 1:
        raise ValueError(f"parameter must be in (0,1), got {q}")
    ns = np.asarray(ns, dtype=float)
    if np.any(ns < 0):
        raise ValueError(f"n must be nonnegative, got {ns}")
    return q**ns * (1.0 + ns * (1.0 - q))


def series_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Taylor coefficients of num/den, to the shorter of the two orders.

    A blocked forward substitution over den's nonzero support, its first H
    coefficients (the relaxed product of van der Hoeven, "Relax, but don't be
    too lazy", 2002): with B = H - 1, each block g[s:s+B] of the
    quotient solves den * g = num there given g below s, which enters only
    through g[s-H+1:s], as g[s:s+B] = (1/den) * (num - den * g[:s]) cut to
    B terms.  The reciprocal's first B coefficients come once from Newton's
    iteration r <- r (2 - den r), so n coefficients cost ~2 n H
    multiply-adds, linear in n, where a full-length reciprocal costs time
    quadratic in it.  Requires a nonzero constant term in the divisor.
    """
    n = min(len(num), len(den))
    num = np.asarray(num, dtype=float)[:n]
    den = np.asarray(den, dtype=float)[:n]
    if den[0] == 0.0:
        raise ZeroDivisionError("series division by a series with zero constant term")
    den = den[: np.flatnonzero(den)[-1] + 1]  # past its support den adds nothing
    if den.size == 1:
        return num / den[0]
    block = den.size - 1
    inv = np.array([1.0 / den[0]])
    while inv.size < min(block, n):
        k = min(2 * inv.size, block, n)
        fix = -np.convolve(den[:k], inv)[:k]  # 2 - den r, to order k
        fix[0] += 2.0
        inv = np.convolve(inv, fix)[:k]
    out = np.zeros(2 * block + n)  # the quotient from index block on; zeros before and past it
    out[block : block + inv.size] = np.convolve(num[: inv.size], inv)[: inv.size]
    work = np.zeros(2 * block - 1)  # block - 1 zeros, then a block's right-hand side
    for s in range(inv.size, n, block):
        size = min(block, n - s)
        # "valid" convolutions form only the block's own coefficients: den * g[s - block:s]
        # over the block (g is still 0 from s on), then (1/den) * (num - that)
        known = np.convolve(out[s : s + 2 * block], den, "valid")[:size]
        work[block - 1 : block - 1 + size] = num[s : s + size] - known
        out[block + s : block + s + size] = np.convolve(work[: block - 1 + size], inv, "valid")
    return out[block : block + n]
