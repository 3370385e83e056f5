"""Analytic latency-security bounds for longest-chain proof-of-work consensus.

Covers the achievable (upper) and unachievable (lower) violation-probability
bounds with and without propagation delay, the general renewal-vs-Poisson race
bound, and the confirmation depth/time conversion.

All public operations take times in seconds and rates in blocks per second.
The delay-bound theorems normalize time by the propagation delay bound
internally.  The five security-level bounds (zero_delay_upper,
zero_delay_lower, delay_upper, delay_upper_universal, delay_lower) take t as a
float or as a 1-D array: one call does the t-independent work once and the
per-t work in blocks of _T_BLOCK times, and returns the per-t fields as
arrays, equal bit for bit to per-t calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    erlang_ccdf_vec,
    geometric_sum_ccdf,
    log_poisson_pmf,
    log_poisson_pmf_vec,
    series_div,
    skellam_pmf,
)
from .errors import BracketError, InfeasibleParametersError, SchemaError

# Coarse cells over (0, u0) in the Chernoff-rate minimizations, and points
# either side of the incumbent in their one refinement pass.
_GRID_CELLS = 512
_REFINE = 128

# Times a bound evaluates at once when t is an array.  Its per-t work arrays
# are _T_BLOCK x a few hundred floats (~0.2 MB each) whatever the grid's size;
# on a 2-vCPU Xeon, 1024-point delay_upper calls ran fastest at 32 (of 16-256).
_T_BLOCK = 32

# Terms (rows x range) one run of a lower bound's rows holds at most: its work
# arrays stay ~0.5 MB each, whatever the model and the times.
_BLOCK_TERMS = _T_BLOCK * 2048

# Longest range any lower-bound sum covers, a work bound that only models near an
# even split or past ~1e5 expected blocks reach: there a sum stops at it, or a row
# reads 0, and truncation_tail bounds what is left out.
_TERMS_MAX = 2**17

# Latest whole-second latency (s) invert_latency searches; past it, BracketError.
_LATENCY_HORIZON = 600 * 2**30

# Whole second where invert_latency's search starts for a form other than delay_upper.
_SEARCH_START = 600

# The whole seconds (s - 1, s) each step of invert_latency's search evaluates.
_PAIR = np.array([-1.0, 0.0])

_UNREACHABLE = "latency target unreachable within the search horizon"

_UNDECIDED = "latency target undecided: the bound's sum, cut at its term limit, may exceed the level"


@dataclass(frozen=True)
class ProtocolParams:
    """Mining model: honest rate alpha, adversarial rate beta (blocks/s), delay bound delta (s)."""

    alpha: float
    beta: float
    delta: float = 0.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"honest rate must be positive and finite, got {self.alpha}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"adversarial rate must be nonnegative and finite, got {self.beta}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delay bound must be nonnegative and finite, got {self.delta}")

    @classmethod
    def from_adversary_share(cls, total_rate: float, share: float, delta: float) -> "ProtocolParams":
        """Split a total mining rate into honest/adversarial parts."""
        if not 0 <= share < 1:
            raise ValueError(f"adversarial share must be in [0,1), got {share}")
        return cls(alpha=(1.0 - share) * total_rate, beta=share * total_rate, delta=delta)

    @property
    def total_rate(self) -> float:
        return self.alpha + self.beta


@dataclass(frozen=True)
class BoundResult:
    """A probability bound plus diagnostics from its evaluation."""

    raw_value: float
    probability: float
    optimizer_v: Optional[float] = None
    theta: Optional[float] = None
    truncation_tail: float = 0.0

    @classmethod
    def from_raw(cls, raw: float, **kw) -> "BoundResult":
        return cls(raw_value=raw, probability=min(max(raw, 0.0), 1.0), **kw)


def _per_t(t, kernel, **fixed) -> BoundResult:
    """A bound's BoundResult over t, a float or a 1-D array of times (s).

    kernel maps a 1-D block of at most _T_BLOCK times to a dict of per-t
    arrays, raw_value among them; fixed holds the t-independent fields.  A
    float t gives a result of floats, an array t one of per-t arrays.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a float or a 1-D array, got shape {ts.shape}")
    flat = ts.reshape(-1)
    # an empty t still makes one (empty) block, so every field has its array
    blocks = [kernel(flat[i : i + _T_BLOCK]) for i in range(0, max(flat.size, 1), _T_BLOCK)]
    per_t = {k: np.concatenate([blk[k] for blk in blocks]) for k in blocks[0]}
    raw = per_t.pop("raw_value")
    probability = np.clip(raw, 0.0, 1.0)
    if ts.ndim == 0:
        raw, probability = float(raw[0]), float(probability[0])
        per_t = {k: float(v[0]) for k, v in per_t.items()}
    return BoundResult(raw_value=raw, probability=probability, **per_t, **fixed)


def _row_groups(widths: list) -> list:
    """Rows in runs of at most _BLOCK_TERMS terms (one row at least), each as wide as its widest row.

    Runs take the widest rows first, so the run that holds the widest row is
    as full as any: a call's peak memory does not depend on how many rows
    are narrower.
    """
    groups, wide = [], 0
    for i in sorted(range(len(widths)), key=lambda i: -widths[i]):
        if groups and (len(groups[-1]) + 1) * wide <= _BLOCK_TERMS:
            groups[-1].append(i)
        else:
            groups.append([i])
            wide = widths[i]
    return groups


def _exp_raw(log_raw: np.ndarray) -> np.ndarray:
    """e^x of each element of an array, inf from 700 on (and at nan)."""
    with np.errstate(over="ignore"):
        return np.where(log_raw < 700.0, np.exp(log_raw), np.inf)


def bracketed_root(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """A zero of f in [lo, hi] to within xtol, where f(lo) and f(hi) differ in sign.

    Regula falsi with the Illinois modification (Dowell and Jarratt 1971):
    when one end is kept twice in a row its function value is halved, so
    both ends close in superlinearly.  The first secant point that rounding
    puts on (or past) an end of (lo, hi) is replaced by the float next to
    that end, inside: the root is most often that close to it.  A later one
    is replaced by the midpoint.  Returns the end of the final bracket that
    moved last.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"f({lo}) and f({hi}) must differ in sign")
    x, kept, nudged = lo, 0, False  # kept: -1 if the last step kept hi, +1 if it kept lo
    while hi - lo > xtol:
        x, nudge = hi - f_hi * (hi - lo) / (f_hi - f_lo), False
        if not lo < x < hi:
            nudge = not nudged and x == x  # a nan x (infinite f at both ends) bisects
            x = (math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo)) if nudge else 0.5 * (lo + hi)
            if not lo < x < hi:  # no float strictly inside
                break
        nudged = nudge
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
            if kept == -1:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = x, fx
            if kept == 1:
                f_lo *= 0.5
            kept = 1
    return x


@dataclass(frozen=True)
class RaceSpec:
    """Renewal-vs-Poisson race window: head start mu, tail extension nu, advantage n, duration t.

    All times are in the renewal process's (normalized) time unit.
    """

    mu: float = 0.0
    nu: float = 0.0
    n: int = 0
    t: float = 1.0

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0 or self.n < 0:
            raise ValueError("mu, nu and n must be nonnegative")
        if not self.t > 0:
            raise ValueError(f"race duration must be positive, got {self.t}")


@dataclass(frozen=True)
class Mgf:
    """Moment generating function of a renewal time, with its convergence limit and mean.

    excess(u) is phi(u) - 1, vectorized and unchecked; near u = 0 it keeps
    the relative accuracy that 1 + excess(u) would lose.
    """

    excess: Callable[[np.ndarray], np.ndarray]
    roc_sup: float
    mean: float

    def eval(self, u: float | np.ndarray) -> float | np.ndarray:
        """phi(u) for a float or an array; ValueError at u >= roc_sup."""
        us = np.asarray(u, dtype=float)
        if (us >= self.roc_sup).any():
            raise ValueError(f"MGF argument {u} outside region of convergence (-inf, {self.roc_sup})")
        phi = 1.0 + self.excess(us)
        return float(phi) if phi.ndim == 0 else phi


# ---------------------------------------------------------------------------
# zero-delay theorems


def _require_minority(params: ProtocolParams):
    if params.beta >= params.alpha:
        raise InfeasibleParametersError(
            f"requires beta < alpha (got alpha={params.alpha}, beta={params.beta})"
        )


def zero_delay_upper(params: ProtocolParams, t: float | np.ndarray) -> BoundResult:
    """Achievable security level for the zero-delay race between two Poisson processes.

    (1 + sqrt(beta/alpha))^2 * exp(-(sqrt(alpha) - sqrt(beta))^2 t)
    """
    _require_minority(params)
    a, b = params.alpha, params.beta
    prefactor = (1.0 + math.sqrt(b / a)) ** 2
    rate = (math.sqrt(a) - math.sqrt(b)) ** 2
    return _per_t(t, lambda ts: {"raw_value": prefactor * _exp_raw(-rate * ts)})


def _zero_delay_orders(r: float, z: float = math.inf, cap: int = _TERMS_MAX) -> tuple[int, float]:
    """(K, rho): zero_delay_lower sums orders 0..K at z = 2 sqrt(mu1 mu2); rho bounds the term ratio past K.

    With w_k = r^k (1 + k (1 - r)), term k is skellam(k - 1) w_k, and for k >= 1
    term_{k+1} / term_k = sqrt(r) (I_k(z) / I_{k-1}(z)) (w_{k+1} / r w_k) < rho_k
    = sqrt(r) min(1, z / 2k) (1 + (1 - r) / (1 + k (1 - r))): I_k(z) < I_{k-1}(z),
    and I_{k-1} - I_{k+1} = (2k/z) I_k gives I_k / I_{k-1} < z / 2k.  rho_k falls
    with k, so past an order K with rho_K < 1 the terms sum to at most
    term_K rho_K / (1 - rho_K); and term_K is at most term_1 prod_{k<K} rho_k
    = term_1 r^{(K-1)/2} (1 + K (1 - r)) / (2 - r) prod_{z/2 < k < K} z / 2k.  K is
    the first order, at most cap, where that bound on the discarded terms is
    at most 2^-60 term_1, a share of the value.  The terms decay like sqrt(r),
    not r, once z / 2k nears 1; z = inf gives the order count of every z.
    """
    s = math.sqrt(r)
    k0 = math.floor(z / 2.0) + 1 if z < 2.0 * cap else cap  # the first k with z / 2k < 1

    def rho(k):
        return s * min(1.0, z / (2.0 * k)) * (1.0 + (1.0 - r) / (1.0 + k * (1.0 - r)))

    def enough(k):
        p = rho(k)
        if p == 0.0 or p >= 1.0:
            return p == 0.0
        log_bound = (
            0.5 * (k - 1) * math.log(r) + math.log1p(k * (1.0 - r)) - math.log(2.0 - r)
            + math.log(p) - math.log1p(-p)
        )
        if k > k0:  # prod_{k0 <= j < k} z / 2j
            log_bound -= (k - k0) * math.log(2.0 / z) + math.lgamma(k) - math.lgamma(k0)
        return log_bound <= _LOG_NEGLIGIBLE

    if not enough(cap):
        return cap, min(rho(cap), 1.0)
    lo, hi = 0, cap  # enough() holds from some k on: bisect for the first
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi, rho(hi)


def zero_delay_lower(params: ProtocolParams, t: float | np.ndarray) -> BoundResult:
    """Private-attack success with zero delay, over the paths with H - A >= -1 at t (unachievable level).

    sum_{k >= 0} skellam(k-1; alpha t, beta t) (beta/alpha)^k (1 + k (1 - beta/alpha)),
    with H and A the honest and adversarial block counts at t and order k
    the paths with H - A = k - 1.  The sum leaves out the paths where the
    adversary leads by two or more blocks at t, P(H - A <= -2), so it is
    below the attack's success probability: 8.24e-4 against 9.56e-4 at
    10%, 6/h, 2 h, and 0.706 against 0.896 at 45%, 6/h, 1 h.  Each t sums
    the orders 0..K_j that _zero_delay_orders sizes from
    r = beta/alpha and its own z = 2 t sqrt(alpha beta): the terms past K_j
    sum to at most 2^-60 of the value, and truncation_tail is their
    envelope term_K rho / (1 - rho).  Truncation discards nonnegative terms
    only, so the partial sum stays a valid unachievable level.  One
    skellam_pmf call per block of times takes every t's means as a column,
    over the block's most orders (a block holds at most _BLOCK_TERMS terms);
    each row sums its own orders.

    skellam_pmf's drift -(sqrt mu1 - sqrt mu2)^2 is exact for the means it is
    given, but a t and b t rounded to doubles move it: at large, nearly equal
    means (0.4999, 6/h, t = 1e12 s) by ~1e-11.  Every term of a row shares
    the drift, so each row is rescaled to the exact drift -t (sqrt a - sqrt b)^2.
    """
    _require_minority(params)
    a, b = params.alpha, params.beta
    if b == 0:
        return _per_t(t, lambda ts: {"raw_value": np.zeros(ts.size)})
    r = b / a
    cap, _ = _zero_delay_orders(r)
    drift_rate = ((a - b) / (math.sqrt(a) + math.sqrt(b))) ** 2  # (sqrt a - sqrt b)^2

    def kernel(ts):
        mu1, mu2 = a * ts, b * ts  # one Skellam row per t
        with np.errstate(over="ignore"):
            z = 2.0 * np.sqrt(mu1 * mu2)
        orders = [_zero_delay_orders(r, zj, cap) for zj in z.tolist()]
        tops, rhos = [k for k, _ in orders], [rho for _, rho in orders]
        raw, tail = np.empty(ts.size), np.empty(ts.size)
        for group in _row_groups([k + 1 for k in tops]):
            j = np.array(group)
            ks = np.arange(max(tops[i] for i in group) + 1)
            col = ts[j, None]
            x, y = a * col, b * col
            with np.errstate(all="ignore"):  # e^{exact drift - drift of the rounded means}
                fix = np.exp(((x - y) / (np.sqrt(x) + np.sqrt(y))) ** 2 - drift_rate * col)
            # t = 0 gives nan and a t whose terms are all 0.0 anyway may give inf: both keep 1
            fix = np.where(np.isfinite(fix), fix, 1.0)
            terms = skellam_pmf(ks - 1, x, y) * fix * geometric_sum_ccdf(ks, r)
            for i, row in zip(group, terms):
                raw[i] = row[: tops[i] + 1].sum()
                tail[i] = min(row[tops[i]] * (rhos[i] / (1.0 - rhos[i])), 1.0) if rhos[i] < 1 else 1.0
        return {"raw_value": raw, "truncation_tail": tail}

    return _per_t(t, kernel)


# ---------------------------------------------------------------------------
# delay-bound machinery (normalized units: one time unit = one delay bound)


def _g_norm(u, a):
    """Denominator polynomial-exponential g_a(u) = u^2 - a u - a u e^{u-a} + a^2 e^{2(u-a)}."""
    au, d = a * u, u - a
    return u * u - au - au * np.exp(d) + a * a * np.exp(2.0 * d)


def _smallest_root_norm(a: float) -> float:
    """Smallest positive zero u0 of g_a; it lies in (0, a).

    With x = u/a, s = 1 - x and E = e^{u-a} = e^{-a s}, g_a / a^2 = E^2 - x E - s x:
    a quadratic in E whose one positive root is E*(x) = (x + sqrt(x (4 - 3x))) / 2.
    So g_a = 0 on (0, a) exactly where L(x) = -ln E*(x) equals a s.  L is convex
    in s and 0 at s = 0, so L / s rises from 0 to infinity: the root is unique.

    bracketed_root solves L - a s = 0 for y = -ln x, which lies in [a/2, 3a].
    L takes a cancellation-free form on each side of x = 1/2, as _bd0 does:
    -log1p(-2 s^2 / (sqrt(x (4 - 3x)) + 2 - x)) near x = 1, and
    y/2 - ln((sqrt(x) + sqrt(4 - 3x)) / 2) near x = 0, where y - 2 a s is exact
    at large a.  u0 = a x is then read from E as the smaller root of the same
    quadratic in x, x = 2 E^2 / (1 + E + sqrt((1 - E)(1 + 3E))), which barely
    depends on y where x is small.
    """

    def residual(y):
        x, s = math.exp(-y), -math.expm1(-y)
        if x > 0.5:
            return -math.log1p(-2.0 * s * s / (math.sqrt(x * (4.0 - 3.0 * x)) + 2.0 - x)) - a * s
        return 0.5 * (y - 2.0 * a * s) - math.log(0.5 * (math.sqrt(x) + math.sqrt(4.0 - 3.0 * x)))

    s = -math.expm1(-bracketed_root(residual, 0.5 * a, 3.0 * a, 0.0))
    e, m = math.exp(-a * s), -math.expm1(-a * s)
    return 2.0 * a * e * e / (1.0 + e + math.sqrt(m * (1.0 + 3.0 * e)))


def _zeta_norm(u, a):
    """phi(u) - 1 = (a u - u^2) / g_a(u) for the inter-double-lagger MGF in normalized units.

    g_a's terms add in _g_norm's order, but the numerator shares its a u and
    u^2, and temporaries are updated in place.  Unchecked: _race_log_terms
    evaluates it at every u, admissible or not, and masks afterwards.
    """
    au, uu, d = a * u, u * u, u - a
    g = uu - au
    e = np.exp(d)
    e *= au
    g -= e
    d *= 2.0
    e = np.exp(d)
    e *= a * a
    g += e
    au -= uu
    au /= g
    return au


def double_lagger_mgf(alpha_norm: float) -> Mgf:
    """MGF of the inter-double-lagger time at normalized honest rate alpha_norm.

    phi(u) = 1 + (a u - u^2) / g_a(u), convergent on (-inf, u0) where u0 is
    the smallest positive zero of g_a; mean e^{2a} / a.
    """
    if not alpha_norm > 0:
        raise ValueError(f"normalized rate must be positive, got {alpha_norm}")
    a = alpha_norm
    return Mgf(
        excess=lambda u: _zeta_norm(u, a), roc_sup=_smallest_root_norm(a), mean=math.exp(2.0 * a) / a
    )


def _race_log_terms(mgf: Mgf, beta: float, spec: RaceSpec, u):
    """(log of the t-free factor, psi) of the race bound per u; nan where u is inadmissible.

    The factor is e^{z beta (mu+nu)} (1+z)^{n+1} L^2 with z = phi(u) - 1,
    z' = phi(beta z) - 1 and L = z (1 - beta m)(1 + z') / (z - z'), m the
    mean renewal time; psi = u - beta z.  Written in z and z' so no two
    numbers near 1 are subtracted as u -> 0.  At beta = 0, z' = 0 and L = 1.
    z and z' are computed at every u, admissible or not, and the
    admissibility mask (0 < u < u0, z > 0, beta z < u0, z' < z, L > 0) is
    applied once, at the end.  Each point's value depends on that point
    alone, so evaluating fewer points (as _pass_terms does for rows that
    take an earlier pass) changes no value.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        z = mgf.excess(u)
        w = beta * z
        zw = mgf.excess(w)
        ok = (u > 0) & (u < mgf.roc_sup) & (z > 0) & (w < mgf.roc_sup) & (zw < z)
        lap = z * (1.0 - beta * mgf.mean)
        lap *= 1.0 + zw
        lap /= z - zw
        ok &= lap > 0
        log_c = w * (spec.mu + spec.nu)
        term = np.log1p(z)
        term *= spec.n + 1
        log_c += term
        term = np.log(lap)
        term *= 2.0
        log_c += term
        return np.where(ok, log_c, np.nan), np.where(ok, u - w, np.nan)


def renewal_race_bound(
    mgf: Mgf, beta: float, spec: RaceSpec, u: float | np.ndarray
) -> BoundResult:
    """Chernoff bound on a renewal process losing a race against a Poisson process.

    exp((phi(u)-1) beta (mu+nu)) phi(u)^{n+1} L^2(phi(u)) exp(-psi(u) t)
    with psi(u) = u + beta - beta phi(u) and L the transform of the maximum
    post-window deficit.  All quantities in the renewal time unit.  u is a
    float or an array; every u must be admissible, else ValueError.
    """
    if beta < 0:
        raise ValueError(f"Poisson rate must be nonnegative, got {beta}")
    us = np.asarray(u, dtype=float)
    log_c, psi = _race_log_terms(mgf, beta, spec, us)
    if np.isnan(log_c).any():
        raise ValueError(f"u must lie in the admissible part of (0, {mgf.roc_sup}), got {u}")
    raw = _exp_raw((log_c - psi * spec.t).reshape(-1)).reshape(us.shape)
    if us.ndim == 0:
        return BoundResult.from_raw(float(raw), optimizer_v=float(us))
    return BoundResult(raw_value=raw, probability=np.clip(raw, 0.0, 1.0), optimizer_v=us)


# The delay-bound theorem's race in normalized units: head start and tail
# extension of one delay bound each, advantage one block.
_DELAY_SPEC = RaceSpec(mu=1.0, nu=1.0, n=1)


# Smallest normalized honest rate alpha*delta the race kernel resolves.  Above it,
# u0 ~ alpha*delta and every equal cell's point u >= u0 / 512 has a normal square; below
# it, u^2 and a^2 in g_a sink into subnormals and lose their digits (at 10%, 6/h
# and delta = 1e-158 s, delay_upper(6408 s) read 4.99e-4 where its limit is 0.124).
_ALPHA_DELTA_MIN = 2.0**-500


def _delay_norm(params: ProtocolParams):
    """(double-lagger MGF, normalized adversarial rate b, delay bound d) of a feasible delay model.

    Times normalize by d: delta itself, or, where alpha delta is below
    _ALPHA_DELTA_MIN, the delay bound at that floor, d = _ALPHA_DELTA_MIN /
    alpha.  A bound at d >= delta is valid for the model at delta: delay
    bound d admits every adversary that delta admits.  The bound has long
    reached its delta -> 0 limit there (at 10%, 6/h its values agree to
    ~3e-16 from alpha delta = 1.5e-53 down to the floor), so the floor
    loses nothing.
    """
    if params.delta <= 0:
        raise ValueError("delay-bound theorems require delta > 0; use the zero-delay forms")
    a, b = params.alpha, params.beta
    d = max(params.delta, _ALPHA_DELTA_MIN / a)
    if b >= a * math.exp(-2.0 * a * d):
        raise InfeasibleParametersError(
            "requires beta < alpha * exp(-2 alpha delta) "
            f"(beta={b}, alpha*exp(-2 alpha delta)={a * math.exp(-2.0 * a * d)})"
        )
    try:
        return double_lagger_mgf(a * d), b * d, d
    except OverflowError:  # from the mean renewal time e^{2 alpha delta} / (alpha delta)
        raise InfeasibleParametersError(
            f"alpha * delta = {a * d} is too large: the mean renewal time e^(2 alpha delta) overflows"
        ) from None


def _nan_argmin(vals):
    """np.nanargmin's index along the last axis, 0 where all is nan."""
    return np.argmin(np.where(np.isnan(vals), np.inf, vals), axis=-1)


def _pick(vals, i):
    """Each row's value at its index in i, where i has vals's shape but 1 along the last axis."""
    flat = vals.reshape(-1, vals.shape[-1])
    return flat[np.arange(flat.shape[0]), i.reshape(-1)].reshape(i.shape)


# The coarse points over (0, u0), as fractions of u0: first _EDGE_POINTS geometric
# ones, 2^-63 .. 2^-10, below the first equal cell (near the feasibility edge every
# admissible u lies there), then the interior points of _GRID_CELLS equal cells.
_EDGE_POINTS = 54
_COARSE = np.concatenate([0.5 ** np.arange(63, 9, -1), np.arange(1, _GRID_CELLS) / _GRID_CELLS])
_ON_EDGE = np.arange(_COARSE.size) < _EDGE_POINTS

# The refinement pass's points, in spacings either side of the incumbent.
_PASS = np.arange(-_REFINE, _REFINE + 1) / _REFINE

_NO_ADMISSIBLE_POINT = "no admissible point for the Chernoff-rate optimization"


def _coarse_min(hi, vals):
    """(u, spacing) of each row's coarse minimum, from its values vals at the points hi _COARSE.

    The minimum is over the equal cells' points, or, in a row where none of
    those is admissible, over the edge points: a minimum over all of them
    would read 1 - ulp at a vacuous time, whose infimum is the u -> 0 limit.
    The row's refinement pass spacing is min(u, hi / _GRID_CELLS): one cell
    on the equal cells, u itself on the edge points.  Both are nan where no
    coarse point is admissible.
    """
    nan = np.isnan(vals)
    skip = nan | (_ON_EDGE & ~nan[..., _EDGE_POINTS:].all(axis=-1, keepdims=True))
    i = np.argmin(np.where(skip, np.inf, vals), axis=-1)[..., None]
    u = np.where(skip.all(axis=-1, keepdims=True), np.nan, hi * _COARSE[i])
    return u, np.minimum(u, hi / _GRID_CELLS)


def _vertex(vals, i, val, u, spacing):
    """(vertex, predicted value) of the parabola through each row's minimum and its two neighbours.

    One step of successive parabolic interpolation (Brent 1973, ch. 5).
    vals holds each row's values at points spacing apart along its last
    axis; i (with a last axis of 1) indexes the row's minimum, val is the
    value there and u the point.  Where both neighbours are admissible and
    the parabola is convex, the vertex lies within half a spacing of u;
    elsewhere, and at a minimum on either end, the vertex is u itself and
    the prediction nan.
    """
    k = np.minimum(np.maximum(i, 1), vals.shape[-1] - 2)  # an end minimum gets no vertex
    below, above = _pick(vals, k - 1), _pick(vals, k + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        curv, slope = below - 2.0 * val + above, below - above
        fit = (k == i) & (curv > 0)  # nan (an inadmissible neighbour) compares false
        return (
            np.where(fit, u + (0.5 * spacing) * slope / curv, u),
            np.where(fit, val - 0.125 * slope * slope / curv, np.nan),
        )


def _pass_min(vals, u, step):
    """(point, value, vertex, predicted value) of each row's pass minimum, from its pass values vals.

    u and step (last axis 1) are the row's pass centre and spacing; the
    vertex and its prediction are _vertex's.
    """
    i = _nan_argmin(vals)[..., None]
    u, val = u + step * _PASS[i], _pick(vals, i)
    return (u, val, *_vertex(vals, i, val, u, step / _REFINE))


def _pass_terms(mgf: Mgf, b, u, step, prior=None):
    """The race's (log c^2, psi) at each row's pass points u + step _PASS.

    u and step are _coarse_min's (last axis 1), with rows along the axis
    before it and model columns (if any) before that.  prior, if given, is
    (u', log c^2, psi) of passes already evaluated, one per row, each
    centred on a coarse minimum at its own spacing: a row whose u equals u'
    in every model takes those terms (equal points have equal spacings), and
    only the other rows are evaluated, with no call where none is left.
    """
    if prior is not None:
        reuse = (u == prior[0])[..., 0]
        reuse = reuse.all(axis=tuple(range(reuse.ndim - 1)))
        if reuse.all():
            return prior[1:]
        need = ~reuse
        own = _pass_terms(mgf, b, u[..., need, :], np.broadcast_to(step, u.shape)[..., need, :])
        rows = np.maximum(np.cumsum(need) - 1, 0)  # each evaluated row's place among them
        reuse = reuse[:, None]
        return tuple(np.where(reuse, x, y.take(rows, axis=-2)) for x, y in zip(prior[1:], own))
    return _race_log_terms(mgf, b, _DELAY_SPEC, u + step * _PASS)


def _grid_minimize(mgf: Mgf, b, coarse, objective, prior=None):
    """Minimize the delay race's objective over (0, u0) row by row; returns (u, value) per row.

    The model is one delay race (mgf a double-lagger MGF, b a float) or
    several, as columns of shape (models, 1, 1) in mgf's excess, roc_sup and
    mean and in b; coarse is _delay_coarse(mgf, b), one row per model.
    objective maps the race's (log c^2, psi) at points of shape (..., n) to
    values of shape (rows..., n), nan at inadmissible points; the result has
    shape (rows...).  _coarse_min finds each row's basin on the coarse
    points, the edge points among them where no equal cell's point is
    admissible (near the feasibility edge, where every admissible u lies
    below u0 / 512); a row's u and value are nan where no coarse point is
    admissible.  One refinement pass then evaluates 2 _REFINE + 1 points
    across one spacing either side of the row's incumbent, which is its
    middle point, so no row's best value worsens.  prior, if given, holds
    passes already evaluated, one per row (_delay_crossings' passes): a row
    whose incumbent is that pass's centre takes its terms (_pass_terms), so
    where every row's does the pass makes no race-kernel call.
    Last, _vertex fits a parabola to the pass minimum and its two
    neighbours, and its vertex replaces the pass minimum only if its value
    is lower.  Every step is elementwise per row, and the model columns
    broadcast, so a row's result does not depend on the other rows or models.
    """
    u, step = _coarse_min(mgf.roc_sup, objective(*coarse))
    u, val, u_fit, _ = _pass_min(objective(*_pass_terms(mgf, b, u, step, prior)), u, step)
    val_fit = objective(*_race_log_terms(mgf, b, _DELAY_SPEC, u_fit))
    better = val_fit < val
    return np.where(better, u_fit, u)[..., 0], np.where(better, val_fit, val)[..., 0]


def _delay_coarse(mgf: Mgf, b):
    """(log c^2, psi) of the delay race at the coarse points u0 _COARSE: one row per model, shared by its rows."""
    return _race_log_terms(mgf, b, _DELAY_SPEC, np.atleast_2d(mgf.roc_sup * _COARSE))


def _delay_upper_rows(mgf: Mgf, b, d, coarse, ts: np.ndarray, prior=None):
    """delay_upper's kernel: (raw value, optimizer v per second) at each time in ts (s).

    Each time is one row of the minimization; coarse is _delay_coarse(mgf, b).
    For models as columns, ts has one row per model and d is a (models, 1)
    column; the results have ts's shape, nan where no u is admissible.
    """
    tau = (ts / d)[..., None]
    u_best, log_obj = _grid_minimize(mgf, b, coarse, lambda log_c2, psi: log_c2 - psi * tau, prior)
    return _exp_raw(log_obj), u_best / d


def delay_upper(params: ProtocolParams, t: float | np.ndarray) -> BoundResult:
    """Achievable security level with propagation delay (minimized over the Chernoff rate).

    t is a float or a 1-D array of times (s); log c^2 and psi at the coarse
    points are shared by every t, and each t is one row of the minimization.
    """
    mgf, b, d = _delay_norm(params)
    coarse = _delay_coarse(mgf, b)

    def kernel(ts):
        raw, v = _delay_upper_rows(mgf, b, d, coarse, ts)
        if np.isnan(v).any():
            raise BracketError(_NO_ADMISSIBLE_POINT)
        return {"raw_value": raw, "optimizer_v": v}

    return _per_t(t, kernel, theta=mgf.roc_sup / d)


def delay_upper_universal(params: ProtocolParams, t: float | np.ndarray) -> BoundResult:
    """Weaker t-independent-exponent variant: evaluates at the u maximizing psi(u).

    As beta -> 0+ the maximizer of psi = u - beta z nears the root u0, where
    c^2 diverges, so the value grows like 1/beta.  Once the maximizer is
    within one refinement spacing (u0 / 65536) of u0, as at beta = 0 where
    psi = u and the pass's last admissible point wins, that spacing sets the
    value.  It stays at or above delay_upper there: valid, but loose.
    """
    mgf, b, d = _delay_norm(params)
    u_best, _ = _grid_minimize(mgf, b, _delay_coarse(mgf, b), lambda _, psi: -psi)
    if np.isnan(u_best).any():
        raise BracketError(_NO_ADMISSIBLE_POINT)
    log_c2, psi = _race_log_terms(mgf, b, _DELAY_SPEC, u_best)
    return _per_t(
        t,
        lambda ts: {"raw_value": _exp_raw(log_c2[0] - psi[0] * (ts / d))},
        optimizer_v=float(u_best[0]) / d,
        theta=mgf.roc_sup / d,
    )


def _delay_crossings(mgf: Mgf, b, coarse, log_eps: np.ndarray, passes=None) -> np.ndarray:
    """Normalized real crossing min_u (log c^2(u) - log eps) / psi(u) of each level, one row each.

    delay_upper(t) <= eps iff log c^2(u) - psi(u) t/delta <= log eps for some
    u, i.e. iff t/delta is at least that ratio at some u with psi(u) > 0.
    Each row takes _coarse_min's incumbent on the coarse terms, edge points
    included, and one race-kernel call evaluates the 2 _REFINE + 1 points of
    every row's pass around it: the pass _grid_minimize makes for a row
    whose incumbent is that point.  The crossing is the lower of that pass's
    minimum and _vertex's predicted value there, nan where no coarse point
    is admissible.  It only picks the whole second where invert_latency
    starts to confirm with delay_upper's own values, and a list given as
    passes receives (u, log c^2, psi) of the passes, u each row's coarse
    minimum, which those confirmations, at the same coarse minimum, take.
    The result has the rows' shape broadcast against the model columns:
    one row of levels per model.
    """
    log_eps = log_eps[:, None]

    def objective(log_c2, psi):
        return (log_c2 - log_eps) / np.where(psi > 0, psi, np.nan)

    u, step = _coarse_min(mgf.roc_sup, objective(*coarse))
    terms = _pass_terms(mgf, b, u, step)
    if passes is not None:
        passes.extend((u, *terms))
    _, val, _, predicted = _pass_min(objective(*terms), u, step)
    return np.fmin(val, predicted)[..., 0]


# ---------------------------------------------------------------------------
# private-attack lower bound with delay


def _gain_norm(params: ProtocolParams) -> tuple[float, float]:
    """Normalized rates (a, b) = (alpha delta, beta delta) of a model whose gain transform is proper."""
    if params.delta <= 0:
        raise ValueError("post-mining gain pmf requires delta > 0")
    a = params.alpha * params.delta
    b = params.beta * params.delta
    if a - b - a * b <= 0:
        raise InfeasibleParametersError(
            f"requires alpha - beta - alpha*beta*delta > 0 (normalized a-b-ab={a - b - a * b})"
        )
    return a, b


def postmine_gain_pmf(params: ProtocolParams, n_max: int = 128) -> np.ndarray:
    """pmf q(0..n_max) of the attacker's post-mining gain against the jumper chain.

    Extracted as Taylor coefficients of the deficit transform
    xi(rho) = (1-rho)(a-b-ab) / (a - e^{(1-rho)b} (a+b-b rho) rho)
    in normalized units a = alpha*delta, b = beta*delta.  The division
    always runs to at least the divisor's whole support, series_div's block,
    so q(0..n_max) is the same, bit for bit, as the first n_max + 1 terms of
    any longer call.
    """
    a, b = _gain_norm(params)
    size = n_max + 2  # coefficients of rho^0 .. rho^{n_max+1}
    # e^{(1-rho) b} = e^b sum_n (-b)^n / n! past its support: b < 1 (feasibility), and
    # e / n! underflows to 0.0 from n = 178 on
    expo = np.cumprod(np.concatenate([[math.exp(b)], -b / np.arange(1, max(size, 180))]))
    den = -np.convolve(expo, [0.0, a + b, -b])  # -(a+b-b rho) rho e^{(1-rho) b}
    den[0] += a
    # den(1) = 0 cancels the numerator's 1 - rho: xi = (a-b-ab) / h with h = den / (1 - rho),
    # h_n = -sum_{j>n} den_j.  Dividing by den itself turns its roundoff into a pole at
    # rho = 1, an error of ~1e-16 that every coefficient keeps.
    h = -np.cumsum(den[:0:-1])[::-1]
    h = h[: max(size, np.flatnonzero(h)[-1] + 1)]
    unit = np.zeros(h.size)
    unit[0] = 1.0
    xi = (a - b - a * b) * series_div(unit, h)
    return np.concatenate([[xi[0] + xi[1]], xi[2:size]])


def _geometric_poisson(pois: np.ndarray, r: float) -> np.ndarray:
    """Each row of pois convolved with the geometric pmf (1-r) r^k, cut to pois's length.

    The convolution is the recurrence pk[k] = r pk[k-1] + (1-r) pois[k], run
    as a doubling scan: after the pass of stride s, pk[k] sums the terms of
    lag < 2s, so ceil(log2(length)) elementwise passes finish it.  Every term
    is nonnegative, so nothing cancels, and each row's arithmetic is the same
    whatever the number of rows.
    """
    pk = (1.0 - r) * pois
    s = 1
    while s < pk.shape[-1]:
        pk[..., s:] += r**s * pk[..., :-s]
        s *= 2
    return pk


def _gain_exponent(b: float, y, w):
    """F(y) = ln(1 + y) - w - b y at w = -ln(1 - r y), r = b/a, in normalized units.

    The deficit transform's denominator den(rho) = a - e^{(1-rho)b} (a+b-b rho) rho
    is -a expm1(F(y)) at rho = 1 + y, so xi(1 + y) = (a-b-ab) y / (a expm1(F(y))):
    no two numbers near 1 are subtracted, however close rho is to 1.
    """
    return np.log1p(y) - w - b * y


def _gain_pole(a: float, b: float) -> float:
    """y0 = rho0 - 1, rho0 > 1 the pole of the deficit transform xi nearest 1; inf at b = 0.

    F (_gain_exponent) is concave, F(0) = 0 and F'(0) = (a-b-ab)/a > 0, so F(y)/y
    falls from F'(0) to -inf on (0, 1/r) and y0 is its one zero.  bracketed_root
    solves F/y = 0 for w = -ln(1 - r y), in which F stays finite, between ends
    whose signs are proven: log1p's Taylor bounds give F >= y (F'(0) - y (1/2 + r^2))
    for r y <= 1/2, which is at least F'(0) y / 2 > 0 at y = min(1/(2r), F'(0)/(1 + 2r^2));
    and at w = ln(1 + 1/r), F = ln((1 + r + r^2)/(1 + r)^2) - b y < 0.  A share
    whose 1/r overflows (beta below ~1e-308 alpha) has no such end, and is
    refused with InfeasibleParametersError.
    """
    if b == 0:
        return math.inf
    r = b / a
    if r == 0.0 or math.isinf(1.0 / r):
        raise InfeasibleParametersError(f"adversarial share too small: alpha/beta overflows (beta/alpha = {r})")
    slope = (a - b - a * b) / a

    def y_of(w):
        return -math.expm1(-w) / r

    def residual(w):
        y = y_of(w)
        return float(_gain_exponent(b, y, w)) / y

    lo = -math.log1p(-r * min(0.5 / r, slope / (1.0 + 2.0 * r * r)))
    return y_of(bracketed_root(residual, lo, math.log1p(1.0 / r), 0.0))


def _gain_log_pgf(a: float, b: float, y: np.ndarray) -> np.ndarray:
    """log Q(1 + y) of the post-mining gain pmf q at each y in (0, y0); nan elsewhere.

    q(0) = xi_0 + xi_1 and q(n) = xi_{n+1}, so with z = 1 + y,
    Q(z) = xi_0 + (xi(z) - xi_0) / z = (xi_0 y + xi(z)) / (1 + y), xi_0 = (a-b-ab)/a:
    two positive terms where F(y) > 0 (_gain_exponent), which is exactly (0, y0).
    """
    c = (a - b - a * b) / a
    with np.errstate(all="ignore"):
        f = _gain_exponent(b, y, -np.log1p(-(b / a) * y))
        xi = c * y / np.expm1(f)
        return np.where(f > 0.0, np.log(c * y + xi) - np.log1p(y), np.nan)


# Points of (0, 1), as fractions of a, where _lower_chernoff's bound is taken: a
# uniform grid, and a geometric approach to 0, where z - 1 ~ u (1 + 1/a) stays below
# y0 as the gain pmf's pole nears 1.
_CHERNOFF_GRID = np.concatenate([0.5 ** np.arange(60, 7, -1), np.arange(1, _REFINE) / _REFINE])


# Points of (0, 1), as fractions of the largest admissible y, where _lower_chernoff's
# count bound is taken: half-octave steps down to 2^-16 (the best y, ~sqrt(84 / lam),
# is above 0.025 for every Poisson mean lam below _TERMS_MAX), and octave steps up to
# 1 - 2^-20, where the best y nears the pole for counts far past lam, and for q's own
# tail past n (about y0 / n from the pole).  A point off the best y only moves a cut
# up by a few counts.
_COUNT_GRID = np.concatenate([2.0 ** (-np.arange(32, 2, -1) / 2.0), 1.0 - 0.5 ** np.arange(1, 21)])


def _lower_chernoff(a: float, b: float, y0: float):
    """The Chernoff bounds delay_lower sizes its sums by (normalized units, b > 0), from one log pgf.

    delay_lower's value is P(S_M > t) with S_M = sum_{i<=M} (X_i + delta), X_i
    Exponential(alpha) and M = N + L + A independent of them (N ~ q, L
    geometric(r), A ~ Poisson(lam), lam = beta t), so E z^M = e^{log g(z)} e^{lam (z - 1)},
    with g(z) = E z^(N + L) = Q(z) (1 - r) / (1 - r z), finite for z = 1 + y with
    y in (0, y0) and r z < 1.

    - The value, as (log c, s) per admissible u: delay_lower(t) <= e^{log c + s t/delta}.
      Chernoff at theta = u / delta, with z = E e^{theta (X + delta)} = e^u a / (a - u):
      P(S_M > t) <= e^{-u t/delta} E z^M, for u in (0, a) with
      z - 1 = (a expm1(u) + u) / (a - u).
    - The count, as (log g, log Q, log z, y) per admissible point of _COUNT_GRID:
      P(M > m) <= E z^M z^{-(m + 1)} = e^{log g + lam y - (m + 1) log z}, and
      q's own tail P(N >= n) <= Q(z) z^{-n} = e^{log Q - n log z}.
    """
    r = b / a
    u = a * _CHERNOFF_GRID
    y = np.concatenate([(a * np.expm1(u) + u) / (a - u), min(y0, (1.0 - r) / r) * _COUNT_GRID])
    with np.errstate(all="ignore"):
        log_q = _gain_log_pgf(a, b, y)
        log_g = log_q + math.log1p(-r) - np.log1p(-r * (1.0 + y))
    ok = np.isfinite(log_g) & (y < y0)
    value, count = ok[: u.size], ok[u.size :]
    y_count = y[u.size :][count]
    return (
        (log_g[: u.size][value], (b * y[: u.size] - u)[value]),
        (log_g[u.size :][count], log_q[u.size :][count], np.log1p(y_count), y_count),
    )


# log 2^-60: a share of a value this small leaves it unchanged in float64 (an upper
# Poisson tail below it leaves its complement 1.0).
_LOG_NEGLIGIBLE = -60.0 * math.log(2.0)

# log 2^-1074, the smallest positive double: a value below it reads 0.0.
_LOG_TINY = -1074.0 * math.log(2.0)

# log 2^-1134: a mass below it is below 2^-60 of any value a double holds.
_LOG_LOWER = _LOG_TINY + _LOG_NEGLIGIBLE


def _erlang_cuts(lam: np.ndarray) -> np.ndarray:
    """Per mean in the 1-D array lam: the shape c_j past which every Erlang ccdf is 1.0.

    For m > lam, P(Poisson(lam) >= m) <= e^{m - lam - m ln(m/lam)} (Chernoff),
    an exponent that falls as m grows and rises with lam; c_j + 1 is the
    first m > lam where it is at most _LOG_NEGLIGIBLE, which bounds the tail
    at every mean up to lam.  Bernstein's form of the bound reaches it by
    lam + sqrt(2 lam L) + 2L/3, L = -_LOG_NEGLIGIBLE, so the search spans
    that many shapes; 0 at lam = 0.
    """
    span = math.ceil(math.sqrt(-2.0 * lam.max(initial=0.0) * _LOG_NEGLIGIBLE) - _LOG_NEGLIGIBLE) + 2
    m = np.floor(lam)[:, None] + np.arange(1, span + 1)
    with np.errstate(all="ignore"):  # lam = 0 or subnormal: m / lam is inf, the exponent -inf
        past = m - lam[:, None] - m * np.log(m / lam[:, None]) <= _LOG_NEGLIGIBLE
    return np.floor(lam).astype(int) + np.argmax(past, axis=1)


# The Chernoff bound U_j on a row's value (_lower_chernoff) times 2^-16 is the row's
# floor F_j, which sizes its cuts: the counts past M_j, at most 2^-61 F_j; the shapes
# below lo_j and the gain terms past n_j, at most 2^-63 F_j each; together 3/4 of
# 2^-60 F_j.
_LOG_FLOOR_SHARE = -16.0 * math.log(2.0)
_LOG_COUNT_SHARE = -61.0 * math.log(2.0)
_LOG_TERM_SHARE = -63.0 * math.log(2.0)


def delay_lower(params: ProtocolParams, t: float | np.ndarray) -> BoundResult:
    """Success probability of the delay-manipulating private attack (unachievable level).

    sum_{n,k, n+k>0} q(n) P(A_{0,t}+L = k) ErlangCCDF(t-(n+k)delta; n+k, alpha),
    with P(A_{0,t}+L = k) = pk(k) evaluated as the geometric-Poisson
    convolution so no e^{(alpha-beta)t} factor is ever formed.  Partial sums
    remain valid unachievable levels.  t is a float or a 1-D array of times
    (s).  The value is sum_m P(M = m) C_m(t), with M = N + L + A the count
    (N ~ q, L geometric(r), A ~ Poisson(beta t)) and C_m the Erlang ccdf of
    shape m.  Every sum is sized to its own row's value, from the model and
    from each row's own t, so array calls equal one-t calls bit for bit:

    - F_j = 2^-16 U_j, U_j the Chernoff bound on the row's whole value
      (_lower_chernoff), sizes the row's cuts.  The count cut M_j is the
      first count where the Chernoff bound on P(M > M_j) falls to
      2^-61 F_j.  The shapes whose ccdf a Chernoff bound puts at most
      2^-63 F_j (those below lo_j) are left out, and so are the gain terms
      past n_j, the first n where q's Chernoff tail Q(z) z^-n, on the same
      count grid, is at most 2^-63 F_j.  Each share is at least 2^-1134,
      below 2^-60 of any value a double holds.
    - q(0..M_j) is all of q a row takes: since N <= M, q's mass past M_j is
      inside the count tail.  A call computes q once, as far as its rows
      reach, and anew only when a later block of times reaches further;
      postmine_gain_pmf's q is a bit-exact prefix of any longer one.
    - Each row j has its Chernoff cut c_j (_erlang_cuts at alpha t_j): past
      it P(Poisson(alpha(t_j - m delta)) >= m) < 2^-60, so every ccdf is 1.0
      in floating point.  The shapes lo_j..min(M_j, c_j) take the ccdf; where
      M_j > c_j the shapes past c_j add sum_{n <= M_j} q(n) T_j[c_j + 1 - n],
      T_j the reverse cumulative sum of pk_j over 0..M_j.
    - Certificate: what is left out must be at most 2^-60 of the row's own
      partial sum, itself a lower bound on the value.  F_j is not proven to
      lie below the value, so this check is the guarantee: a row whose
      certificate fails is redone once, from that sum as its F_j.
    - U_j also spares the rows it shows to be below the smallest double,
      and the rows whose ranges would pass _TERMS_MAX: they read 0 with
      truncation_tail U_j.

    A run of rows (_row_groups) shares one doubling scan for its pk and one
    erlang_ccdf_vec call over the live shapes of all its rows; each row's
    head convolution and dot use its own ranges.

    The value need not fall as t grows.  Over [0, delta] it rises (alpha
    delta = 0.5, delta = 300 s, 10%: 0.1299 at 0 s, 0.1770 at 300 s), and
    past delta it can rise while a shape's delay m delta is still ahead of
    t (1%, 600/h, delta = 60 s near t = 88 s): the adversary's count grows
    with t while those shapes' ccdfs stay 1.

    truncation_tail bounds the terms left out: the count tail past M_j, the
    low shapes' ccdf bound, and q's Chernoff tail past n_j.  In every row it
    sums, the certificate keeps it within 2^-60 of the value.

    A share whose 1/r overflows (beta below ~1e-308 alpha) is refused with
    InfeasibleParametersError (_gain_pole), not taken to its beta -> 0 limit.
    """
    _require_minority(params)
    a, b = _gain_norm(params)
    if b == 0:  # M = 0: no shape m >= 1 has mass
        return _per_t(t, lambda ts: {"raw_value": np.zeros(ts.size), "truncation_tail": np.zeros(ts.size)})
    delta, r = params.delta, b / a
    (log_c, slope), (log_g, log_q, log_z, y) = _lower_chernoff(a, b, _gain_pole(a, b))
    held = np.zeros(0)  # q(0..) as far as any row has reached

    def gain(m):
        """q(0..m) at least; q is computed anew only when a row reaches past the terms held."""
        nonlocal held
        if held.size <= m:
            held = postmine_gain_pmf(params, m)
            if held.min() < -1e-9:
                raise InfeasibleParametersError(
                    "post-mining gain transform produced materially negative pmf values"
                )
        return held

    def cut(log_pgf, target, least):
        """Per row, the first e >= least where a Chernoff bound e^{log_pgf - e log z} is at most e^{target_j}.

        Returns e (at most _TERMS_MAX + 1) and the log of the bound there,
        each the best over the count grid's z.
        """
        e = np.clip(np.min(np.ceil((log_pgf - target[:, None]) / log_z), axis=1), least, _TERMS_MAX + 1.0)
        return e.astype(int), np.min(log_pgf - e[:, None] * log_z, axis=1)

    def rows_of(ts, m_cut, c, log_floor):
        """(raw value, mass of the left-out low shapes and gain terms) per row: cuts M_j, c_j, floors F_j."""
        q = gain(m_cut.max())
        top = np.minimum(m_cut, c)  # the last shape whose ccdf a row takes
        log_drop = np.maximum(log_floor + _LOG_TERM_SHARE, _LOG_LOWER)
        n_cut, log_q_tail = cut(log_q, log_drop, 1.0)
        # counts down axis 0, one column per row: the doubling scan's passes run on
        # contiguous memory; each row is then copied out contiguous for its own sums
        log_pois = log_poisson_pmf_vec(np.arange(m_cut.max() + 1)[:, None], params.beta * ts)
        pois = np.zeros(log_pois.shape)
        np.exp(log_pois, out=pois, where=log_pois > -746.0)  # exp is 0.0 below, by a slow path
        pk = np.ascontiguousarray(_geometric_poisson(pois.T, r))
        shapes = np.arange(1, top.max() + 1)
        x = ts[:, None] - shapes * delta
        mine = shapes <= top[:, None]
        low, low_mass = np.zeros(x.shape, dtype=bool), 0.0
        # log P(Poisson(mu) <= k) <= k - mu - k ln(k/mu) for k < mu, which rises with the
        # shape m = k + 1: the low shapes are a prefix of each row, and none where shape 1,
        # log ccdf = -mu_1, is above the cut
        if (-params.alpha * np.maximum(ts - delta, 0.0) <= log_drop).any():
            mu, k = params.alpha * np.maximum(x, 0.0), shapes - 1
            with np.errstate(all="ignore"):
                log_ccdf = np.where(k < mu, k - mu - np.where(k > 0, k * np.log(k / mu), 0.0), 0.0)
            low = mine & (log_ccdf <= log_drop[:, None])
            low_mass = np.exp(np.max(np.where(low, log_ccdf, -np.inf), axis=1, initial=-np.inf))
        live = mine & ~low
        ccdf = np.zeros(x.shape)
        ccdf[live] = erlang_ccdf_vec(x[live], np.broadcast_to(shapes, x.shape)[live], params.alpha)
        los = 1 + np.sum(low, axis=1)
        raw = np.empty(ts.size)
        per_row = zip(m_cut.tolist(), c.tolist(), top.tolist(), los.tolist(), n_cut.tolist())
        for i, (mj, cj, tj, lo, nj) in enumerate(per_row):
            # s[m] = sum_{n+k=m, n < n_j} q(n) pk(k) for m = lo..top_j, complete from k = lo - size on
            size = min(nj, tj + 1)
            start = max(0, lo - size)
            head = np.correlate(pk[i, start : tj + 1], q[:size][::-1], "full")
            raw[i] = head[lo - start : tj + 1 - start].dot(ccdf[i, lo - 1 : tj])
            if mj > cj:  # the shapes past c_j, whose ccdfs are 1.0: sum_{n <= M_j} q(n) tails[c_j + 1 - n]
                tails = np.cumsum(pk[i, mj::-1])[::-1]  # tails[k] = sum_{k <= i <= M_j} pk(i)
                raw[i] += np.dot(q[: cj + 2], tails[: cj + 2][::-1]) + tails[0] * q[cj + 2 : mj + 1].sum()
        return raw, low_mass + np.where(n_cut <= top, np.exp(log_q_tail), 0.0)

    def kernel(ts):
        lam_a = params.alpha * ts
        log_u = np.minimum(np.min(log_c + np.outer(ts / delta, slope), axis=1, initial=np.inf), 0.0)
        raw, tail = np.zeros(ts.size), np.exp(log_u)
        rows = np.flatnonzero((log_u >= _LOG_TINY) & (lam_a < _TERMS_MAX))
        cuts = _erlang_cuts(lam_a[rows])
        log_floor = log_u[rows] + _LOG_FLOOR_SHARE
        for redo in (False, True):
            log_pgf = log_g + np.outer(params.beta * ts[rows], y)
            count, log_count_tail = cut(log_pgf, np.maximum(log_floor + _LOG_COUNT_SHARE, _LOG_LOWER), 2.0)
            m_cut = count - 1  # P(M > M_j) <= e^{log_count_tail}
            keep, spared = m_cut < _TERMS_MAX, rows[m_cut >= _TERMS_MAX]
            raw[spared], tail[spared] = 0.0, np.exp(log_u[spared])
            rows, cuts, m_cut = rows[keep], cuts[keep], m_cut[keep]
            log_count_tail, log_floor = log_count_tail[keep], log_floor[keep]
            for group in _row_groups((m_cut + 1).tolist()):  # each group's work arrays die with rows_of
                j = rows[group]
                raw[j], left_out = rows_of(ts[j], m_cut[group], cuts[group], log_floor[group])
                tail[j] = np.exp(log_count_tail[group]) + left_out
            fail = tail[rows] > 2.0**-60 * raw[rows]  # the partial sum bounds the value from below
            if redo or not fail.any():
                break
            rows, cuts = rows[fail], cuts[fail]
            with np.errstate(divide="ignore"):
                log_floor = np.log(raw[rows])
        return {"raw_value": raw, "truncation_tail": tail}

    return _per_t(t, kernel)


# ---------------------------------------------------------------------------
# depth conversion, inversion


def _poisson_window(lam: float, log_mass: float) -> tuple[int, int]:
    """Counts (lo, hi) with P(Poisson(lam) < lo) and P(Poisson(lam) > hi) each <= e^log_mass.

    Bernstein's forms of the Chernoff bounds, P(X >= lam + d) <= e^{-d^2 / (2 (lam + d/3))}
    and P(X <= lam - d) <= e^{-d^2 / (2 lam)}, are both <= e^{-L} at
    d = sqrt(2 lam L) + 2L/3, L = -log_mass; lo is at least 0.
    """
    L = -log_mass
    d = math.sqrt(2.0 * lam * L) + 2.0 * L / 3.0
    return max(0, math.floor(lam - d)), math.ceil(lam + d)


# Counts each step of depth_from_time's downward scan sums at most: its work array
# stays ~0.1 MB, whatever the rate.
_DEPTH_CHUNK = 16384

# log of a pmf the depth scan starts from: above it, e^x is a normal double.
_LOG_NORMAL = -708.0

# Rates below which the depth scan's k / lam could overflow; P(X >= 2) is 0.0 there.
_DEPTH_LAM_MIN = 2.0**-1000

# Binary exponent of the smallest level the depth scan compares unscaled: a pmf
# below e^_LOG_NORMAL is then below 2^-120 of it.
_DEPTH_EPS_EXP = -900


def depth_from_time(params: ProtocolParams, tau: float, eps: float) -> int:
    """Confirmation depth whose observation implies >= tau seconds elapsed except w.p. eps.

    The smallest k >= 1 with P(X >= k) <= eps, X ~ Poisson(lam) the blocks
    mined in tau seconds.  The top of _poisson_window leaves a mass below
    eps 2^-60 beyond it.  The scan starts at the highest count up to that
    top whose log pmf is at least _LOG_NORMAL, found by steps down from the
    top (log pmf(k - 1) - log pmf(k) = ln(k/lam) is at most ln(top/lam)
    there, so no step passes it), and the counts above it, each below
    2^-120 of eps, are left out.  Below eps = 2^_DEPTH_EPS_EXP the pmf and
    eps are both scaled by the power of 2 that brings eps up to it, so a
    subnormal level still has normal pmfs at its answer.  The start's pmf
    is one saddle-point term (log_poisson_pmf); every lower count's comes
    from pmf(k - 1) = pmf(k) k/lam, one rounding per factor and one per
    product, which leaves a relative error of at most ~2.2e-16 per count
    scanned.  The scan runs down in chunks of at most _DEPTH_CHUNK counts,
    one cumprod for the pmf and one cumsum for P(k <= X <= start), and
    stops at the first count whose tail exceeds eps: the answer is the
    count above it, or 1 if none does.  The chunks above floor(lam) end
    there: the Poisson median is at least lam - ln 2 (Choi 1994), so
    P(X >= floor(lam)) > 1/2 and, for eps < 1/2, the scan stops there at
    the latest.  Each chunk's products and sums continue from the last
    ones, so every pmf and tail is the same whatever the chunking.  Below
    lam = _DEPTH_LAM_MIN, P(X >= 2) <= lam^2/2 is 0.0 and P(X >= 1) alone
    decides between 1 and 2.  BracketError if the top count's own tail
    exceeds eps.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    lam = params.total_rate * tau
    if lam < _DEPTH_LAM_MIN:  # P(X >= 2) <= lam^2 / 2 is 0.0: the answer is 1 or 2
        return 1 if -math.expm1(-lam) <= eps else 2
    top = _poisson_window(lam, math.log(eps) + _LOG_NEGLIGIBLE)[1]
    scale = max(0, _DEPTH_EPS_EXP - math.frexp(eps)[1])
    shift, eps = scale * math.log(2.0), math.ldexp(eps, scale)
    hi, floor_lam = top, max(math.floor(lam), 1)
    log_p = log_poisson_pmf(hi, lam) + shift
    while log_p < _LOG_NORMAL and hi > floor_lam:
        hi = max(hi - math.ceil((_LOG_NORMAL - log_p) / math.log(hi / lam)), floor_lam)
        log_p = log_poisson_pmf(hi, lam) + shift
    pmf, tail = math.exp(log_p), 0.0
    while hi >= 1:
        low = floor_lam if hi >= floor_lam else 1  # no chunk above floor(lam) runs past it
        pmfs = np.arange(hi + 1.0, max(hi - _DEPTH_CHUNK, low - 1) + 1.0, -1.0)
        pmfs /= lam  # pmf(k) / pmf(k + 1) at k = hi, hi - 1, ...
        pmfs[0] = pmf
        np.cumprod(pmfs, out=pmfs)
        pmf = pmfs[-1]
        pmfs[0] += tail
        tails = np.cumsum(pmfs, out=pmfs)
        over = np.flatnonzero(tails > eps)
        if over.size:
            if over[0] == 0 and hi == top:
                raise BracketError("confirmation depth search did not terminate")
            return hi - int(over[0]) + 1
        hi, tail = hi - tails.size, tails[-1]
        pmf *= (hi + 1) / lam
    return 1


def _search(raw_pairs, starts: list, levels: list) -> list:
    """Per row: the smallest whole second t in [1, _LATENCY_HORIZON] with raw(t) <= its level, or None.

    raw is a bound's raw value, assumed nonincreasing in t; against a level in
    (0, 1) it compares as the probability does.  raw_pairs maps one whole
    second s per row (a list) to the raw values at (s - 1, s), an array of
    shape (rows, 2); each step makes one call, also over zero rows.  A row
    keeps a bracket lo < t <= hi (lo = 0, hi unknown at first) and closes when
    hi - lo = 1, so a start at the answer costs one call.  Its next s is the
    secant of log raw - log level through its last pair, rounded up and kept
    in (lo, hi]; the midpoint of (lo, hi) where that secant is not finite or
    the last step did not halve the bracket; and a stride that doubles each
    step while one end is unknown: at least s plus it while no hi is known,
    at most hi + 1 minus it while lo is still 0 (a safeguarded secant:
    Brent 1973, ch. 4).  Bookkeeping stays in Python numbers, one row at a
    time; only the evaluation is batched.  A row gets None where its raw
    value at s is nan, or exceeds its level at the horizon.
    """
    n = len(starts)
    s = [int(x) for x in starts]
    lo, hi, found = [0] * n, [None] * n, [None] * n
    stride, width = [1] * n, [math.inf] * n
    log_eps = np.array([math.log(e) for e in levels])[:, None]
    open_ = list(range(n))
    while True:
        raw = raw_pairs(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (np.log(raw) - log_eps).tolist()
        raw, still = raw.tolist(), []
        for i in open_:
            (before, at), (f0, f1), e, si = raw[i], f[i], levels[i], s[i]
            if not at <= e:
                if at != at or si >= _LATENCY_HORIZON:
                    continue
                lo[i] = si
            elif si > 1 and before <= e:
                hi[i] = si - 1
            else:
                lo[i], hi[i] = si - 1, si
            if hi[i] is not None and hi[i] - lo[i] == 1:
                found[i] = hi[i]
                continue
            still.append(i)
            slope = f1 - f0
            t = si - f1 / slope if slope else math.nan
            secant = math.isfinite(t)
            w = math.inf if hi[i] is None else hi[i] - lo[i]
            halved, width[i] = 2 * w <= width[i], w
            if hi[i] is None:  # stride up
                nxt = si + stride[i]
                s[i] = min(max(nxt, math.ceil(t)) if secant else nxt, _LATENCY_HORIZON)
                stride[i] *= 2
            elif lo[i] == 0 and secant:  # stride down
                s[i] = max(min(math.ceil(t), hi[i] + 1 - stride[i]), 1)
                stride[i] *= 2
            elif halved and secant:
                s[i] = min(max(math.ceil(t), lo[i] + 1), hi[i])
            else:
                s[i] = (lo[i] + hi[i]) // 2
        open_ = still
        if not open_:
            return found


# (model, level) rows of one delay_upper batch: its work arrays are then at most
# 2 _BATCH_ROWS x 565 floats (~1 MB) each, whatever the number of models.
_BATCH_ROWS = 128


def _invert(forms: list, models: Sequence[ProtocolParams], levels: list) -> list:
    """Per model j: invert_latency(forms[j], models[j], levels) as a list, or the error it raises.

    Each group of models runs through one _search of its own.  The
    delay_upper models form column batches of at most _BATCH_ROWS rows: each
    root u0 is solved once, and the feasible models enter the race kernel as
    columns (a, b, u0 and the mean, shape (models, 1, 1)), broadcast against
    each row's points.  Their rows start at ceil(t*), the crossing
    _delay_crossings reads from the pass around its coarse minimum, and take
    their pairs from delay_upper's kernel on the solved models.  A pair
    whose coarse minimum is its crossing's (nearly every one, on an edge
    point too) takes the refinement pass the crossings evaluated, and one
    whose minimum is not evaluates a pass of its own.  With a start at the
    answer and every pair at its crossing's coarse minimum, a batch makes
    three race-kernel calls (the coarse points, the crossings' passes and
    the pairs' vertices); a start that misses takes one call per further
    search step, and a model with no admissible u starts at the horizon and
    closes there.  The crossings' passes enter each pair's first step and
    every later one.  Every other model is a group of its own that starts
    at _SEARCH_START and makes one call of its form per step; the secant
    through its first pair is the crossing itself for a form c e^{-rate t},
    so such a form takes two calls; where a value at or below its level
    leaves the level under value + truncation_tail, the sum was cut too
    short to decide it, and the model gets BracketError.  Every step is
    elementwise per row, so a model's values are those of a batch of one,
    bit for bit.  An InfeasibleParametersError or BracketError raised by a
    group's form is the result of its models, and closes their rows.
    """
    results = [None] * len(models)

    def search(index, starts, values):
        def raw_pairs(s):
            try:
                return values(np.array(s, dtype=float)[:, None] + _PAIR).reshape(-1, 2)
            except (InfeasibleParametersError, BracketError) as e:
                for j in index:
                    results[j] = e
                return np.full((len(s), 2), np.nan)

        found = _search(raw_pairs, starts, levels * len(index))
        for k, j in enumerate(index):
            latencies = found[k * len(levels) : (k + 1) * len(levels)]
            if results[j] is None:
                results[j] = BracketError(_UNREACHABLE) if None in latencies else latencies

    level = np.repeat(levels, 2)  # each row's level at its pair (s - 1, s)
    upper = []
    for j, (form, params) in enumerate(zip(forms, models)):
        if form is not delay_upper:

            def values(ts):
                # a sum cut short reads up to truncation_tail below the bound, so a
                # value at most a level that value + tail exceeds cannot decide it
                res = form(params, ts.reshape(-1))
                raw = res.raw_value
                if np.any((raw <= level) & (level < raw + res.truncation_tail)):
                    raise BracketError(_UNDECIDED)
                return raw

            search([j], [_SEARCH_START] * len(levels), values)
            continue
        try:
            upper.append((j, params, *_delay_norm(params)))
        except InfeasibleParametersError as e:
            results[j] = e
    size = max(1, _BATCH_ROWS // max(len(levels), 1))
    for i in range(0, len(upper), size):
        index, params, mgfs, bs, ds = zip(*upper[i : i + size])

        def col(xs):  # one model's columns stay floats: they broadcast alike, at less cost per op
            return xs[0] if len(xs) == 1 else np.array(xs, dtype=float)[:, None, None]

        a = col([p.alpha * dj for p, dj in zip(params, ds)])
        mgf = Mgf(
            excess=lambda u: _zeta_norm(u, a),
            roc_sup=col([m.roc_sup for m in mgfs]),
            mean=col([m.mean for m in mgfs]),
        )
        b, d = col(bs), np.array(ds)[:, None]
        coarse = _delay_coarse(mgf, b)
        log_eps, passes = np.array([math.log(e) for e in levels]), []
        t_star = _delay_crossings(mgf, b, coarse, log_eps, passes) * d
        prior = [np.repeat(x, 2, axis=-2) for x in passes]  # one copy for each second of a pair
        for j, unsolved in zip(index, np.isnan(t_star).any(axis=1).tolist()):
            if unsolved:
                results[j] = BracketError(_NO_ADMISSIBLE_POINT)
        # ceil(t*) clamped to [1, horizon]; a nan t* (no admissible u) gives the horizon
        starts = np.ceil(np.fmin(np.maximum(t_star, 1.0), float(_LATENCY_HORIZON)))
        rows = lambda ts: _delay_upper_rows(mgf, b, d, coarse, ts.reshape(len(index), -1), prior)[0]
        search(index, starts.reshape(-1).tolist(), rows)
    return results


def _levels(eps):
    """(whether eps is one level, the levels as a list) of one level or a 1-D sequence."""
    levels = np.asarray(eps, dtype=float)
    if levels.ndim > 1 or not ((levels > 0) & (levels < 1)).all():
        raise ValueError(f"target level must be in (0,1), got {eps}")
    return levels.ndim == 0, levels.reshape(-1).tolist()


def invert_latency(
    bound_fn: Callable[[ProtocolParams, float | np.ndarray], BoundResult],
    params: ProtocolParams,
    eps: float | Sequence[float],
) -> int | list[int]:
    """Smallest whole-second latency t with bound_fn(params, t).probability <= eps.

    eps is a level, giving an int, or a 1-D sequence of levels, giving a list
    of ints.  This is the batch of one model of _invert: one search
    (_search) whose every step is one array call at every level's (s - 1, s),
    and a level closes once it knows bound(t) <= eps < bound(t - 1).
    delay_upper starts at the crossing read from the refinement pass around
    each level's coarse minimum, and takes three race-kernel calls in all
    where that start is the answer and each level's confirmation pair has
    its crossing's coarse minimum, as nearly every one does; next to the
    feasibility edge a start can miss by whole seconds, and each further
    search step takes one call more.  Any other form starts at 600 s, and a
    form c e^{-rate t} takes two bound calls.
    Raises BracketError past 600 * 2^30 s, or where a truncated sum cannot
    decide a level.  _search assumes a form nonincreasing in t: for one
    that rises somewhere (delay_lower can, at small t) the whole second it
    returns meets the level, but an earlier one may meet it too.
    """
    scalar, levels = _levels(eps)
    latencies = _invert([bound_fn], [params], levels)[0]
    if isinstance(latencies, Exception):
        raise latencies
    return latencies[0] if scalar else latencies


def invert_latencies(
    kind: str, models: Sequence[ProtocolParams], eps: float | Sequence[float]
) -> list:
    """invert_latency(bound_of_kind(kind, p), p, eps) for each model p, in order.

    A model whose call would raise InfeasibleParametersError or BracketError
    gets that error in its place.  All models go through one _invert, and
    each model's latencies are those of its own call.
    """
    scalar, levels = _levels(eps)
    forms = [bound_of_kind(kind, params) for params in models]
    return [
        latencies[0] if scalar and isinstance(latencies, list) else latencies
        for latencies in _invert(forms, models, levels)
    ]


# Bound kind -> names of its (zero-delay, delay) forms, looked up at call time so that a
# wrapped form is found (_invert recognises delay_upper by identity).
BOUND_KINDS = {
    "upper": ("zero_delay_upper", "delay_upper"),
    "lower": ("zero_delay_lower", "delay_lower"),
    "upper-universal": ("zero_delay_upper", "delay_upper_universal"),
}


def bound_of_kind(kind: str, params: ProtocolParams):
    """The bound of this kind for these parameters: its zero-delay form when delta = 0."""
    if kind not in BOUND_KINDS:
        raise SchemaError(f"unknown bound kind {kind!r}")
    zero_delay, delay = BOUND_KINDS[kind]
    return globals()[zero_delay if params.delta == 0 else delay]
