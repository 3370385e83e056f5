"""Monte Carlo engine for the two-Poisson mining model.

Generates mining traces, classifies honest blocks into species (laggers,
loners, double-laggers, jumpers), replays the private attack with maximal
delay manipulation, and measures existential race-loss frequencies.  Serves
as an independent oracle for the analytic bounds.

A campaign draws its trials CHUNK_TRIALS at a time.  Within a chunk every
stream of events is one flat array, sorted within each trial, with per-trial
offsets, and every step is an array operation over the whole chunk: no
Python loop runs per trial or per block (jumpers take one step per jumper).
Chunk c draws from SeedSequence([master_seed, c]), so a campaign's output
depends only on (master_seed, trials), and its memory on CHUNK_TRIALS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .bounds import ProtocolParams, RaceSpec
from .errors import InsufficientDataError

CHUNK_TRIALS = 512

# Expected blocks, honest and adversarial, one chunk may draw: a campaign past it
# would need gigabytes of arrays per chunk, so SimConfig refuses it before any draw.
_CHUNK_BLOCKS_MAX = 2**26

SPECIES = ("honest", "adversarial", "jumper", "lagger", "loner", "double-lagger")


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: model parameters, time window, trial plan."""

    params: ProtocolParams
    horizon: float
    warmup_s: float = 0.0
    trials: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_s < self.horizon:
            raise ValueError("need horizon > warmup_s >= 0")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        blocks = min(self.trials, CHUNK_TRIALS) * self.params.total_rate * self.horizon
        if not blocks <= _CHUNK_BLOCKS_MAX:
            raise ValueError(
                f"a chunk of trials expects {blocks:.3g} blocks, past the {_CHUNK_BLOCKS_MAX} "
                "one chunk may draw: shorten the window or lower the rate"
            )


@dataclass(frozen=True)
class MiningTrace:
    """Arrival times of honest and adversarial blocks over [0, horizon], in one or more trials.

    Each stream is one flat array, sorted within each trial: trial k's honest
    blocks are ``honest_times[honest_offsets[k]:honest_offsets[k + 1]]``.
    Without offsets the trace is a single trial.
    """

    honest_times: np.ndarray
    adversarial_times: np.ndarray
    horizon: float
    honest_offsets: Optional[np.ndarray] = None
    adversarial_offsets: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.honest_offsets is None:
            object.__setattr__(self, "honest_offsets", np.array([0, self.honest_times.size]))
        if self.adversarial_offsets is None:
            object.__setattr__(
                self, "adversarial_offsets", np.array([0, self.adversarial_times.size])
            )


@dataclass(frozen=True)
class SpeciesCounts:
    """Per-interval block census: honest, adversarial, jumpers, laggers, double-laggers, loners."""

    H: int
    A: int
    J: int
    X: int
    V: int
    Y: int


@dataclass(frozen=True)
class AttackOutcome:
    """Per-trial arrays of a private-attack campaign."""

    premine_gain_L: np.ndarray
    race_deficit: np.ndarray
    postmine_gain_N: np.ndarray
    success: np.ndarray


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    stderr: float
    trials: int


def _frequency(hits: int, n: int) -> Estimate:
    p = hits / n
    return Estimate(value=p, stderr=math.sqrt(p * (1.0 - p) / n), trials=n)


def _chunks(config: SimConfig):
    """(generator, trial count) of each chunk of the campaign, in order."""
    for c, start in enumerate(range(0, config.trials, CHUNK_TRIALS)):
        rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, c]))
        yield rng, min(CHUNK_TRIALS, config.trials - start)


# ---------------------------------------------------------------------------
# flat per-trial arrays


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)))


def _trial_ids(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(offsets.size - 1, dtype=np.int32), np.diff(offsets))


def _join(parts) -> tuple:
    """Concatenate (times, offsets) pairs of consecutive trial ranges."""
    times = np.concatenate([t for t, _ in parts])
    return times, _offsets(np.concatenate([np.diff(o) for _, o in parts]))


class _Segments:
    """Per-trial sorted values in one flat array, ranked per trial in one search.

    The keys trial·S + value sort the whole array.  S is a power of two at
    least four times every |value|, and queries are clipped into [-S/2, S/2]
    without changing their rank, so no key of one trial meets another's.
    Rounding a key can only tie an entry just above a query with it; a
    fix-up step moves those back.
    """

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        self.values = values
        self.offsets = offsets
        top = max(values.max(), -values.min()) if values.size else 0.0
        self.scale = 4.0 * 2.0 ** math.ceil(math.log2(max(top, 1.0)))
        self.keys = np.repeat(np.arange(offsets.size - 1) * self.scale, np.diff(offsets))
        self.keys += values

    def count_le(self, trial: np.ndarray, x) -> np.ndarray:
        """Per query i: the values of trial[i] that are <= x[i] (x may be one number)."""
        half = self.scale / 2
        q = trial * self.scale + np.minimum(np.maximum(x, -half), half)
        r = np.searchsorted(self.keys, q, side="right")
        start = self.offsets[trial]
        if self.values.size:
            over = (r > start) & (self.values[r - 1] > x)
            while over.any():
                r -= over
                over = (r > start) & (self.values[r - 1] > x)
        return r - start


def _poisson_arrivals(rng, rate: float, span: float, n: int) -> tuple:
    """Arrival times of n independent Poisson(rate) processes on [0, span]: (flat times, offsets).

    Given its count m, a trial's arrivals are m sorted uniforms on [0, span],
    drawn as the first m of its m + 1 cumulative exponentials over their total.
    """
    if rate == 0 or span <= 0:
        return np.empty(0), np.zeros(n + 1, dtype=np.int64)
    counts = rng.poisson(rate * span, n)
    offsets = _offsets(counts)
    # trial k owns cum[offsets[k] + k : offsets[k + 1] + k + 1]; its last entry is the total
    cum = rng.standard_exponential(offsets[-1] + n)
    np.cumsum(cum, out=cum)
    ends = offsets[1:] + np.arange(n)
    base = np.concatenate(([0.0], cum[ends[:-1]]))
    scale = span / (cum[ends] - base)
    arrivals = np.ones(cum.size, dtype=bool)
    arrivals[ends] = False
    times = cum[arrivals]
    times -= np.repeat(base, counts)
    times *= np.repeat(scale, counts)
    return times, offsets


def _draw_trace(rng, params: ProtocolParams, horizon: float, n: int) -> MiningTrace:
    h, h_off = _poisson_arrivals(rng, params.alpha, horizon, n)
    a, a_off = _poisson_arrivals(rng, params.beta, horizon, n)
    return MiningTrace(h, a, horizon, h_off, a_off)


def generate_trace(config: SimConfig) -> MiningTrace:
    """Every trial of the campaign: two independent Poisson streams at rates alpha and beta.

    Chunk by chunk these are the draws `estimate_race_loss` makes, so they are
    the traces it scores.
    """
    parts = [_draw_trace(rng, config.params, config.horizon, n) for rng, n in _chunks(config)]
    h, h_off = _join([(p.honest_times, p.honest_offsets) for p in parts])
    a, a_off = _join([(p.adversarial_times, p.adversarial_offsets) for p in parts])
    return MiningTrace(h, a, config.horizon, h_off, a_off)


# ---------------------------------------------------------------------------
# species classification


def _species_masks(h: np.ndarray, offsets: np.ndarray, delta: float, horizon: float):
    """Boolean masks (lagger, loner, double_lagger) aligned with the flat honest times.

    In each trial the genesis block at time 0 acts as the 0-th lagger for gap
    purposes.  Blocks within delta of the horizon are excluded from the loner
    mask (their future window is unobserved).  One difference of the flat
    times gives every gap; each trial's first block takes its gap from 0
    instead, and its last sees no next block.
    """
    starts, ends = offsets[:-1], offsets[1:]
    nonempty = starts < ends
    first, last = starts[nonempty], ends[nonempty] - 1
    far = np.diff(h) > delta
    lagger = np.empty(h.size, dtype=bool)
    lagger[1:] = far
    lagger[first] = h[first] > delta
    far_next = np.empty(h.size, dtype=bool)
    far_next[:-1] = far
    far_next[last] = True
    loner = lagger & far_next & (h <= horizon - delta)
    double_lagger = np.zeros_like(lagger)
    double_lagger[1:] = loner[:-1]
    double_lagger[first] = False
    return lagger, loner, double_lagger


def _jumper_mask(h: np.ndarray, offsets: np.ndarray, delta: float) -> np.ndarray:
    """Mask of the jumpers among the flat honest times.

    Each trial's genesis at 0 is its 0-th jumper and is not listed.  A trial's
    next jumper is its first block past the previous jumper + delta.
    Each step advances every trial by one jumper.
    """
    seg = _Segments(h, offsets)
    n = offsets.size - 1
    trial = _trial_ids(offsets)
    past = offsets[trial] + seg.count_le(trial, h + delta)
    cur = offsets[:-1] + seg.count_le(np.arange(n), delta)
    end = offsets[1:]
    mask = np.zeros(h.size, dtype=bool)
    while True:
        live = cur < end
        cur, end = cur[live], end[live]
        if not cur.size:
            return mask
        mask[cur] = True
        cur = past[cur]


def _stream(trace: MiningTrace, delta: float, species: str) -> tuple:
    """Flat times and offsets of one block species over every trial of the trace."""
    if species not in SPECIES:
        raise ValueError(f"unknown species {species!r}")
    if species == "adversarial":
        return trace.adversarial_times, trace.adversarial_offsets
    h, off = trace.honest_times, trace.honest_offsets
    if species == "honest":
        return h, off
    if species == "jumper":
        mask = _jumper_mask(h, off, delta)
    else:
        lagger, loner, dl = _species_masks(h, off, delta, trace.horizon)
        mask = {"lagger": lagger, "loner": loner, "double-lagger": dl}[species]
    picked = np.flatnonzero(mask)
    return h[picked], np.searchsorted(picked, off)


def species_times(trace: MiningTrace, delta: float, species: str) -> np.ndarray:
    """Arrival times of one block species, flat over every trial of the trace."""
    return _stream(trace, delta, species)[0]


def classify_species(trace: MiningTrace, delta: float, interval: tuple) -> SpeciesCounts:
    """Count each species over (lo, hi] per the census semantics, summed over trials."""
    lo, hi = interval
    if not 0 <= lo < hi <= trace.horizon:
        raise ValueError(f"interval {interval} not within [0, {trace.horizon}]")
    h, off, a = trace.honest_times, trace.honest_offsets, trace.adversarial_times
    inside = (h > lo) & (h <= hi)
    lagger, loner, double_lagger = _species_masks(h, off, delta, trace.horizon)
    masks = (inside, (a > lo) & (a <= hi), inside & _jumper_mask(h, off, delta),
             inside & lagger, inside & loner, inside & double_lagger)  # in SPECIES order
    return SpeciesCounts(**{f: int(np.count_nonzero(m)) for f, m in zip("HAJXYV", masks)})


# ---------------------------------------------------------------------------
# empirical statistics


def empirical_mgf(samples: np.ndarray, u: float) -> Estimate:
    """Sample MGF mean(e^{u X}) with standard error s/sqrt(n).

    s is the sample standard deviation of e^{u X}; for a mean, s/sqrt(n) is
    exactly the standard error of the leave-one-out jackknife.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 1000:
        raise InsufficientDataError(f"need at least 1000 samples, got {n}")
    vals = np.exp(u * samples)
    se = float(vals.std(ddof=1)) / math.sqrt(n)
    return Estimate(value=float(vals.sum()) / n, stderr=se, trials=n)


def _pursuit_events(rng, p: ProtocolParams, horizon: float, n: int) -> tuple:
    """Up and down event times of n pursuits of model p: (up, up offsets, down, down offsets).

    Ups are the attacker's blocks, Poisson(beta) on [0, horizon].  Downs are
    the honest chain's jumpers, renewing with gaps delta + Exp(alpha): the
    m-th is m·delta plus the m-th arrival of a Poisson(alpha) process, so
    every down within the horizon comes from that process's arrivals on
    [0, horizon - delta].  At delta = 0 the downs are the honest blocks.
    """
    up, up_off = _poisson_arrivals(rng, p.beta, horizon, n)
    base, down_off = _poisson_arrivals(rng, p.alpha, horizon - p.delta, n)
    if p.delta == 0:  # delta + rank·delta + base is base itself
        return up, up_off, base, down_off
    rank = np.arange(base.size) - np.repeat(down_off[:-1], np.diff(down_off))
    # delta + rank·delta, not (rank + 1)·delta: the two round differently
    return up, up_off, p.delta + rank * p.delta + base, down_off


def _max_pursuit_gain(up: np.ndarray, up_off: np.ndarray, down: np.ndarray,
                      down_off: np.ndarray) -> np.ndarray:
    """Per trial: maximum over time of (up-count minus down-count), floored at 0.

    The maximum is attained at an up event, where the walk stands at the up
    event's rank minus the downs strictly before it (an up tied with a down
    counts first), so downs after a trial's last up event never matter.
    Ranks count from the chunk's first up; each trial's first up index, the
    floor's offset, comes off at the end.
    """
    trial = _trial_ids(up_off)
    below = _Segments(down, down_off).count_le(trial, np.nextafter(up, -np.inf))
    best = up_off[:-1].copy()
    np.maximum.at(best, trial, np.arange(1, up.size + 1) - below)
    best -= up_off[:-1]
    return best


def _postmine_gain(rng, p: ProtocolParams, horizon: float, n: int) -> np.ndarray:
    """Per trial: the attacker's post-mining gain N over a window of this length.

    It is the maximum catch-up of the adversarial walk against the honest
    chain's jumpers (_pursuit_events; at delta = 0 every honest block).  At
    delta > 0 one count is forfeited, floored at 0, for decoupling the
    post-race jumpers from the in-race ones, matching the analytic lower
    bound's accounting.
    """
    if p.beta == 0:
        return np.zeros(n, dtype=np.int64)
    gain = _max_pursuit_gain(*_pursuit_events(rng, p, horizon, n))
    return np.maximum(0, gain - (p.delta > 0))


def _premine_gain(rng, params: ProtocolParams, warmup_s: float, n: int) -> np.ndarray:
    """Per trial: lead after the warmup of the pre-mining birth-death process.

    Births at rate beta, deaths at rate alpha, reflected at 0.  One walk
    S_j = 2·B_j - j, B_j the births among the first j steps, runs through
    every trial's steps; trial k's N steps take it from S_0 = S_{offsets[k]}
    to S_N = S_{offsets[k + 1]}, and the reflected walk ends at
    S_N - min_{j<=N} S_j.  S falls at each death, so that minimum sits at
    S_0, at S_N, or just before one of the trial's births, where S stands at
    twice the birth's rank among all births minus its step index.
    """
    if params.beta == 0 or warmup_s <= 0:
        return np.zeros(n, dtype=np.int64)
    rate = params.total_rate
    offsets = _offsets(rng.poisson(rate * warmup_s, n))
    births = np.flatnonzero(rng.random(offsets[-1]) < params.beta / rate)
    born = np.searchsorted(births, offsets)  # B at each trial boundary
    walk = 2 * born - offsets
    low = np.minimum(walk[:-1], walk[1:])
    some = born[:-1] < born[1:]
    if births.size:
        dips = 2 * np.arange(births.size) - births
        low[some] = np.minimum(low[some], np.minimum.reduceat(dips, born[:-1][some]))
    return walk[1:] - low


def _post_horizon(p: ProtocolParams, horizon: float) -> float:
    """Length (s) of the attacker's private post-mining window: 20/(alpha-beta), or horizon at beta >= alpha."""
    return 20.0 / (p.alpha - p.beta) if p.alpha > p.beta else horizon


def _attack(rng, config: SimConfig, n: int, t: float) -> AttackOutcome:
    p = config.params
    big_l = _premine_gain(rng, p, config.warmup_s, n)
    adv = rng.poisson(p.beta * t, n)
    if p.delta == 0:
        deficit = rng.poisson(p.alpha * t, n) + 1 - adv
    else:  # the honest chain's progress in the race is its jumpers
        h, off = _poisson_arrivals(rng, p.alpha, t, n)
        deficit = np.bincount(_trial_ids(off)[_jumper_mask(h, off, p.delta)], minlength=n) - adv
    n_post = _postmine_gain(rng, p, _post_horizon(p, config.horizon), n)
    # at delta > 0 the race forfeits a count too, as the analytic lower bound's accounting does
    success = deficit <= big_l + n_post - (p.delta > 0)
    return AttackOutcome(
        premine_gain_L=big_l, race_deficit=deficit, postmine_gain_N=n_post, success=success
    )


def run_private_attack(config: SimConfig, t: float) -> AttackOutcome:
    """Replay every trial of the private attack with maximal delay manipulation.

    The attacker pre-mines during the warmup, races the honest chain over
    (0, t], then keeps mining in private hoping to catch up within the
    post-horizon (20/(alpha-beta); truncation loses a geometric tail).
    Returns per-trial arrays; these are the draws `estimate_attack_success` makes.
    """
    parts = [_attack(rng, config, n, t) for rng, n in _chunks(config)]
    return AttackOutcome(
        *(np.concatenate([getattr(o, f.name) for o in parts]) for f in fields(AttackOutcome))
    )


def estimate_attack_success(config: SimConfig, t: float) -> Estimate:
    """Private-attack success frequency over all configured trials."""
    wins = sum(
        int(np.count_nonzero(_attack(rng, config, n, t).success)) for rng, n in _chunks(config)
    )
    return _frequency(wins, config.trials)


def _race_margin(w: np.ndarray, w_off: np.ndarray, a: np.ndarray, a_off: np.ndarray,
                 spec: RaceSpec, s: float, horizon: float) -> np.ndarray:
    """Per trial: min over d of W(d) - A(d + nu) minus max over c of W(c) - A(c - mu).

    W and A count the stream's renewals and the adversarial arrivals up to a
    time; c ranges over [0, s] and d over [s + t, horizon].  The race is lost
    when the margin is at most spec.n.  The start maximum is attained at 0 or
    at a renewal, the end minimum at s + t or just after an adversarial arrival.
    """
    n = w_off.size - 1
    k = np.arange(n)
    stream, adv = _Segments(w, w_off), _Segments(a, a_off)
    adv_trial = _trial_ids(a_off)
    best_start = stream.count_le(k, 0.0) - adv.count_le(k, -spec.mu)
    # At its i-th renewal (0-based) in [0, s] the start term is i + 1 - A(w_i - mu).
    # A(w_i - mu) counts the arrivals j with p_j <= i, where p_j is the number of
    # renewals with w - mu < a_j; so the term rises by one per renewal and drops
    # only at i = p_j, and its maximum sits at i = p_j - 1 or at the last renewal.
    # Querying A(w_i - mu) per renewal gives the same margins but ran ~30% slower
    # (11 -> 14 ms per 1000-trial double-lagger campaign, 2-vCPU VM), so query per arrival.
    # An arrival past s has p_j = e, every renewal in [0, s]: its term is no more
    # than the last renewal's, so only the arrivals in [0, s] are queried.
    e = stream.count_le(k, s)
    shifted = _Segments(w[w <= s] - spec.mu, _offsets(e))
    early = np.flatnonzero(a <= s)
    e_trial = adv_trial[early]
    p = shifted.count_le(e_trial, np.nextafter(a[early], -np.inf))
    # i + 1 - A at i = p_j - 1, that is p_j minus the arrival's rank in its trial;
    # arrivals tied in p_j give less, the first of them exact
    drop = p >= 1
    best_start -= a_off[:-1]
    np.maximum.at(best_start, e_trial[drop], p[drop] - early[drop])
    best_start += a_off[:-1]
    last = e - np.bincount(e_trial[p < e[e_trial]], minlength=n)
    best_start = np.where(e >= 1, np.maximum(best_start, last), best_start)
    d0 = s + spec.t
    worst_end = stream.count_le(k, d0) - adv.count_le(k, d0 + spec.nu)
    jumps = a - spec.nu
    late = (jumps >= d0) & (jumps <= horizon)
    d_trial, d = adv_trial[late], jumps[late]
    end = stream.count_le(d_trial, d) - adv.count_le(d_trial, d + spec.nu)
    np.minimum.at(worst_end, d_trial, end)
    return worst_end - best_start


def estimate_race_loss(config: SimConfig, spec: RaceSpec, species: str) -> Estimate:
    """Frequency of the existential race-loss event for one renewal stream.

    Per trial: does some window (c, d] with c in [0, s], d in [s+t, horizon]
    see at most spec.n more stream renewals than adversarial arrivals over the
    enlarged window (c-mu, d+nu]?  Evaluated with running extrema over the
    step functions, never a quadratic scan.  The finite d-horizon makes this a
    slightly low estimate of the unbounded event.
    """
    s = config.warmup_s
    if config.horizon < s + spec.t:
        raise ValueError("horizon too short for the requested race window")
    losses = 0
    for rng, n in _chunks(config):
        trace = _draw_trace(rng, config.params, config.horizon, n)
        w, w_off = _stream(trace, config.params.delta, species)
        margin = _race_margin(w, w_off, trace.adversarial_times, trace.adversarial_offsets,
                              spec, s, config.horizon)
        losses += int(np.count_nonzero(margin <= spec.n))
    return _frequency(losses, config.trials)


def empirical_postmine_pmf(config: SimConfig, n_max: int = 32) -> tuple:
    """Histogram of the attacker's post-mining gain with multinomial standard errors.

    With delta = 0 this is the maximum catch-up of the adversarial walk (the
    geometric law); with delta > 0 it is the gain against the jumper-paced
    honest chain.  Returns (probs, stderr) arrays over 0..n_max.
    """
    horizon = config.horizon - config.warmup_s
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for rng, n in _chunks(config):
        gain = _postmine_gain(rng, config.params, horizon, n)
        counts += np.bincount(np.minimum(gain, n_max), minlength=n_max + 1)
    probs = counts / config.trials
    stderr = np.sqrt(probs * (1.0 - probs) / config.trials)
    return probs, stderr
