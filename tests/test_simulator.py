"""Monte Carlo engine: determinism, species structure, and agreement with closed forms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from powbounds import simulator
from powbounds.bounds import ProtocolParams, RaceSpec, double_lagger_mgf
from powbounds.errors import InsufficientDataError
from powbounds.simulator import (
    AttackOutcome,
    MiningTrace,
    SimConfig,
    classify_species,
    empirical_mgf,
    empirical_postmine_pmf,
    estimate_attack_success,
    estimate_race_loss,
    generate_trace,
    run_private_attack,
    species_times,
)

NORM = ProtocolParams(alpha=0.025, beta=0.0, delta=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(params=NORM, horizon=10.0, warmup_s=10.0)
    with pytest.raises(ValueError):
        SimConfig(params=NORM, horizon=10.0, trials=0)
    with pytest.raises(ValueError, match="master_seed"):
        SimConfig(params=NORM, horizon=10.0, master_seed=-1)
    # ~2.5e11 expected blocks a chunk: refused before any draw
    with pytest.raises(ValueError, match="blocks"):
        SimConfig(params=NORM, horizon=1e12, trials=10)


def trial(trace, k):
    """Trial k of a batched trace as a single-trial trace."""
    h, a = trace.honest_offsets, trace.adversarial_offsets
    return MiningTrace(
        honest_times=trace.honest_times[h[k]:h[k + 1]],
        adversarial_times=trace.adversarial_times[a[k]:a[k + 1]],
        horizon=trace.horizon,
    )


def test_trace_determinism_and_independence_across_trials():
    cfg = SimConfig(
        params=ProtocolParams(0.01, 0.002, 1.0), horizon=5000.0, trials=2, master_seed=42
    )
    batch = generate_trace(cfg)
    a = trial(batch, 0)
    b = trial(generate_trace(cfg), 0)
    c = trial(batch, 1)
    assert np.array_equal(a.honest_times, b.honest_times)
    assert np.array_equal(a.adversarial_times, b.adversarial_times)
    assert not np.array_equal(a.honest_times, c.honest_times)


def test_trace_counts_are_poissonian():
    cfg = SimConfig(
        params=ProtocolParams(0.01, 0.0, 1.0), horizon=10000.0, trials=400, master_seed=3
    )
    batch = generate_trace(cfg)
    counts = [trial(batch, k).honest_times.size for k in range(400)]
    mean = np.mean(counts)
    # Poisson(100): SE of the mean over 400 trials is 0.5
    assert abs(mean - 100.0) < 3.0 * 0.5
    assert all(np.all(np.diff(trial(batch, k).honest_times) > 0) for k in range(3))


def test_empty_stream_when_rate_zero():
    cfg = SimConfig(params=ProtocolParams(alpha=0.01, beta=0.0, delta=1.0), horizon=1000.0)
    assert generate_trace(cfg).adversarial_times.size == 0


def test_single_isolated_block_is_every_species():
    trace = MiningTrace(
        honest_times=np.array([5.0]), adversarial_times=np.empty(0), horizon=100.0
    )
    c = classify_species(trace, 1.0, (0.0, 100.0))
    assert (c.H, c.X, c.Y, c.J) == (1, 1, 1, 1)


def test_close_pair_classification():
    # two honest blocks half a delay apart: first is a lagger but not a loner,
    # second is neither
    trace = MiningTrace(
        honest_times=np.array([5.0, 5.5]), adversarial_times=np.empty(0), horizon=100.0
    )
    c = classify_species(trace, 1.0, (0.0, 100.0))
    assert c.H == 2 and c.X == 1 and c.Y == 0 and c.V == 0


def test_consecutive_laggers_pair_into_loner_and_double_lagger():
    trace = MiningTrace(
        honest_times=np.array([5.0, 8.0, 8.4]), adversarial_times=np.empty(0), horizon=100.0
    )
    lag = species_times(trace, 1.0, "lagger")
    lon = species_times(trace, 1.0, "loner")
    dl = species_times(trace, 1.0, "double-lagger")
    assert list(lag) == [5.0, 8.0]
    assert list(lon) == [5.0]
    assert list(dl) == [8.0]


def test_classification_interval_domain_error():
    trace = MiningTrace(honest_times=np.array([1.0]), adversarial_times=np.empty(0), horizon=10.0)
    with pytest.raises(ValueError):
        classify_species(trace, 1.0, (0.0, 20.0))
    with pytest.raises(ValueError):
        classify_species(trace, 1.0, (5.0, 2.0))


def test_species_invariants_on_random_trace():
    cfg = SimConfig(params=ProtocolParams(0.2, 0.05, 1.0), horizon=20000.0, master_seed=9)
    trace = generate_trace(cfg)
    for lo, hi in [(0.0, 20000.0), (100.0, 5000.0), (9000.0, 9100.0)]:
        c = classify_species(trace, 1.0, (lo, hi))
        assert c.Y <= c.X <= c.H
        assert c.V <= c.X
        assert c.J <= c.H
        assert abs(c.Y - c.V) <= 1
    # a loner's successor arrives more than one delay later, so loner gaps
    # always exceed the delay bound
    loners = species_times(trace, 1.0, "loner")
    assert np.all(np.diff(loners) > 1.0)


def test_loner_rate_matches_thinning_formula():
    a = 0.05
    cfg = SimConfig(params=ProtocolParams(a, 0.0, 1.0), horizon=400000.0, master_seed=17)
    trace = generate_trace(cfg)
    span = (0.0, cfg.horizon - 1.0)
    c = classify_species(trace, 1.0, span)
    rate = c.Y / (span[1] - span[0])
    want = a * math.exp(-2.0 * a)
    se = math.sqrt(c.Y) / (span[1] - span[0])
    assert abs(rate - want) < 3.0 * se


def test_inter_jumper_gaps_are_shifted_exponential():
    a = 0.05
    cfg = SimConfig(params=ProtocolParams(a, 0.0, 1.0), horizon=400000.0, master_seed=23)
    trace = generate_trace(cfg)
    gaps = np.diff(species_times(trace, 1.0, "jumper"))
    assert gaps.min() > 1.0
    assert np.mean(gaps) == pytest.approx(1.0 + 1.0 / a, rel=0.02)
    # Kolmogorov-Smirnov on the exponential part
    stat, pvalue = stats.kstest(gaps - 1.0, "expon", args=(0.0, 1.0 / a))
    assert pvalue > 0.01


def test_empirical_mgf_at_zero_is_one():
    est = empirical_mgf(np.random.default_rng(0).exponential(1.0, 5000), 0.0)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_empirical_mgf_insufficient_data():
    with pytest.raises(InsufficientDataError):
        empirical_mgf(np.ones(10), 0.1)


def test_empirical_mgf_exponential_closed_form():
    rng = np.random.default_rng(5)
    samples = rng.exponential(2.0, 200000)
    u = 0.1  # MGF of Exp(1/2) at u: 1/(1-2u)
    est = empirical_mgf(samples, u)
    assert abs(est.value - 1.25) < 3.0 * est.stderr


def test_double_lagger_mgf_matches_simulation():
    a = 0.025
    mgf = double_lagger_mgf(a)
    cfg = SimConfig(params=ProtocolParams(a, 0.0, 1.0), horizon=2.0e6, master_seed=31)
    trace = generate_trace(cfg)
    gaps = np.diff(species_times(trace, 1.0, "double-lagger"))
    u = mgf.roc_sup / 2.0
    est = empirical_mgf(gaps, u)
    assert abs(est.value - mgf.eval(u)) < 3.0 * est.stderr
    assert np.mean(gaps) == pytest.approx(mgf.mean, rel=0.02)


def test_attack_without_adversary_never_wins():
    p = ProtocolParams(alpha=0.01, beta=0.0, delta=10.0)
    cfg = SimConfig(params=p, horizon=20000.0, warmup_s=1000.0, trials=50, master_seed=2)
    est = estimate_attack_success(cfg, 5000.0)
    assert est.value == 0.0


def test_attack_outcome_fields_consistent():
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.25, 10.0)
    w = 50.0 / (p.alpha - p.beta)
    cfg = SimConfig(params=p, horizon=w + 7200.0, warmup_s=w, master_seed=8)
    out = run_private_attack(cfg, 7200.0)
    assert isinstance(out, AttackOutcome)
    assert out.premine_gain_L >= 0 and out.postmine_gain_N >= 0
    assert out.success == (out.race_deficit <= out.premine_gain_L + out.postmine_gain_N - 1)


def test_premine_gain_is_geometric_at_steady_state():
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.25, 0.0)
    w = 50.0 / (p.alpha - p.beta)
    cfg = SimConfig(params=p, horizon=w + 1.0, warmup_s=w, trials=4000, master_seed=13)
    ls = run_private_attack(cfg, 1.0).premine_gain_L
    r = p.beta / p.alpha
    p0 = np.mean(np.asarray(ls) == 0)
    se = math.sqrt((1 - r) * r / 4000)
    assert abs(p0 - (1 - r)) < 3.0 * se


def test_race_loss_with_huge_advantage_is_certain():
    p = ProtocolParams(alpha=0.05, beta=0.01, delta=1.0)
    cfg = SimConfig(params=p, horizon=2000.0, warmup_s=500.0, trials=20, master_seed=6)
    est = estimate_race_loss(cfg, RaceSpec(mu=1.0, nu=1.0, n=10_000, t=100.0), "double-lagger")
    assert est.value == 1.0


def test_race_loss_trivial_no_renewals_window():
    # no adversary, n=0: the event is exactly "some window (c, d] holds no
    # renewal", i.e. a gap straddling [s, s+t]
    p = ProtocolParams(alpha=0.2, beta=0.0, delta=1e-9)
    cfg = SimConfig(params=p, horizon=40.0, warmup_s=10.0, trials=500, master_seed=21)
    batch = generate_trace(cfg)
    hits = 0
    for k in range(cfg.trials):
        h = trial(batch, k).honest_times
        hits += not np.any((h > 10.0) & (h <= 10.0 + 5.0))
    want = hits / cfg.trials
    est = estimate_race_loss(cfg, RaceSpec(mu=0.0, nu=0.0, n=0, t=5.0), "honest")
    assert est.value == pytest.approx(want, abs=1e-12)


def test_postmine_pmf_geometric_at_zero_delay():
    p = ProtocolParams(alpha=9.0, beta=1.0, delta=0.0)
    cfg = SimConfig(params=p, horizon=50.0, trials=20000, master_seed=19)
    probs, se = empirical_postmine_pmf(cfg, n_max=8)
    r = 1.0 / 9.0
    for k in range(4):
        want = (1 - r) * r**k
        tol = 3.0 * max(se[k], math.sqrt(want * (1 - want) / cfg.trials))
        assert abs(probs[k] - want) < tol


# ---------------------------------------------------------------------------
# per-trial references: the former scalar simulator's event definitions, run
# on one trial's times at a time and without an early stop


def ref_species_masks(h, delta, horizon):
    prev_gap = np.diff(h, prepend=0.0)
    next_gap = np.diff(h, append=np.inf)
    lagger = prev_gap > delta
    loner = lagger & (next_gap > delta) & (h <= horizon - delta)
    double_lagger = np.zeros_like(lagger)
    double_lagger[1:] = loner[:-1]
    return lagger, loner, double_lagger


def ref_jumper_times(h, delta):
    out = []
    prev = 0.0
    while True:
        i = int(np.searchsorted(h, prev + delta, side="right"))
        if i >= h.size:
            break
        prev = h[i]
        out.append(prev)
    return np.asarray(out)


def ref_race_margin(w, a, spec, s, horizon):
    def w_minus_a(points, shift):
        return np.searchsorted(w, points, "right") - np.searchsorted(a, points + shift, "right")

    cands = np.concatenate([[0.0], w[w <= s]])
    best_start = int(np.max(w_minus_a(cands, -spec.mu)))
    d0 = s + spec.t
    a_jumps = a - spec.nu
    cands = np.concatenate([[d0], a_jumps[(a_jumps >= d0) & (a_jumps <= horizon)]])
    worst_end = int(np.min(w_minus_a(cands, spec.nu)))
    return worst_end - best_start


def ref_max_pursuit_gain(up, down, horizon):
    best = cur = 0
    i = j = 0
    while True:
        t_up = up[i] if i < up.size else math.inf
        t_down = down[j] if j < down.size else math.inf
        if t_up <= t_down:
            if t_up > horizon:
                break
            cur += 1
            best = max(best, cur)
            i += 1
        else:
            if t_down > horizon:
                break
            cur -= 1
            j += 1
    return best


def segments(times, offsets):
    return [times[offsets[k]:offsets[k + 1]] for k in range(offsets.size - 1)]


RACE_STREAMS = ("double-lagger", "honest", "jumper", "loner")


def assert_trace_kernels_match_reference(trace, delta, spec, s):
    h, h_off = trace.honest_times, trace.honest_offsets
    a, a_off = trace.adversarial_times, trace.adversarial_offsets
    masks = simulator._species_masks(h, h_off, delta, trace.horizon)
    jumpers = simulator._jumper_mask(h, h_off, delta)
    margins = {
        sp: simulator._race_margin(
            *simulator._stream(trace, delta, sp), a, a_off, spec, s, trace.horizon
        )
        for sp in RACE_STREAMS
    }
    for k, (hk, ak) in enumerate(zip(segments(h, h_off), segments(a, a_off))):
        lo, hi = h_off[k], h_off[k + 1]
        want = ref_species_masks(hk, delta, trace.horizon)
        for got_mask, want_mask in zip(masks, want):
            assert np.array_equal(got_mask[lo:hi], want_mask)
        want_jumpers = ref_jumper_times(hk, delta)
        assert np.array_equal(hk[jumpers[lo:hi]], want_jumpers)
        streams = {
            "double-lagger": hk[want[2]], "honest": hk, "jumper": want_jumpers, "loner": hk[want[1]]
        }
        for sp in RACE_STREAMS:
            assert margins[sp][k] == ref_race_margin(streams[sp], ak, spec, s, trace.horizon)


def test_trace_kernels_match_per_trial_reference_on_random_traces():
    # dense blocks (alpha * delta = 0.5) so every species and race outcome occurs
    p = ProtocolParams(alpha=0.5, beta=0.3, delta=1.0)
    cfg = SimConfig(params=p, horizon=40.0, warmup_s=15.0, trials=600, master_seed=4)
    trace = generate_trace(cfg)
    spec = RaceSpec(mu=1.0, nu=1.0, n=1, t=10.0)
    assert_trace_kernels_match_reference(trace, p.delta, spec, cfg.warmup_s)
    margin = simulator._race_margin(
        *simulator._stream(trace, p.delta, "double-lagger"),
        trace.adversarial_times, trace.adversarial_offsets, spec, cfg.warmup_s, cfg.horizon,
    )
    assert 0 < np.mean(margin <= spec.n) < 1


def test_trace_kernels_match_per_trial_reference_on_hand_built_edges():
    trials = [
        ([], []),  # empty trace
        ([5.0], []),  # one block, beta = 0
        ([3.0, 99.5], [50.0]),  # a block within delta of the horizon
        ([0.5, 0.8, 30.0, 32.0], [1.0, 29.5, 40.0]),  # no double-lagger before s = 20
        ([2.0, 2.5, 4.0, 4.0, 60.0], [0.5, 25.0, 25.0, 41.0, 61.0]),  # ties
    ]
    counts = [(len(hk), len(ak)) for hk, ak in trials]
    trace = MiningTrace(
        honest_times=np.array([t for hk, _ in trials for t in hk]),
        adversarial_times=np.array([t for _, ak in trials for t in ak]),
        horizon=100.0,
        honest_offsets=np.concatenate(([0], np.cumsum([c for c, _ in counts]))),
        adversarial_offsets=np.concatenate(([0], np.cumsum([c for _, c in counts]))),
    )
    for spec in (RaceSpec(mu=1.0, nu=1.0, n=1, t=10.0), RaceSpec(mu=0.0, nu=0.0, n=0, t=20.0)):
        assert_trace_kernels_match_reference(trace, 1.0, spec, 20.0)


def test_pursuit_kernel_matches_per_trial_walk():
    rng = np.random.default_rng(12)
    cases = [(0.5, 1.0, 30.0, 0.0, 0.0), (0.5, 1.0, 30.0, 1.0, 1.0), (1.0, 0.9, 20.0, 2.0, 0.5)]
    for up_rate, down_rate, horizon, extra, spacing in cases:
        up, up_off, down, down_off = simulator._pursuit_events(
            rng, 500, up_rate, down_rate, horizon, extra, spacing
        )
        got = simulator._max_pursuit_gain(up, up_off, down, down_off)
        want = [
            ref_max_pursuit_gain(u, d, horizon)
            for u, d in zip(segments(up, up_off), segments(down, down_off))
        ]
        assert got.tolist() == want
        assert max(want) > 0
    # hand-built: no events, no ups, an up tied with a down (up first), downs past the horizon
    ups = [[], [], [1.0], [1.0, 2.0, 3.0], [4.0]]
    downs = [[], [0.5], [1.0], [1.5, 1.8, 9.0], [0.1, 0.2, 11.0]]
    offsets = [np.concatenate(([0], np.cumsum([len(x) for x in xs]))) for xs in (ups, downs)]
    up, down = (np.array([t for x in xs for t in x]) for xs in (ups, downs))
    got = simulator._max_pursuit_gain(up, offsets[0], down, offsets[1])
    want = [ref_max_pursuit_gain(np.array(u), np.array(d), 10.0) for u, d in zip(ups, downs)]
    assert got.tolist() == want == [0, 0, 1, 1, 0]


def test_campaign_output_depends_only_on_seed_and_trials():
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.25, 10.0)
    w = 50.0 / (p.alpha - p.beta)
    trials = simulator.CHUNK_TRIALS + 100
    cfg = SimConfig(params=p, horizon=w + 3600.0, warmup_s=w, trials=trials, master_seed=5)
    first = estimate_attack_success(cfg, 3600.0)
    assert estimate_attack_success(cfg, 3600.0) == first
    outcome = run_private_attack(cfg, 3600.0)
    assert outcome.success.size == trials
    assert np.count_nonzero(outcome.success) / trials == first.value


def test_campaign_memory_is_bounded():
    # at the benchmark's parameters (10%, 6/h, delta = 10 s) a campaign holds one
    # chunk at a time, so its peak stays under a fixed bound and does not grow
    # with the trial count
    p = ProtocolParams.from_adversary_share(1.0 / 600.0, 0.10, 10.0)
    warm = 50.0 / (p.alpha - p.beta)
    post = 20.0 / (p.alpha - p.beta)
    spec = RaceSpec(mu=10.0, nu=10.0, n=1, t=3600.0)

    def peak(run, trials, t):
        cfg = SimConfig(params=p, horizon=warm + t + post, warmup_s=warm, trials=trials)
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def attack(cfg):
        estimate_attack_success(cfg, 1800.0)

    def race(cfg):
        estimate_race_loss(cfg, spec, "double-lagger")

    for run, trials, t in ((attack, 2**18, 1800.0), (race, 2**16, 3600.0)):
        big = peak(run, trials, t)
        assert big < 64 * 2**20
        assert big < 2 * peak(run, 2**12, t)
