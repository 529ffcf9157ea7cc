import hashlib
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import chisquare, t

from caflow import sim
from caflow.capacity import scenario_presets
from caflow.ctmc import Truncation, build_generator, solve_model
from caflow.errors import ConfigError
from caflow.model import AreaSpec, CellConfig, Policy, TrafficMix, harmonic_capacity
from caflow.sim import (
    TREND_SAMPLES, Stop, Trajectory, Warmup, _ols_trend, _ratio_batch_half_width, simulate,
)


def single(c1, c2):
    return CellConfig.single_area(c1, c2)


# --- batch means ----------------------------------------------------------------


def test_batch_means_constant_series():
    # every batch ratio is 2.5, so the interval has zero width
    half = _ratio_batch_half_width(np.full(100, 2.5), np.ones(100), n_batches=10)
    assert half == 0.0


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("df", [1, 4, 9, 19, 49])
def test_t_quantile_equals_scipy_stats(level, df):
    # the batch-means intervals take the Student-t quantile from
    # scipy.special; it must equal scipy.stats' to the last bit
    assert stdtrit(df, 0.5 + level / 2.0) == t.ppf(0.5 + level / 2.0, df)


def test_batch_means_half_width_matches_theory():
    # i.i.d. standard normals over unit sojourns, so each batch ratio is a
    # batch mean; 30 batches of 1000: the average half-width over seeds should
    # sit near 1.96 / sqrt(30000) (up to the t vs normal quantile)
    rng = np.random.default_rng(2718)
    halves = []
    for _ in range(100):
        half = _ratio_batch_half_width(rng.standard_normal(30_000), np.ones(30_000), 30)
        halves.append(half)
    expected = 1.96 / math.sqrt(30_000)
    assert np.mean(halves) == pytest.approx(expected, rel=0.30)


# --- simulator ---------------------------------------------------------------------


def test_simulate_is_deterministic():
    cfg = single(1, 2)
    traffic = TrafficMix(1.5, 0.5, 1.0)
    kwargs = dict(stop=Stop(completions=4000), warmup=Warmup(0.1, 200), seed=11, stream=3)
    rep_a = simulate(cfg, traffic, Policy.JFQ, collect_trace=500, **kwargs)
    rep_b = simulate(cfg, traffic, Policy.JFQ, collect_trace=500, **kwargs)
    assert rep_a.estimates == rep_b.estimates
    assert rep_a.sim_time == rep_b.sim_time
    assert rep_a.trace == rep_b.trace


def test_streams_are_independent():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 0.0, 1.0)
    rep_a = simulate(cfg, traffic, stop=Stop(completions=2000), warmup=Warmup(0.1, 100), seed=1, stream=0)
    rep_b = simulate(cfg, traffic, stop=Stop(completions=2000), warmup=Warmup(0.1, 100), seed=1, stream=1)
    assert rep_a.sim_time != rep_b.sim_time


def test_zero_traffic_stops_cleanly():
    cfg = single(1, 1)
    rep = simulate(cfg, TrafficMix(0.0, 0.5, 1.0), stop=Stop(horizon=10.0))
    assert rep.total_completions == 0
    assert rep.sim_time == 10.0
    assert rep.estimates == {}


def test_stop_validation():
    with pytest.raises(ConfigError):
        Stop()
    with pytest.raises(ConfigError):
        Stop(horizon=-1.0)
    # a horizon the path never reaches: with no completion target the run
    # would never end
    with pytest.raises(ConfigError, match="finite"):
        Stop(horizon=math.nan)
    with pytest.raises(ConfigError, match="finite"):
        Stop(horizon=math.inf, completions=10)


@pytest.mark.parametrize("fraction, min_completions",
                         [(1.5, 10), (1.0, 0), (-0.1, 0), (math.nan, 0), (0.2, -1)])
def test_warmup_validation(fraction, min_completions):
    with pytest.raises(ConfigError, match="warmup"):
        Warmup(fraction, min_completions)


def test_warmup_without_a_count_cut_keeps_the_fraction_cut():
    # k = 0 is no count cut; it used to read the last completion and
    # discard every one
    kwargs = dict(stop=Stop(completions=20_000), seed=3)
    rep = simulate(single(1, 2), TrafficMix(1.6, 0.5, 1.0), warmup=Warmup(0.1, 0), **kwargs)
    assert all(est.gamma_hat is not None for est in rep.estimates.values())
    assert rep == simulate(single(1, 2), TrafficMix(1.6, 0.5, 1.0), warmup=Warmup(0.1, 1),
                           **kwargs)


@pytest.mark.parametrize("n_batches", [1, 0, -3])
def test_batch_means_need_two_batches(n_batches):
    with pytest.raises(ConfigError, match="n_batches"):
        simulate(single(1, 2), TrafficMix(1.6, 0.5, 1.0), stop=Stop(completions=3000),
                 n_batches=n_batches)


def test_sc_user_gets_full_rate_at_tiny_load():
    cfg = single(1, 1)
    traffic = TrafficMix(0.02, 1.0, 1.0)  # rho = 0.01
    rep = simulate(cfg, traffic, stop=Stop(completions=8000), warmup=Warmup(0.05, 200), seed=4)
    assert rep.estimate("sc", 0).gamma_hat == pytest.approx(1.0, rel=0.02)


def test_dc_only_gamma_near_closed_form():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 0.0, 1.0)  # rho = 0.5 -> gamma 1.0
    rep = simulate(cfg, traffic, stop=Stop(completions=40_000), warmup=Warmup(0.1, 2000), seed=9)
    est = rep.estimate("dc", 0)
    assert est.gamma_hat == pytest.approx(1.0, abs=3 * est.half_width)


def test_dc_only_long_run_interval_covers_closed_form():
    # one long replication: the 95% interval straddles the exact value
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 0.0, 1.0)
    rep = simulate(cfg, traffic, stop=Stop(completions=1_000_000), seed=9, n_batches=10)
    est = rep.estimate("dc", 0)
    assert abs(est.gamma_hat - 1.0) <= est.half_width


def test_insufficient_group_marked_not_estimated():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 0.99, 1.0)  # DC arrivals are rare
    rep = simulate(cfg, traffic, stop=Stop(completions=2000), warmup=Warmup(0.1, 100), seed=6)
    dc = rep.estimate("dc", 0)
    assert dc.gamma_hat is None
    assert dc.half_width is None


def test_jfq_jsq_identical_trajectories_at_equal_capacity():
    cfg = single(2, 2)
    traffic = TrafficMix(2.0, 0.6, 1.0)
    kwargs = dict(stop=Stop(completions=4000), warmup=Warmup(0.1, 200), seed=13)
    rep_jfq = simulate(cfg, traffic, Policy.JFQ, collect_trace=2000, **kwargs)
    rep_jsq = simulate(cfg, traffic, Policy.JSQ, collect_trace=2000, **kwargs)
    assert rep_jfq.trace == rep_jsq.trace
    assert rep_jfq.estimates == rep_jsq.estimates
    assert rep_jfq.sim_time == rep_jsq.sim_time


@pytest.mark.parametrize(
    "cfg, policy, events, sim_time",
    [
        (single(1, 2), Policy.JFQ, 4000, 1106.769145434741),
        (single(1, 2), Policy.JSQ, 4006, 1105.4152916828857),
        (single(1, 2), Policy.BERNOULLI, 4001, 1094.2243959482348),
        # c1/c2 = 1e39: p1 rounds to 1.0, yet every Bernoulli arrival still
        # consumes a uniform
        (single(10**20, Fraction(1, 10**19)), Policy.BERNOULLI, 4004, 3.2662189353083796e-17),
    ],
)
def test_simulate_random_stream_use_is_pinned(cfg, policy, events, sim_time):
    # a uniform is drawn on a routing tie and on every Bernoulli arrival only;
    # any other draw pattern shifts the stream and these values
    traffic = TrafficMix(0.6 * harmonic_capacity(cfg), 0.5, 1.0)
    rep = simulate(cfg, traffic, policy, stop=Stop(completions=2000),
                   warmup=Warmup(0.1, 100), seed=3)
    assert rep.events == events
    assert rep.sim_time == sim_time


def _trace_digest(trace):
    rows = [(ev.time.hex(), ev.label, ev.area, ev.state_after) for ev in trace]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


_DC_HSDPA = scenario_presets("dc-hsdpa")[0]


@pytest.mark.parametrize(
    "cfg, traffic, policy, stop, collect_trace, expected",
    [
        (  # two areas, mixed traffic, completion stop
            _DC_HSDPA, TrafficMix(0.8 * harmonic_capacity(_DC_HSDPA), 0.5, 1.0), Policy.JFQ,
            Stop(completions=30_000), 0,
            dict(
                events=60003, sim_time="0x1.4221e603f3b29p+13",
                estimates={
                    ("dc", 0): ("0x1.590e201379ab3p+2", "0x1.fc09a6d4956dcp-2", 6600),
                    ("dc", 1): ("0x1.125149c32d621p-1", "0x1.790175444ff2fp-5", 6749),
                    ("sc", 0): ("0x1.6e32a9fbf847dp+1", "0x1.1a17603ebe6a7p-2", 6786),
                    ("sc", 1): ("0x1.3551e494ba160p-2", "0x1.d4b3d974af56fp-6", 6813),
                },
                trend=("0x1.8f8e7860f2d37p-12", "0x1.6c15037aec889p+1", False),
                trace=(0, hashlib.sha256(b"[]").hexdigest()),
            ),
        ),
        (  # the horizon ends the run, with one flow still in service
            single(1, 2), TrafficMix(1.6, 0.5, 1.0), Policy.BERNOULLI,
            Stop(horizon=2400.0), 0,
            dict(
                events=7763, sim_time=(2400.0).hex(),
                estimates={
                    ("dc", 0): ("0x1.96390244579fdp+0", "0x1.c57ffaffe670fp-3", 1398),
                    ("sc", 0): ("0x1.a2ffb6ce36fa2p-1", "0x1.7395b093d7ecdp-4", 1483),
                },
                trend=("-0x1.6523858ab132ep-12", "-0x1.9629ec4f79443p+0", False),
                trace=(0, hashlib.sha256(b"[]").hexdigest()),
            ),
        ),
        (  # event trace collected
            single(1, 2), TrafficMix(1.8, 0.5, 1.0), Policy.JSQ,
            Stop(completions=3000), 2500,
            dict(
                events=6002, sim_time="0x1.9d17a7a16447cp+10",
                estimates={
                    ("dc", 0): ("0x1.519eff0603580p+0", "0x1.e341089c420f5p-3", 953),
                    ("sc", 0): ("0x1.7e9861893685dp-1", "0x1.c9673a63cbd01p-4", 1047),
                },
                trend=("0x1.4fe47a54bb48ep-12", "0x1.5210b62c8f1b0p-1", False),
                trace=(2500, "c5186f77b5d0159e5126a679f37583e80ca33685758f44ac66bb13382abec843"),
            ),
        ),
    ],
    ids=["dc-hsdpa-jfq", "horizon-bernoulli", "trace-jsq"],
)
def test_simulate_output_is_pinned(cfg, traffic, policy, stop, collect_trace, expected):
    # every reported figure, bit for bit, as float.hex
    rep = simulate(cfg, traffic, policy, stop=stop, warmup=Warmup(0.1, 1000), seed=5,
                   collect_trace=collect_trace)
    assert rep.events == expected["events"]
    assert rep.sim_time.hex() == expected["sim_time"]
    estimates = {key: (est.gamma_hat.hex(), est.half_width.hex(), est.completions)
                 for key, est in rep.estimates.items()}
    assert estimates == expected["estimates"]
    assert type(rep.sim_time) is float
    trend = (rep.trend.slope.hex(), rep.trend.t_stat.hex(), rep.trend.unstable)
    assert trend == expected["trend"]
    assert (len(rep.trace), _trace_digest(rep.trace)) == expected["trace"]


def test_instability_flag_matches_load_sign():
    cfg = single(1, 1)
    heavy = simulate(cfg, TrafficMix(2.4, 0.5, 1.0), stop=Stop(horizon=300.0),
                     warmup=Warmup(0.2, 10**9), seed=1)
    assert heavy.trend.unstable
    light = simulate(cfg, TrafficMix(1.0, 0.5, 1.0), stop=Stop(horizon=300.0),
                     warmup=Warmup(0.2, 10**9), seed=1)
    assert not light.trend.unstable


def test_trend_is_exact_past_two_to_the_eighteen_events():
    # 280,000 events, beyond 2**18: the trend must still read the population
    # at each grid time exactly, as the full event trace records it
    traffic = TrafficMix(1.5, 0.5, 1.0)
    rep = simulate(single(1, 2), traffic, Policy.JFQ, stop=Stop(completions=140_000),
                   seed=2, collect_trace=300_000)
    assert rep.events == len(rep.trace) > 1 << 18
    times = np.array([0.0] + [ev.time for ev in rep.trace])
    pops = np.array([0.0] + [float(sum(ev.state_after)) for ev in rep.trace])
    grid = np.linspace(0.0, rep.sim_time, TREND_SAMPLES)
    expected = _ols_trend(grid, pops[np.searchsorted(times, grid, side="right") - 1])
    assert rep.trend == expected


def test_event_frequencies_match_generator_rates():
    # chi-square on the transitions leaving the most-visited state with at
    # least three outgoing event types
    cfg = single(1, 2)
    traffic = TrafficMix(1.5, 0.5, 1.0)
    n_events = 60_000
    rep = simulate(cfg, traffic, Policy.JFQ, stop=Stop(completions=n_events // 2),
                   warmup=Warmup(0.0, 1), seed=21, collect_trace=n_events)
    transitions = defaultdict(Counter)
    previous = (0, 0, 0)
    for ev in rep.trace:
        transitions[previous][ev.label] += 1
        previous = ev.state_after

    gen = build_generator(cfg, traffic, Truncation(max_total=40))
    space = gen.space
    label_delta = {"T1": (0, +1), "T2": (1, +1), "T3": (2, +1),
                   "T4": (0, -1), "T5": (1, -1), "T6": (2, -1)}

    best = None
    for state, counter in transitions.items():
        if len(counter) >= 3 and sum(counter.values()) >= 2000:
            if best is None or sum(counter.values()) > sum(transitions[best].values()):
                best = state
    assert best is not None
    counter = transitions[best]
    src = space.index_of(best)
    expected_rates = {}
    for label, (comp, delta) in label_delta.items():
        target = list(best)
        target[comp] += delta
        if min(target) < 0:
            continue
        rate = gen.Q[src, space.index_of(tuple(target))]
        if rate > 0:
            expected_rates[label] = rate
    assert set(counter) <= set(expected_rates)
    labels = sorted(expected_rates)
    observed = np.array([counter.get(lbl, 0) for lbl in labels], dtype=float)
    total_rate = sum(expected_rates.values())
    expected = np.array([expected_rates[lbl] / total_rate for lbl in labels]) * observed.sum()
    result = chisquare(observed, expected)
    assert result.pvalue > 1e-3


def test_simulator_reads_the_shared_departure_rates(monkeypatch):
    # a DC rate scaled at the simulator's reference to the rate rule changes
    # the path: the event loop keeps no rate arithmetic of its own
    cfg = single(1, 2)
    traffic = TrafficMix(1.5, 0.5, 1.0)
    base = simulate(cfg, traffic, Policy.JFQ, Stop(completions=2000), seed=5)
    rule = sim.departure_rates

    def faster_dc(*args):
        sc1, sc2, dc = rule(*args)
        return sc1, sc2, dc * 1.05

    monkeypatch.setattr(sim, "departure_rates", faster_dc)
    changed = simulate(cfg, traffic, Policy.JFQ, Stop(completions=2000), seed=5)
    assert changed.sim_time != base.sim_time
    assert changed != base


def test_sim_confidence_intervals_cover_ctmc_value():
    # light version of the cross-validation gate: 6 replications, expect most
    # intervals to contain the exact value
    cfg = single(1, 2)
    traffic = TrafficMix(1.5, 0.0, 1.0)
    report, _ = solve_model(cfg, traffic)
    truth = report.gamma_dc(0)
    hits = 0
    for stream in range(6):
        rep = simulate(cfg, traffic, stop=Stop(completions=20_000),
                       warmup=Warmup(0.1, 1000), seed=42, stream=stream, n_batches=10)
        est = rep.estimate("dc", 0)
        if abs(est.gamma_hat - truth) <= est.half_width:
            hits += 1
    assert hits >= 4


# --- resumable trajectories ------------------------------------------------------


@pytest.mark.parametrize("phi", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("areas", [1, 2])
def test_advancing_to_k_then_2k_equals_one_run_to_2k(areas, policy, phi):
    # a report taken between the two steps (as a capacity probe does) must
    # not disturb the path; 4,000 completions cross the 8,192-draw blocks
    cfg = single(1, 2) if areas == 1 else scenario_presets("dc-hsdpa")[0]
    traffic = TrafficMix(0.7 * harmonic_capacity(cfg), phi, 1.0)
    kwargs = dict(warmup=Warmup(0.2, 500), n_batches=10, min_group=100)
    run = Trajectory(cfg, traffic, policy, seed=7, stream=3)
    run.advance(Stop(completions=2000)).report(**kwargs)
    stepped = run.advance(Stop(completions=4000)).report(**kwargs)
    whole = simulate(cfg, traffic, policy, Stop(completions=4000), seed=7, stream=3, **kwargs)
    assert stepped == whole


def test_a_path_resumed_after_a_horizon_is_the_same_path():
    # the horizon stop leaves the next holding time undrawn, so the resumed
    # path, its trace included, equals one run to the later horizon
    cfg = single(1, 1)
    traffic = TrafficMix(1.4, 0.5, 1.0)
    run = Trajectory(cfg, traffic, Policy.JFQ, seed=4, stream=1, collect_trace=400)
    first = run.advance(Stop(horizon=50.0)).report()
    assert 0 < first.events < 400 and first.sim_time == 50.0
    stepped = run.advance(Stop(horizon=300.0)).report()
    whole = simulate(cfg, traffic, Policy.JFQ, Stop(horizon=300.0), seed=4, stream=1,
                     collect_trace=400)
    assert stepped == whole
    assert len(whole.trace) == 400


def test_advance_rejects_a_horizon_in_the_past():
    run = Trajectory(single(1, 1), TrafficMix(1.0, 0.5, 1.0))
    run.advance(Stop(horizon=10.0))
    with pytest.raises(ConfigError, match="lies before"):
        run.advance(Stop(horizon=5.0))


# --- per-state rate memo ---------------------------------------------------------


def _memo_cases():
    # the grid of test_advancing_to_k_then_2k_equals_one_run_to_2k
    for areas in (1, 2):
        cfg = single(1, 2) if areas == 1 else scenario_presets("dc-hsdpa")[0]
        for policy in Policy:
            for phi in (0.0, 0.5, 1.0):
                traffic = TrafficMix(0.7 * harmonic_capacity(cfg), phi, 1.0)
                yield pytest.param(cfg, traffic, policy, Stop(completions=4000), 0, None,
                                   id=f"{areas}-{policy.value}-{phi}")
    yield pytest.param(single(1, 1), TrafficMix(1.4, 0.5, 1.0), Policy.JFQ,
                       Stop(horizon=300.0), 400, None, id="horizon-trace")
    # overloaded: the population keeps growing, so the states outgrow a small memo
    cfg = scenario_presets("dc-hsdpa")[0]
    yield pytest.param(cfg, TrafficMix(2.0 * harmonic_capacity(cfg), 0.5, 1.0), Policy.JFQ,
                       Stop(completions=3000), 10_000, "outgrows", id="overloaded-two-area")
    # equal carriers in both areas: fastest-queue ties whenever the cell's n1
    # and n2 are equal, and a uniform then picks the carrier
    cfg = CellConfig(areas=(AreaSpec(1, 1, 0.5), AreaSpec(1, 1, 0.5)))
    yield pytest.param(cfg, TrafficMix(0.7 * harmonic_capacity(cfg), 0.5, 1.0), Policy.JFQ,
                       Stop(completions=3000), 10_000, "ties", id="two-area-jfq-ties")


def _sc_arrivals_on_a_tie(trace):
    # SC arrivals (T1, T2) whose state before the event has equal cell
    # totals of SC users on the two carriers
    before = (0,) * len(trace[0].state_after)
    ties = 0
    for ev in trace:
        if ev.label in ("T1", "T2"):
            ties += sum(before[0::3]) == sum(before[1::3])
        before = ev.state_after
    return ties


@pytest.mark.parametrize("cfg, traffic, policy, stop, collect_trace, shows",
                         list(_memo_cases()))
def test_memoized_and_recomputed_rates_give_the_same_path(
    monkeypatch, cfg, traffic, policy, stop, collect_trace, shows
):
    # the memo only replays what it computed, so a run that never stores a
    # state and one that runs out of room give the default run's report: the
    # event picked by bisection on a state's cuts is the one the scan picks,
    # and an SC arrival routed from the memo's table draws the same uniforms
    # as one routed on the scan path
    kwargs = dict(stop=stop, warmup=Warmup(0.2, 500), seed=7, stream=3, n_batches=10,
                  min_group=100, collect_trace=collect_trace)
    default = simulate(cfg, traffic, policy, **kwargs)
    for cap in (0, 64):
        monkeypatch.setattr(sim, "_MEMO_STATES", cap)
        assert simulate(cfg, traffic, policy, **kwargs) == default
    if shows:  # the path's states outgrow the small memo
        assert len({ev.state_after for ev in default.trace}) > 64
    if shows == "ties":
        assert len(default.trace) == default.events  # the whole path is traced
        assert _sc_arrivals_on_a_tie(default.trace) > 100


# --- event tables --------------------------------------------------------------


def _random_rows():
    # rows shaped like a state's rates (2 arrivals per area, then 3
    # departures per area) for one, two and three areas: a third of the
    # rates zero, the rest spread over 1e-3 .. 1e3
    rng = np.random.default_rng(1977)
    for length in (5, 10, 15):
        for _ in range(1500):
            rates = 10.0 ** rng.uniform(-3.0, 3.0, length)
            rates[rng.random(length) < 1 / 3] = 0.0
            if rates.any():
                yield rates.tolist()


def test_bisection_on_the_cuts_picks_the_scans_event():
    # at every cut, one ulp either side of it, and at and past the running
    # total (where the scan walks off the end and the guard steps back) the
    # bisection picks what the scan picks
    for rates in _random_rows():
        cuts = sim._cuts(rates)
        assert len(cuts) == len(rates) - 1
        sums = list(accumulate(rates))
        total = sums[-1]
        probes = [0.0, total, math.nextafter(total, math.inf), 2.0 * total]
        for cut in cuts:
            if math.isfinite(cut):
                probes += (cut, math.nextafter(cut, -math.inf), math.nextafter(cut, math.inf))
        for u in probes:
            if u >= 0.0:
                assert bisect_right(cuts, u) == sim._scan(rates, u), (rates, u)
        # each finite cut is the running sum of the rates before its event
        for k, cut in enumerate(cuts, start=1):
            if math.isfinite(cut):
                assert cut == sums[k - 1], (rates, k)
