import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import chisquare, t

from caflow.ctmc import Truncation, build_generator, solve_model
from caflow.errors import ConfigError, NoDataError
from caflow.model import CellConfig, Policy, TrafficMix
from caflow.sim import (
    FlowRecord,
    Stop,
    Warmup,
    batch_means_ci,
    flow_throughput_estimate,
    simulate,
)


def single(c1, c2):
    return CellConfig.single_area(c1, c2)


# --- flow throughput estimator ------------------------------------------------


def rec(kind, area, volume, sojourn, arrived=0.0):
    return FlowRecord(kind=kind, area=area, volume=volume, arrived=arrived,
                      completed=arrived + sojourn)


def test_flow_throughput_ratio_of_means():
    records = [rec("dc", 0, 1.0, 0.5), rec("dc", 0, 3.0, 1.5)]
    assert flow_throughput_estimate(records)[("dc", 0)] == pytest.approx(2.0)


def test_flow_throughput_single_flow():
    assert flow_throughput_estimate([rec("sc", 0, 2.0, 1.0)])[("sc", 0)] == pytest.approx(2.0)


def test_flow_throughput_is_not_mean_of_ratios():
    records = [rec("sc", 0, 1.0, 1.0), rec("sc", 0, 1.0, 3.0)]
    assert flow_throughput_estimate(records)[("sc", 0)] == pytest.approx(0.5)


def test_flow_throughput_empty_is_error():
    with pytest.raises(NoDataError):
        flow_throughput_estimate([])


# --- batch means ----------------------------------------------------------------


def test_batch_means_constant_series():
    mean, half = batch_means_ci([2.5] * 100, n_batches=10)
    assert mean == pytest.approx(2.5)
    assert half == 0.0


def test_batch_means_single_batch_is_error():
    with pytest.raises(NoDataError):
        batch_means_ci([1.0, 2.0, 3.0, 4.0], n_batches=1)
    with pytest.raises(NoDataError):
        batch_means_ci([1.0, 2.0, 3.0], n_batches=2)


@pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
@pytest.mark.parametrize("df", [1, 4, 9, 19, 49])
def test_t_quantile_equals_scipy_stats(level, df):
    # the batch-means intervals take the Student-t quantile from
    # scipy.special; it must equal scipy.stats' to the last bit
    assert stdtrit(df, 0.5 + level / 2.0) == t.ppf(0.5 + level / 2.0, df)


def test_batch_means_half_width_matches_theory():
    # i.i.d. standard normals, 30 batches of 1000: the average half-width over
    # seeds should sit near 1.96 / sqrt(30000) (up to the t vs normal quantile)
    rng = np.random.default_rng(2718)
    halves = []
    for _ in range(100):
        _, half = batch_means_ci(rng.standard_normal(30_000), n_batches=30)
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
    assert rep_a.occupancy == rep_b.occupancy


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


def test_completed_volumes_are_the_sampled_ones():
    cfg = single(1, 2)
    traffic = TrafficMix(1.2, 0.5, 1.0)
    rep = simulate(
        cfg, traffic, stop=Stop(completions=3000), warmup=Warmup(0.1, 100), seed=2,
        return_records=True,
    )
    assert len(rep.records) == rep.total_completions
    assert all(r.volume > 0 and r.sojourn > 0 for r in rep.records)
    grouped = flow_throughput_estimate(rep.records)
    assert set(grouped) == {("sc", 0), ("dc", 0)}
    # the report's ratio estimate is reproducible from the records it kept
    warmup_time = 0.1 * rep.sim_time
    for (kind, area), est in rep.estimates.items():
        kept = [r for r in rep.records if r.kind == kind and r.area == area
                and r.completed > warmup_time]
        if est.gamma_hat is None:
            continue
        assert len(kept) == est.completions
        ratio = sum(r.volume for r in kept) / sum(r.sojourn for r in kept)
        assert est.gamma_hat == pytest.approx(ratio, rel=1e-12)


def test_insufficient_group_marked_not_estimated():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 0.99, 1.0)  # DC arrivals are rare
    rep = simulate(cfg, traffic, stop=Stop(completions=2000), warmup=Warmup(0.1, 100), seed=6)
    dc = rep.estimate("dc", 0)
    assert dc.insufficient
    assert dc.gamma_hat is None


def test_jfq_jsq_identical_trajectories_at_equal_capacity():
    cfg = single(2, 2)
    traffic = TrafficMix(2.0, 0.6, 1.0)
    kwargs = dict(stop=Stop(completions=4000), warmup=Warmup(0.1, 200), seed=13)
    rep_jfq = simulate(cfg, traffic, Policy.JFQ, collect_trace=2000, **kwargs)
    rep_jsq = simulate(cfg, traffic, Policy.JSQ, collect_trace=2000, **kwargs)
    assert rep_jfq.trace == rep_jsq.trace
    assert rep_jfq.estimates == rep_jsq.estimates
    assert rep_jfq.sim_time == rep_jsq.sim_time


def test_instability_flag_matches_load_sign():
    cfg = single(1, 1)
    heavy = simulate(cfg, TrafficMix(2.4, 0.5, 1.0), stop=Stop(horizon=300.0),
                     warmup=Warmup(0.2, 10**9), seed=1)
    assert heavy.trend.unstable
    light = simulate(cfg, TrafficMix(1.0, 0.5, 1.0), stop=Stop(horizon=300.0),
                     warmup=Warmup(0.2, 10**9), seed=1)
    assert not light.trend.unstable


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
