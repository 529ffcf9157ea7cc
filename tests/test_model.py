import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caflow.errors import (
    ConfigError,
    EmptyCarrierError,
    InfeasibleTargetError,
    UnstableSystemError,
    UnsupportedGeometryError,
)
from caflow.model import (
    AreaSpec,
    CellConfig,
    Stability,
    SystemState,
    TrafficMix,
    bernoulli_probabilities,
    dc_aggregate_rate,
    dc_only_mean_occupancy,
    dc_only_throughput,
    fluid_total_drift,
    harmonic_capacity,
    mixed_mean_throughput,
    offered_load,
    per_user_rates,
    ring_area_probabilities,
    sc_jfq_throughput_approx,
    stability_verdict,
    theta_approximation,
    vb_split,
)


def single(c1, c2):
    return CellConfig.single_area(c1, c2)


def two_area(caps_center, caps_edge, q=0.5):
    return CellConfig(
        areas=(
            AreaSpec(caps_center[0], caps_center[1], q),
            AreaSpec(caps_edge[0], caps_edge[1], 1.0 - q),
        )
    )


def state1(n1, n2, m):
    return SystemState((n1, n2, m))


# --- ring probabilities ----------------------------------------------------


def test_ring_single_covers_cell():
    assert ring_area_probabilities([600.0]) == [1.0]


def test_ring_equal_area_split():
    qs = ring_area_probabilities([600.0 / math.sqrt(2.0), 600.0])
    assert qs[0] == pytest.approx(0.5, abs=1e-12)
    assert qs[1] == pytest.approx(0.5, abs=1e-12)


def test_ring_quarter():
    # hand evaluation: 300^2 / 600^2 = 0.25
    assert ring_area_probabilities([300.0, 600.0]) == [0.25, 0.75]


@pytest.mark.parametrize("bad", [[], [0.0], [-1.0, 2.0], [2.0, 2.0], [3.0, 1.0]])
def test_ring_rejects_bad_geometry(bad):
    with pytest.raises(ConfigError):
        ring_area_probabilities(bad)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=6, unique=True)
)
def test_ring_probabilities_sum_to_one(radii):
    qs = ring_area_probabilities(sorted(radii))
    assert abs(math.fsum(qs) - 1.0) <= 1e-12
    assert all(q >= 0.0 for q in qs)


# --- config and traffic validation ----------------------------------------


def test_config_rejects_bad_q_sum():
    with pytest.raises(ConfigError):
        CellConfig(areas=(AreaSpec(1, 1, 0.5), AreaSpec(1, 1, 0.4)))


def test_config_rejects_nonpositive_capacity():
    with pytest.raises(ConfigError):
        AreaSpec(0, 1, 1.0)
    with pytest.raises(ConfigError):
        AreaSpec(1, -2, 1.0)


def test_config_radii_must_match_q():
    with pytest.raises(ConfigError):
        CellConfig(
            areas=(AreaSpec(1, 1, 0.5), AreaSpec(1, 1, 0.5)),
            radii=(300.0, 600.0),  # ring split is 0.25/0.75
        )
    cfg = CellConfig.from_radii([(1, 1), (1, 1)], [300.0, 600.0])
    assert cfg.areas[0].q == 0.25


def test_capacity_exact_ratio_from_decimal_string():
    a = AreaSpec("1.3", "13/10", 1.0)
    assert a.c1_exact == Fraction(13, 10)
    assert a.c2_exact == Fraction(13, 10)
    assert a.c1 == pytest.approx(1.3)
    # floats are read through their shortest decimal repr
    b = AreaSpec(1.3, 2, 1.0)
    assert b.c1_exact == Fraction(13, 10)


def test_traffic_class_rates_are_exact_complements():
    t = TrafficMix(lambda_total=3.0, phi=0.1, sigma=1.0)
    assert t.alpha + t.beta == t.lambda_total  # exact, not approx


@given(
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_traffic_split_exact_for_any_phi(lam, phi):
    t = TrafficMix(lambda_total=lam, phi=phi, sigma=2.0)
    assert t.alpha + t.beta == lam


def test_traffic_rejects_out_of_range():
    with pytest.raises(ConfigError):
        TrafficMix(lambda_total=-1.0, phi=0.5, sigma=1.0)
    with pytest.raises(ConfigError):
        TrafficMix(lambda_total=1.0, phi=1.5, sigma=1.0)
    with pytest.raises(ConfigError):
        TrafficMix(lambda_total=1.0, phi=0.5, sigma=0.0)


def test_state_validation_and_accessors():
    s = SystemState((1, 2, 3, 4, 5, 6))
    assert (s.n1, s.n2, s.m) == (5, 7, 9)
    with pytest.raises(ConfigError):
        SystemState((1, 2))
    with pytest.raises(ConfigError):
        SystemState((1, -1, 0))


# --- rate functions ---------------------------------------------------------


def test_per_user_rates_basic():
    cfg = single(1, 1)
    assert per_user_rates(state1(1, 0, 1), 0, cfg) == (0.5, 1.0)


def test_per_user_rates_lone_dc_user():
    cfg = single(1, 2)
    assert per_user_rates(state1(0, 0, 1), 0, cfg) == (1.0, 2.0)


def test_per_user_rates_hand_substitution():
    cfg = single(10, 14)
    d1, d2 = per_user_rates(state1(2, 3, 1), 0, cfg)
    assert d1 == pytest.approx(10.0 / 3.0)
    assert d2 == pytest.approx(3.5)


def test_per_user_rates_empty_carrier():
    cfg = single(1, 1)
    with pytest.raises(EmptyCarrierError):
        per_user_rates(state1(0, 1, 0), 0, cfg)


def test_dc_aggregate_rate():
    cfg = single(1, 2)
    assert dc_aggregate_rate(state1(0, 0, 1), 0, cfg) == 3.0
    assert dc_aggregate_rate(state1(0, 0, 2), 0, single(1, 1)) == 1.0
    assert dc_aggregate_rate(state1(1, 1, 1), 0, single(10, 14)) == pytest.approx(12.0)
    with pytest.raises(EmptyCarrierError):
        dc_aggregate_rate(state1(1, 1, 0), 0, cfg)


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=1.1, max_value=10.0),
)
def test_rate_homogeneity_under_capacity_scaling(n1, n2, m, c1, c2, lam):
    s = state1(n1, n2, m)
    base = per_user_rates(s, 0, single(c1, c2))
    scaled = per_user_rates(s, 0, single(c1 * lam, c2 * lam))
    assert scaled[0] == pytest.approx(lam * base[0], rel=1e-12)
    assert scaled[1] == pytest.approx(lam * base[1], rel=1e-12)


# --- volume balancing --------------------------------------------------------


def test_vb_split_values():
    cfg = single(1, 2)
    s1, s2 = vb_split(state1(0, 0, 1), 0, cfg, 0.1)
    assert s1 == pytest.approx(0.1)
    assert s2 == pytest.approx(0.2)


def test_vb_split_rejects_bad_args():
    cfg = single(1, 1)
    with pytest.raises(EmptyCarrierError):
        vb_split(state1(1, 1, 0), 0, cfg, 0.1)
    with pytest.raises(ConfigError):
        vb_split(state1(0, 0, 1), 0, cfg, 0.0)


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=1e-4, max_value=10.0),
)
def test_vb_split_conserves_aggregate_volume(n1, n2, m, c1, c2, dt):
    s = state1(n1, n2, m)
    cfg = single(c1, c2)
    s1, s2 = vb_split(s, 0, cfg, dt)
    assert abs((s1 + s2) - dc_aggregate_rate(s, 0, cfg) * dt) <= 1e-12 * max(1.0, s1 + s2)


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=1e-4, max_value=10.0),
)
def test_vb_split_completes_both_carriers_together(n1, n2, m, c1, c2, dt):
    # residual volumes produced by the split drain in equal times
    s = state1(n1, n2, m)
    cfg = single(c1, c2)
    d1, d2 = per_user_rates(s, 0, cfg)
    s1, s2 = vb_split(s, 0, cfg, dt)
    assert abs(s1 / d1 - s2 / d2) <= 1e-12 * max(1.0, dt)


def test_vb_equal_completion_times_example():
    # residual volumes (1, 2) at rates (1, 2): both finish after 1 s
    assert 1.0 / 1.0 == 2.0 / 2.0 == 1.0


# --- capacity, load, stability ----------------------------------------------


def test_harmonic_capacity_single_area():
    assert harmonic_capacity(single(1, 1)) == pytest.approx(2.0)


def test_harmonic_capacity_two_areas():
    # hand evaluation: 1 / (0.5/24 + 0.5/2.4) = 48/11
    cfg = two_area((10, 14), (1, "1.4"))
    assert harmonic_capacity(cfg) == pytest.approx(48.0 / 11.0, rel=1e-12)
    lte = two_area((150, 70), (15, 7))
    assert harmonic_capacity(lte) == pytest.approx(40.0, rel=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=100.0),
            st.floats(min_value=0.1, max_value=100.0),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_harmonic_capacity_between_extremes(caps):
    n = len(caps)
    cfg = CellConfig(areas=tuple(AreaSpec(c1, c2, 1.0 / n) for c1, c2 in caps))
    cbar = harmonic_capacity(cfg)
    totals = [c1 + c2 for c1, c2 in caps]
    assert min(totals) - 1e-9 <= cbar <= max(totals) + 1e-9


def test_offered_load_single_area():
    load = offered_load(single(1, 1), TrafficMix(1.0, 0.5, 1.0))
    assert load.rho == pytest.approx(0.5)


def test_offered_load_lte_preset_value():
    lte = two_area((150, 70), (15, 7))
    load = offered_load(lte, TrafficMix(12.8, 1.0, 1.0))
    assert load.rho == pytest.approx(0.32, rel=1e-12)


def test_offered_load_per_area():
    cfg = two_area((12, 12), (12, 12))
    load = offered_load(cfg, TrafficMix(1.0, 0.0, 1.0))
    assert load.rho_per_area[0] == pytest.approx(0.5 / 24.0, rel=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=50.0),
            st.floats(min_value=0.1, max_value=50.0),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_offered_load_additivity(caps, lam, phi):
    n = len(caps)
    cfg = CellConfig(areas=tuple(AreaSpec(c1, c2, 1.0 / n) for c1, c2 in caps))
    load = offered_load(cfg, TrafficMix(lam, phi, 1.5))
    assert abs(load.rho - math.fsum(load.rho_per_area)) <= 1e-12


def test_stability_verdicts():
    cfg = single(1, 1)
    assert stability_verdict(cfg, TrafficMix(1.0, 0.5, 1.0)).kind is Stability.STABLE
    assert stability_verdict(cfg, TrafficMix(2.0, 0.5, 1.0)).kind is Stability.CRITICAL
    assert stability_verdict(cfg, TrafficMix(2.4, 0.5, 1.0)).kind is Stability.UNSTABLE


def test_stability_note_only_for_multi_area():
    assert stability_verdict(single(1, 1), TrafficMix(1.0, 0.5, 1.0)).note is None
    cfg = two_area((10, 10), (1, 1))
    verdict = stability_verdict(cfg, TrafficMix(1.0, 0.5, 1.0))
    assert verdict.note is not None and "conjecture" in verdict.note


def test_fluid_total_drift():
    cfg = single(1, 1)
    assert fluid_total_drift(cfg, TrafficMix(1.5, 0.5, 1.0)) == pytest.approx(-0.5)
    assert fluid_total_drift(cfg, TrafficMix(2.0, 0.5, 1.0)) == pytest.approx(0.0)
    assert fluid_total_drift(cfg, TrafficMix(3.0, 0.5, 1.0)) == pytest.approx(1.0)
    with pytest.raises(UnsupportedGeometryError):
        fluid_total_drift(two_area((1, 1), (1, 1)), TrafficMix(1.0, 0.5, 1.0))


# --- closed-form throughputs --------------------------------------------------


def test_dc_only_throughput():
    cfg = single(1, 1)
    assert dc_only_throughput(cfg, TrafficMix(1.0, 0.0, 1.0), 0) == pytest.approx(1.0)
    assert dc_only_throughput(cfg, TrafficMix(0.0, 0.0, 1.0), 0) == pytest.approx(2.0)
    cfg3 = single(1, 2)
    assert dc_only_throughput(cfg3, TrafficMix(0.9, 0.0, 1.0), 0) == pytest.approx(2.1)


def test_dc_only_throughput_guards():
    cfg = single(1, 1)
    with pytest.raises(UnstableSystemError):
        dc_only_throughput(cfg, TrafficMix(2.0, 0.0, 1.0), 0)
    with pytest.raises(ConfigError):
        dc_only_throughput(cfg, TrafficMix(1.0, 0.5, 1.0), 0)


def test_dc_only_mean_occupancy():
    cfg = two_area((1, 1), (1, 1))
    # rho_j = 0.5 * 0.8 / 2 = 0.2 each, rho = 0.4: E[m_j] = 0.2 / 0.6 = 1/3
    traffic = TrafficMix(0.8, 0.0, 1.0)
    assert dc_only_mean_occupancy(cfg, traffic, 0) == pytest.approx(1.0 / 3.0)
    cfg1 = single(1, 1)
    assert dc_only_mean_occupancy(cfg1, TrafficMix(1.0, 0.0, 1.0), 0) == pytest.approx(1.0)
    assert dc_only_mean_occupancy(cfg1, TrafficMix(0.0, 0.0, 1.0), 0) == 0.0


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_littles_law_links_occupancy_and_throughput(rho, c1, c2):
    cfg = single(c1, c2)
    traffic = TrafficMix(rho * (c1 + c2), 0.0, 1.0)
    occupancy = dc_only_mean_occupancy(cfg, traffic, 0)
    gamma = traffic.beta * traffic.sigma / occupancy
    assert gamma == pytest.approx(dc_only_throughput(cfg, traffic, 0), rel=1e-9)


def test_mixed_mean_throughput():
    assert mixed_mean_throughput(1.0, 2.0, 0.5) == pytest.approx(1.5)
    assert mixed_mean_throughput(1.0, 2.0, 1.0) == 1.0
    assert mixed_mean_throughput(1.0, 2.0, 0.0) == 2.0
    # the class absent at phi = 1 or phi = 0 may have no throughput
    assert mixed_mean_throughput(1.0, None, 1.0) == 1.0
    assert mixed_mean_throughput(None, 2.0, 0.0) == 2.0
    assert mixed_mean_throughput(None, 2.0, 0.5) is None
    assert mixed_mean_throughput(1.0, None, 0.0) is None


def test_sc_jfq_throughput_approx():
    assert sc_jfq_throughput_approx(single(1, 2), 0.5, 0) == pytest.approx(1.0)
    assert sc_jfq_throughput_approx(single(1, 2), 0.0, 0) == pytest.approx(2.0)
    assert sc_jfq_throughput_approx(single(10, 14), 0.25, 0) == pytest.approx(10.5)
    with pytest.raises(UnstableSystemError):
        sc_jfq_throughput_approx(single(1, 2), 1.0, 0)


# --- sustainable-intensity approximation --------------------------------------


def lte_config():
    return two_area((150, 70), (15, 7))


def test_theta_zero_target_gives_full_capacity():
    assert theta_approximation(lte_config(), 0.5, 0.0) == pytest.approx(40.0)


def test_theta_lte_sc_only():
    theta = theta_approximation(lte_config(), 1.0, 10.0)
    assert theta == pytest.approx(40.0 * (1.0 - 10.0 / 15.0), rel=1e-12)


def test_theta_lte_dc_only():
    theta = theta_approximation(lte_config(), 0.0, 10.0)
    assert theta == pytest.approx(40.0 * (1.0 - 10.0 / 22.0), rel=1e-12)


def test_theta_infeasible_target():
    with pytest.raises(InfeasibleTargetError):
        theta_approximation(lte_config(), 1.0, 16.0)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200)
def test_theta_monotone_in_target_and_phi(phi_a, phi_b, target_a, target_b):
    cfg = lte_config()
    lo_t, hi_t = sorted((target_a, target_b))
    assert theta_approximation(cfg, phi_a, hi_t) <= theta_approximation(cfg, phi_a, lo_t) + 1e-9
    lo_p, hi_p = sorted((phi_a, phi_b))
    assert (theta_approximation(cfg, hi_p, target_a)
            <= theta_approximation(cfg, lo_p, target_a) + 1e-9)


def test_bernoulli_probabilities():
    assert bernoulli_probabilities(single(1, 2), 0) == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
    assert bernoulli_probabilities(single(3, 3), 0) == (0.5, 0.5)
    p1, p2 = bernoulli_probabilities(single(10, 14), 0)
    assert p1 == pytest.approx(5.0 / 12.0)
    assert p2 == pytest.approx(7.0 / 12.0)
