import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caflow.errors import (
    ConfigError,
    InfeasibleTargetError,
    UnstableSystemError,
    UnsupportedGeometryError,
)
from caflow.model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    dc_only_throughput,
    departure_rates,
    fluid_total_drift,
    harmonic_capacity,
    mixed_mean_throughput,
    offered_load,
    ring_area_probabilities,
    sc_carrier1_share,
    theta_approximation,
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


@pytest.mark.parametrize(
    "bad",
    [[], [0.0], [-1.0, 2.0], [2.0, 2.0], [3.0, 1.0],
     [300.0, math.nan], [math.nan, 600.0], [300.0, math.inf]],
)
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
    # exact and positive, but the float overflows or rounds to 0
    with pytest.raises(ConfigError):
        AreaSpec("1e400", 1, 1.0)
    with pytest.raises(ConfigError):
        AreaSpec(1, "1e-400", 1.0)


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


# --- departure rates --------------------------------------------------------


def rates1(c1, c2, n1, n2, m, sigma=1.0):
    # departure rates of a single-area cell, where area counts are the totals
    return departure_rates(AreaSpec(c1, c2, 1.0), sigma, n1, n2, m, n1, n2, m)


def test_departure_rates_basic():
    # carrier 1 holds an SC and a DC flow at 1/2 each; carrier 2 the DC flow at 1
    assert rates1(1, 1, 1, 0, 1) == (0.5, 0.0, 1.5)


def test_departure_rates_lone_flows():
    # a lone DC flow leaves at (c1 + c2) / sigma, a lone SC flow at c_k / sigma
    assert rates1(1, 2, 0, 0, 1, sigma=2.0) == (0.0, 0.0, 1.5)
    assert rates1(1, 2, 1, 0, 0, sigma=2.0) == (0.5, 0.0, 0.0)
    assert rates1(1, 2, 0, 1, 0, sigma=2.0) == (0.0, 1.0, 0.0)


def test_departure_rates_hand_substitution():
    # (n1, n2, m) = (2, 3, 1) on (10, 14): per-user rates 10/3 and 14/4
    r1, r2, r3 = rates1(10, 14, 2, 3, 1)
    assert r1 == pytest.approx(20.0 / 3.0)
    assert r2 == pytest.approx(10.5)
    assert r3 == pytest.approx(10.0 / 3.0 + 3.5)
    # an area's counts set its rates, the cell totals its flows' shares
    area = AreaSpec(10, 14, 0.5)
    assert departure_rates(area, 1.0, 1, 0, 1, 2, 3, 1) == (r1 / 2, 0.0, r3)


def test_departure_rates_of_empty_groups_are_zero():
    # a group with no flow leaves at rate 0.0, also when its carrier is empty
    assert rates1(1, 1, 0, 1, 0) == (0.0, 1.0, 0.0)
    assert rates1(1, 1, 0, 0, 0) == (0.0, 0.0, 0.0)


def test_departure_rates_on_arrays_match_python_ints():
    # carrier 2 is empty in some states: its zero rates must be 0.0 on arrays too
    area = AreaSpec("1.3", "0.7", 1.0)
    counts = [(n1, n2, m) for n1 in range(4) for n2 in range(4) for m in range(3)]
    n1, n2, m = (np.array(c) for c in zip(*counts))
    arrays = departure_rates(area, 1.5, n1, n2, m, n1 + 1, n2, m)
    for k, (a, b, c) in enumerate(counts):
        assert departure_rates(area, 1.5, a, b, c, a + 1, b, c) == tuple(r[k] for r in arrays)


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_departure_rates_dc_is_the_sum_of_both_carriers(n1, n2, m, c1, c2):
    # volume balancing: a DC flow is served at c1/(n1+m) + c2/(n2+m)
    _, _, dc = rates1(c1, c2, n1, n2, m)
    assert dc / m == pytest.approx(c1 / (n1 + m) + c2 / (n2 + m), rel=1e-15)


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_departure_rates_conserve_work(n1, n2, m, c1, c2, sigma):
    # processor sharing is work-conserving: the flows of a single-area cell
    # drain volume at the full capacity of every busy carrier
    drained = sigma * math.fsum(rates1(c1, c2, n1, n2, m, sigma))
    busy = c1 * (n1 + m > 0) + c2 * (n2 + m > 0)
    assert drained == pytest.approx(busy, rel=1e-12)


@given(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=1.1, max_value=10.0),
)
def test_rate_homogeneity_under_capacity_scaling(n1, n2, m, c1, c2, lam):
    base = rates1(c1, c2, n1, n2, m)
    scaled = rates1(c1 * lam, c2 * lam, n1, n2, m)
    for b, s in zip(base, scaled):
        assert s == pytest.approx(lam * b, rel=1e-12)


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
    rho = offered_load(single(1, 1), TrafficMix(1.0, 0.5, 1.0))
    assert rho == pytest.approx(0.5)


def test_offered_load_lte_preset_value():
    lte = two_area((150, 70), (15, 7))
    rho = offered_load(lte, TrafficMix(12.8, 1.0, 1.0))
    assert rho == pytest.approx(0.32, rel=1e-12)


def test_offered_load_per_area():
    cfg = two_area((12, 12), (12, 12))
    rho = offered_load(cfg, TrafficMix(1.0, 0.0, 1.0))
    assert rho == pytest.approx(1.0 / 24.0, rel=1e-12)


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
    rho = offered_load(cfg, TrafficMix(lam, phi, 1.5))
    assert rho == pytest.approx(lam * 1.5 / harmonic_capacity(cfg), rel=1e-12)


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


def test_mixed_mean_throughput():
    assert mixed_mean_throughput(1.0, 2.0, 0.5) == pytest.approx(1.5)
    assert mixed_mean_throughput(1.0, 2.0, 1.0) == 1.0
    assert mixed_mean_throughput(1.0, 2.0, 0.0) == 2.0
    # the class absent at phi = 1 or phi = 0 may have no throughput
    assert mixed_mean_throughput(1.0, None, 1.0) == 1.0
    assert mixed_mean_throughput(None, 2.0, 0.0) == 2.0
    assert mixed_mean_throughput(None, 2.0, 0.5) is None
    assert mixed_mean_throughput(1.0, None, 0.0) is None


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
    def share(c1, c2):
        return sc_carrier1_share(Policy.BERNOULLI, single(c1, c2).areas[0], 0, 0, 0)

    assert share(1, 2) == pytest.approx(1.0 / 3.0)
    assert share(3, 3) == 0.5
    assert share(10, 14) == pytest.approx(5.0 / 12.0)
