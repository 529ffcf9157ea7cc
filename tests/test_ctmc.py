import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from caflow.ctmc import (
    SOLVE_TOL,
    Generator,
    StateSpace,
    Truncation,
    blocking_mass,
    build_generator,
    enumerate_states,
    solve_model,
    solve_stationary,
)
from caflow.errors import ConfigError, ConvergenceError, StateSpaceTooLargeError
from caflow.model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    harmonic_capacity,
    sc_carrier1_share,
)


def single(c1, c2):
    return CellConfig.single_area(c1, c2)


def two_area(caps_center, caps_edge):
    return CellConfig(
        areas=(AreaSpec(*caps_center, 0.5), AreaSpec(*caps_edge, 0.5))
    )


# --- enumeration -------------------------------------------------------------


def test_enumerate_j1_max1():
    space = enumerate_states(single(1, 1), Truncation(max_total=1))
    states = {tuple(row) for row in space.counts.tolist()}
    assert states == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_enumerate_j1_max2_count():
    # lattice points with n1 + n2 + m <= 2: C(5, 3) = 10
    space = enumerate_states(single(1, 1), Truncation(max_total=2))
    assert len(space) == 10


def test_enumerate_j2_max1_count():
    space = enumerate_states(two_area((1, 1), (1, 1)), Truncation(max_total=1))
    assert len(space) == 7


def test_enumerate_is_lexicographic_and_bijective():
    space = enumerate_states(single(1, 2), Truncation(max_total=3))
    rows = space.counts.tolist()
    assert rows == sorted(rows)
    for i in range(len(space)):
        assert space.index_of(space.state_at(i)) == i
    # outside the lattice, including states whose keys could alias a member
    for outside in [(4, 0, 0), (1, 1, 2), (0, 4, 0), (0, 0, 4), (1, 0, 4), (0, 1, -1)]:
        with pytest.raises(KeyError):
            space.index_of(outside)


def test_two_area_space_with_a_pruned_class_round_trips():
    # max_total + 1 to the power 3J passes 2**62 here; DC-only traffic leaves
    # the SC components without an axis (radix 1), so the key still fits
    space = enumerate_states(
        two_area((1, 1), (1, 1)), Truncation(max_total=1300),
        traffic=TrafficMix(1.0, 0.0, 1.0),
    )
    assert len(space) == math.comb(1300 + 2, 2)
    for i in (0, 1, 650, len(space) // 2, len(space) - 1):
        assert space.index_of(space.state_at(i)) == i
    assert space.index_of((0, 0, 1300, 0, 0, 0)) == len(space) - 1
    with pytest.raises(KeyError):
        space.index_of((1, 0, 0, 0, 0, 0))


def test_lattice_key_limit_is_a_config_error():
    areas = tuple(AreaSpec(1, 1, Fraction(1, 7)) for _ in range(7))
    with pytest.raises(ConfigError, match="2\\*\\*62"):
        enumerate_states(CellConfig(areas=areas), Truncation(max_total=7))


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=8))
def test_enumeration_count_matches_closed_form(n_areas, max_total):
    areas = tuple(AreaSpec(1, 1, 1.0 / n_areas) for _ in range(n_areas))
    cfg = CellConfig(areas=areas)
    trunc = Truncation(max_total=max_total)
    space = enumerate_states(cfg, trunc)
    assert len(space) == math.comb(max_total + 3 * n_areas, 3 * n_areas)


def test_enumerate_class_caps_prune_states():
    # a class without arrivals has no axis; the other class keeps its own
    dc_only = enumerate_states(single(1, 1), Truncation(max_total=5),
                               traffic=TrafficMix(1.0, 0.0, 1.0))
    assert len(dc_only) == 6  # only the DC axis remains
    assert dc_only.counts[:, 0].max() == 0 and dc_only.counts[:, 1].max() == 0
    sc_only = enumerate_states(single(1, 1), Truncation(max_total=5),
                               traffic=TrafficMix(1.0, 1.0, 1.0))
    assert len(sc_only) == math.comb(5 + 2, 2)
    assert sc_only.counts[:, 2].max() == 0
    mixed = enumerate_states(single(1, 1), Truncation(max_total=5),
                             traffic=TrafficMix(1.0, 0.5, 1.0))
    assert len(mixed) == math.comb(5 + 3, 3)


def test_pruned_lattice_matches_the_full_lattice():
    # the states a pruned class would add are transient, so the law on the
    # remaining axis is the same, and so is the blocking mass
    cfg, traffic = single(1, 2), TrafficMix(1.5, 0.0, 1.0)
    trunc = Truncation(max_total=25)
    full = solve_stationary(build_generator(cfg, traffic, trunc))
    pruned_space = enumerate_states(cfg, trunc, traffic=traffic)
    pruned = solve_stationary(build_generator(cfg, traffic, pruned_space))
    on_axis = [full.space.index_of(state) for state in pruned_space.counts]
    assert np.abs(full.pi[on_axis] - pruned.pi).max() <= 1e-12
    assert pruned.blocking["dc"] == pytest.approx(full.blocking["dc"], rel=1e-9)


def test_enumerate_too_large_suggests_cap():
    with pytest.raises(StateSpaceTooLargeError) as err:
        enumerate_states(single(1, 1), Truncation(max_total=500), max_states=1000)
    assert err.value.suggested_max_total is not None
    suggested = err.value.suggested_max_total
    assert math.comb(suggested + 3, 3) <= 1000


# --- routing -----------------------------------------------------------------


def share(policy, cfg, n1, n2, m):
    return sc_carrier1_share(policy, cfg.areas[0], n1, n2, m)


def test_jfq_route_examples():
    assert share(Policy.JFQ, single(1, 1), 2, 1, 0) == 0.0
    assert share(Policy.JFQ, single(1, 2), 0, 1, 0) == 0.5
    assert share(Policy.JFQ, single(1, 2), 0, 0, 1) == 0.0


def test_jfq_route_exact_tie_with_decimal_capacities():
    # 1.3/(0+0+1) vs 2.6/(1+0+1): exact tie thanks to rational arithmetic
    assert share(Policy.JFQ, single("1.3", "2.6"), 0, 1, 0) == 0.5


def test_jsq_route_compares_totals():
    assert share(Policy.JSQ, single(1, 2), 1, 2, 0) == 1.0
    assert share(Policy.JSQ, single(1, 2), 2, 1, 0) == 0.0
    assert share(Policy.JSQ, single(1, 2), 1, 1, 1) == 0.5


@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=20),
    st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=20),
    st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=11),
)
def test_jfq_route_scale_invariant(n1, n2, m, c1, c2, lam):
    base = share(Policy.JFQ, single(c1, c2), n1, n2, m)
    scaled = share(Policy.JFQ, single(c1 * lam, c2 * lam), n1, n2, m)
    assert base == scaled


@settings(max_examples=40, deadline=None)
@given(
    caps=st.sampled_from([
        (1, 2), (1, "1.3"), ("1.3", "2.6"), (0.1 + 0.2, 0.7),
        # exact ratio near 1e39/21: fastest-queue cross-products pass int64
        (Fraction(10**20 + 1, 3), Fraction(7, 10**19 + 3)),
    ]),
    two_areas=st.booleans(),
    policy=st.sampled_from(list(Policy)),
    phi=st.sampled_from([0.3, 1.0]),
    max_total=st.integers(min_value=1, max_value=6),
)
def test_generator_sc_arrivals_follow_the_routing_rule(caps, two_areas, policy, phi, max_total):
    areas = (AreaSpec(*caps, 0.5), AreaSpec(1, 3, 0.5)) if two_areas else (AreaSpec(*caps, 1.0),)
    cfg = CellConfig(areas=areas)
    traffic = TrafficMix(0.5 * harmonic_capacity(cfg), phi, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=max_total), policy)
    space = gen.space
    for i in range(len(space)):
        if space.total[i] == max_total:
            continue  # arrivals from the top layer are dropped
        counts = [int(c) for c in space.counts[i]]
        n1, n2, m = sum(counts[0::3]), sum(counts[1::3]), sum(counts[2::3])
        for j, area in enumerate(cfg.areas):
            alpha_j = traffic.area_rates(cfg, j)[0]
            p1 = sc_carrier1_share(policy, area, n1, n2, m)
            for slot, rate in ((0, alpha_j * p1), (1, alpha_j * (1.0 - p1))):
                to = list(counts)
                to[3 * j + slot] += 1
                assert gen.Q[i, space.index_of(to)] == rate


# --- generator structure -------------------------------------------------------


def mixed_gen(c1=1, c2=2, rho=0.5, phi=0.5, max_total=8, policy=Policy.JFQ):
    cfg = single(c1, c2)
    lam = rho * (cfg.areas[0].c_total)
    traffic = TrafficMix(lam, phi, 1.0)
    return build_generator(cfg, traffic, Truncation(max_total=max_total), policy)


def test_generator_row_sums_vanish():
    gen = mixed_gen()
    sums = np.asarray(gen.Q.sum(axis=1)).ravel()
    assert np.abs(sums).max() <= 1e-10 * max(1.0, gen.unif)


def test_generator_offdiagonals_connect_unit_neighbors():
    gen = mixed_gen(max_total=5)
    coo = gen.Q.tocoo()
    counts = gen.space.counts
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if r == c:
            continue
        assert v >= 0
        diff = counts[c].astype(int) - counts[r].astype(int)
        assert np.abs(diff).sum() == 1


def test_generator_dc_only_empty_state_single_outflow():
    cfg = single(1, 2)
    traffic = TrafficMix(1.0, 0.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=2))
    space = gen.space
    i_empty = space.index_of((0, 0, 0))
    row = gen.Q.getrow(i_empty).toarray().ravel()
    i_dc = space.index_of((0, 0, 1))
    assert row[i_dc] == pytest.approx(traffic.beta)
    assert row[i_empty] == pytest.approx(-traffic.beta)
    assert np.count_nonzero(row) == 2


def test_generator_dc_departure_rate_is_aggregate():
    cfg = single(1, 2)
    traffic = TrafficMix(1.0, 0.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=2))
    space = gen.space
    # lone DC user drains at c1 + c2 = 3
    rate = gen.Q[space.index_of((0, 0, 1)), space.index_of((0, 0, 0))]
    assert rate == pytest.approx(3.0)


def test_generator_sc_arrival_routes_to_idle_carrier():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 1.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=3))
    space = gen.space
    src = space.index_of((0, 1, 0))
    assert gen.Q[src, space.index_of((1, 1, 0))] == pytest.approx(traffic.alpha)
    assert gen.Q[src, space.index_of((0, 2, 0))] == 0.0


def test_generator_tie_splits_arrival_rate():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 1.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=3))
    space = gen.space
    src = space.index_of((0, 0, 0))
    assert gen.Q[src, space.index_of((1, 0, 0))] == pytest.approx(0.5)
    assert gen.Q[src, space.index_of((0, 1, 0))] == pytest.approx(0.5)


def test_jfq_jsq_generators_identical_at_equal_capacity():
    gen_a = mixed_gen(c1=1, c2=1, policy=Policy.JFQ)
    gen_b = mixed_gen(c1=1, c2=1, policy=Policy.JSQ)
    assert (gen_a.Q != gen_b.Q).nnz == 0


def test_jfq_jsq_generators_differ_at_unequal_capacity():
    gen_a = mixed_gen(c1=1, c2=2, policy=Policy.JFQ)
    gen_b = mixed_gen(c1=1, c2=2, policy=Policy.JSQ)
    assert (gen_a.Q != gen_b.Q).nnz > 0


def test_bernoulli_generator_splits_by_capacity():
    cfg = single(1, 2)
    traffic = TrafficMix(1.2, 1.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=3), Policy.BERNOULLI)
    space = gen.space
    src = space.index_of((0, 0, 0))
    assert gen.Q[src, space.index_of((1, 0, 0))] == pytest.approx(1.2 / 3.0)
    assert gen.Q[src, space.index_of((0, 1, 0))] == pytest.approx(2.4 / 3.0)


# --- stationary solve ----------------------------------------------------------


def test_solve_one_state_space():
    cfg = single(1, 1)
    traffic = TrafficMix(0.0, 0.0, 1.0)
    space = StateSpace(np.zeros((1, 3), dtype=np.int32), Truncation(max_total=1))
    gen = Generator(
        Q=sp.csr_matrix((1, 1)), unif=0.0, space=space, policy=Policy.JFQ,
        cfg=cfg, traffic=traffic,
    )
    dist = solve_stationary(gen)
    assert dist.pi.tolist() == [1.0]


def test_solve_matches_geometric_law_on_full_lattice():
    # DC-only traffic on the full 3-dim lattice: the recurrent class is the
    # DC axis and the total population is a birth-death chain with arrival
    # beta = 0.8 and service 2, i.e. geometric (1 - rho) rho^m at rho = 0.4
    cfg = single(1, 1)
    traffic = TrafficMix(0.8, 0.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=60))
    dist = solve_stationary(gen)
    space = gen.space
    rho = 0.4
    for m in range(0, 30):
        idx = space.index_of((0, 0, m))
        assert dist.pi[idx] == pytest.approx((1 - rho) * rho**m, abs=1e-6)
    # transient states (SC counts > 0) carry no stationary mass
    off_axis = space.sc_total > 0
    assert np.abs(dist.pi[off_axis]).max() <= 1e-9


def test_solve_residual_contract():
    gen = mixed_gen(max_total=6)
    dist = solve_stationary(gen)
    assert dist.residual <= SOLVE_TOL
    assert dist.pi.min() >= 0.0
    assert dist.pi.sum() == pytest.approx(1.0, abs=1e-10)


def dense_stationary(gen):
    # independent reference: dense LU of the balance equations with the last
    # one replaced by the normalization sum(pi) = 1
    a = gen.Q.T.toarray()
    a[-1, :] = 1.0
    rhs = np.zeros(a.shape[0])
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def test_corrupted_generator_fails_the_residual_check():
    # a positive diagonal breaks the zero row sums; the reduced solve never
    # reads it, so the balance residual of its answer is far above SOLVE_TOL
    gen = mixed_gen(rho=0.5, phi=0.5, max_total=12)
    bad = gen.Q.tolil()
    bad[0, 0] = 1.0
    gen = dataclasses.replace(gen, Q=bad.tocsr())
    with pytest.raises(ConvergenceError, match=r"residual 2\.321e-01"):
        solve_stationary(gen)


def test_solver_matches_dense_reference():
    gen = mixed_gen(c1=1, c2="1.3", rho=0.6, phi=0.3, max_total=12)
    dist = solve_stationary(gen)
    assert np.abs(dist.pi - dense_stationary(gen)).max() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    n_areas=st.integers(min_value=1, max_value=2),
    caps=st.lists(st.sampled_from(["0.7", "1", "1.3", "2", "5"]), min_size=4, max_size=4),
    q_first=st.sampled_from(["0.2", "0.5", "0.9"]),
    policy=st.sampled_from(list(Policy)),
    rho=st.floats(min_value=0.05, max_value=0.95),
    phi=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    max_total=st.integers(min_value=1, max_value=8),
)
def test_solver_matches_dense_reference_on_random_small_cells(
    n_areas, caps, q_first, policy, rho, phi, max_total
):
    if n_areas == 1:
        cfg = single(caps[0], caps[1])
    else:
        q = Fraction(q_first)
        cfg = CellConfig(areas=(AreaSpec(caps[0], caps[1], q), AreaSpec(caps[2], caps[3], 1 - q)))
    traffic = TrafficMix(rho * harmonic_capacity(cfg), phi, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=max_total), policy)
    dist = solve_stationary(gen)
    assert dist.residual <= SOLVE_TOL
    assert np.abs(dist.pi - dense_stationary(gen)).max() <= 1e-10


def test_symmetric_capacities_give_symmetric_marginals():
    cfg = single(2, 2)
    traffic = TrafficMix(2.0, 0.7, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=20))
    dist = solve_stationary(gen)
    space = gen.space
    mean_n1 = dist.expectation(space.counts[:, 0])
    mean_n2 = dist.expectation(space.counts[:, 1])
    assert mean_n1 == pytest.approx(mean_n2, abs=1e-8)


# --- blocking ------------------------------------------------------------------


def test_blocking_four_state_chain_by_hand():
    # max_total = 1, DC-only, rho = 0.5: pi = (2/3, 1/3) on the DC axis and
    # every arrival seen from the occupied state is dropped -> mass 1/3
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 0.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=1))
    dist = solve_stationary(gen)
    assert dist.blocking["dc"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert dist.blocking["sc"] == 0.0


def test_blocking_vanishes_far_above_mean_occupancy():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 0.0, 1.0)  # rho = 0.5, mean occupancy 1
    space = enumerate_states(cfg, Truncation(max_total=40), traffic=traffic)
    gen = build_generator(cfg, traffic, space)
    dist = solve_stationary(gen)
    # geometric tail: mass ~ (1 - rho) rho^40 ~ 5e-13
    assert dist.blocking["dc"] < 1e-8


def test_blocking_zero_for_empty_traffic():
    cfg = single(1, 1)
    traffic = TrafficMix(0.0, 0.0, 1.0)
    gen = build_generator(cfg, traffic, Truncation(max_total=3))
    dist = solve_stationary(gen)
    assert blocking_mass(dist) == {"sc": 0.0, "dc": 0.0}


# --- throughputs -----------------------------------------------------------------


def test_dc_only_throughput_matches_closed_form():
    cfg = single(1, 1)
    traffic = TrafficMix(0.8, 0.0, 1.0)  # rho = 0.4
    report, _ = solve_model(cfg, traffic)
    expected = 2.0 * (1.0 - 0.4)
    assert report.gamma_dc(0) == pytest.approx(expected, rel=0.01)
    assert report.gamma_sc(0) is None
    assert report.diagnostics.blocking_dc < 1e-8


def test_sc_only_report_has_no_dc_class():
    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 1.0, 1.0)
    report, _ = solve_model(cfg, traffic)
    assert report.gamma_dc(0) is None
    assert report.gamma_sc(0) is not None
    assert report.gamma_bar(0) == report.gamma_sc(0)


def test_multi_area_dc_only_matches_ideal_balancing():
    cfg = two_area((10, 14), (1, "1.4"))
    c_bar = 48.0 / 11.0
    rho = 0.5
    traffic = TrafficMix(rho * c_bar, 0.0, 1.0)
    report, _ = solve_model(cfg, traffic)
    for j, area in enumerate(cfg.areas):
        assert report.gamma_dc(j) == pytest.approx(area.c_total * (1 - rho), rel=0.02)


def test_gamma_values_decrease_with_load():
    cfg = single(1, 2)
    previous_sc, previous_dc = math.inf, math.inf
    for rho in (0.2, 0.4, 0.6):
        traffic = TrafficMix(rho * 3.0, 0.5, 1.0)
        report, _ = solve_model(cfg, traffic)
        assert report.gamma_sc(0) < previous_sc
        assert report.gamma_dc(0) < previous_dc
        previous_sc, previous_dc = report.gamma_sc(0), report.gamma_dc(0)


def test_solve_model_grows_truncation_when_needed():
    cfg = single(1, 1)
    traffic = TrafficMix(1.6, 0.0, 1.0)  # rho = 0.8
    report, _ = solve_model(cfg, traffic, trunc=Truncation(max_total=10))
    # one step extrapolated from the tail measured at cap 10 is enough
    assert report.diagnostics.grew == 1
    assert report.diagnostics.blocking_dc <= 1e-8
    assert report.diagnostics.reliable


@pytest.mark.parametrize(
    "policy, phi, rho",
    [(policy, phi, rho) for policy in (Policy.JFQ, Policy.JSQ)
     for phi in (0.0, 0.5, 1.0) for rho in (0.3, 0.6)]
    + [(Policy.JFQ, 1.0, 0.8)],
)
def test_first_cap_is_near_the_smallest_that_meets_the_target(policy, phi, rho):
    # the pooled tail (1 - rho) rho^N sizes the first lattice: no growth step,
    # and four caps fewer would miss the blocking target
    cfg = single(1, 2)
    traffic = TrafficMix(rho * 3.0, phi, 1.0)
    report, _ = solve_model(cfg, traffic, policy)
    diag = report.diagnostics
    assert diag.grew == 0
    assert diag.blocking_max <= 1e-8
    space = enumerate_states(cfg, Truncation(diag.max_total - 4), traffic=traffic)
    smaller = solve_stationary(build_generator(cfg, traffic, space, policy))
    assert max(smaller.blocking.values()) > 1e-8


def test_growth_past_the_budget_solves_the_largest_cap_that_fits():
    # from cap 40 the tail asks for cap 79 (88,560 states); cap 69 (59,640
    # states) is the largest within the budget and meets the reliability gate
    cfg = single(1, 2)
    traffic = TrafficMix(2.4, 0.5, 1.0)  # rho = 0.8
    report, _ = solve_model(cfg, traffic, trunc=Truncation(max_total=40), max_states=60_000)
    diag = report.diagnostics
    assert (diag.max_total, diag.states, diag.grew) == (69, 59_640, 1)
    assert 1e-8 < diag.blocking_max <= 1e-6
    assert diag.reliable


def test_degenerate_distribution_is_rejected():
    import numpy as np
    from caflow.ctmc import StationaryDistribution, throughputs_from_distribution
    from caflow.errors import DegenerateSolveError

    cfg = single(1, 1)
    traffic = TrafficMix(1.0, 1.0, 1.0)  # SC arrivals present
    gen = build_generator(cfg, traffic, Truncation(max_total=2))
    pi = np.zeros(len(gen.space))
    pi[gen.space.index_of((0, 0, 0))] = 1.0  # no SC mass despite arrivals
    dist = StationaryDistribution(
        pi=pi, residual=0.0, iterations=0, method="injected", blocking={},
        space=gen.space, cfg=cfg, traffic=traffic,
    )
    with pytest.raises(DegenerateSolveError):
        throughputs_from_distribution(dist)


def test_solve_model_rejects_oversized_first_space():
    cfg = two_area((1, 1), (1, 1))
    traffic = TrafficMix(1.0, 0.5, 1.0)
    with pytest.raises(StateSpaceTooLargeError):
        solve_model(cfg, traffic, trunc=Truncation(max_total=80), max_states=2000)


def test_solve_model_caps_heuristic_start_at_the_budget():
    # the load-based first cap asks for more than 2,000 states; without an
    # explicit truncation the start is lowered to the largest cap that fits
    report, _ = solve_model(single(1, 2), TrafficMix(1.5, 0.5, 1.0), max_states=2000)
    assert report.diagnostics.states <= 2000
    assert report.diagnostics.max_total == 20


def test_truncation_validation():
    with pytest.raises(ConfigError):
        Truncation(max_total=0)
