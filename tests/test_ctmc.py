import dataclasses
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from caflow import ctmc
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
    throughputs_from_distribution,
)
from caflow.errors import (
    ConfigError,
    ConvergenceError,
    StateSpaceTooLargeError,
    UnstableSystemError,
)
from caflow.model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    departure_rates,
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
        assert space.index_of(space.counts[i]) == i
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
        assert space.index_of(space.counts[i]) == i
    assert space.index_of((0, 0, 1300, 0, 0, 0)) == len(space) - 1
    with pytest.raises(KeyError):
        space.index_of((1, 0, 0, 0, 0, 0))


def test_lattice_key_limit_is_a_config_error():
    areas = tuple(AreaSpec(1, 1, Fraction(1, 7)) for _ in range(7))
    with pytest.raises(ConfigError, match="2\\*\\*62") as err:
        enumerate_states(CellConfig(areas=areas), Truncation(max_total=7))
    # no user can set max_total, so the advice names the limit and the way out
    message = str(err.value)
    assert "too many areas for the exact lattice index" in message
    assert "caflow simulate" in message
    assert "lower max_total" not in message


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
    suggested = int(re.search(r"max_total=(\d+)", str(err.value)).group(1))
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


@settings(max_examples=30, deadline=None)
@given(
    caps=st.sampled_from([(1, 2), (1, "1.3"), (0.1 + 0.2, 0.7), (10, 14)]),
    n_areas=st.integers(min_value=1, max_value=3),
    policy=st.sampled_from(list(Policy)),
    phi=st.sampled_from([0.0, 0.4, 1.0]),
    band=st.sampled_from([None, 2]),
    max_total=st.integers(min_value=1, max_value=5),
)
def test_generator_departures_follow_the_rate_rule(caps, n_areas, policy, phi, band, max_total):
    # every departure entry, on Python ints as the simulator evaluates the rule
    qs = (1.0, 0.5, 0.5, 0.25, 0.25)[n_areas - 1:2 * n_areas - 1]
    cfg = CellConfig(areas=[AreaSpec(*caps, qs[0])] + [AreaSpec(1, 3, q) for q in qs[1:]])
    traffic = TrafficMix(0.5 * harmonic_capacity(cfg), phi, 1.5)
    gen = build_generator(cfg, traffic, Truncation(max_total, band), policy)
    space = gen.space
    for i in range(len(space)):
        counts = [int(c) for c in space.counts[i]]
        n1, n2, m = sum(counts[0::3]), sum(counts[1::3]), sum(counts[2::3])
        for j, area in enumerate(cfg.areas):
            own = counts[3 * j:3 * j + 3]
            rates = departure_rates(area, traffic.sigma, *own, n1, n2, m)
            for slot in range(3):
                if not own[slot]:
                    continue
                to = list(counts)
                to[3 * j + slot] -= 1
                try:
                    k = space.index_of(to)
                except KeyError:
                    continue  # a departure across the band's edge is dropped
                assert gen.Q[i, k] == rates[slot]


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
        Q=sp.csr_matrix((1, 1)), unif=0.0, space=space, cfg=cfg, traffic=traffic
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
    off_axis = space.n1 + space.n2 > 0
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


def direct_reduced_stationary(gen):
    # sparse direct solve of the reduced system that the solver factors or
    # iterates on: pi_0 = 1, Q^T[1:, 1:] y = -Q^T[1:, 0], then normalized
    qt = gen.Q.T.tocsc()
    y = spla.spsolve(qt[1:, 1:], -qt[1:, 0].toarray().ravel(), permc_spec="MMD_AT_PLUS_A")
    x = np.concatenate(([1.0], y))
    return x / x.sum()


@pytest.mark.parametrize(
    "cfg, phi, rho, policy, max_total",
    [
        (single(1, 2), 0.5, 0.8, Policy.JFQ, 30),
        (single(1, 2), 0.5, 0.8, Policy.JSQ, 30),
        (single(1, "1.3"), 0.5, 0.7, Policy.BERNOULLI, 30),
        (two_area((10, 14), (1, "1.4")), 1.0, 0.5, Policy.JFQ, 23),
        (two_area((10, 14), (1, "1.4")), 0.5, 0.458, Policy.JFQ, 10),
    ],
    ids=["mixed-jfq", "mixed-jsq", "mixed-bernoulli", "two-area-sc", "two-area-mixed"],
)
def test_level_ordered_solve_matches_a_direct_solve(cfg, phi, rho, policy, max_total):
    # lattices of three or more axes are factored in population-level order
    # by an ILU that drops entries; the GMRES answer must be the reduced
    # system's own
    traffic = TrafficMix(rho * harmonic_capacity(cfg), phi, 1.0)
    space = enumerate_states(cfg, Truncation(max_total=max_total), traffic=traffic)
    assert 5_000 <= len(space) <= 20_000
    assert ctmc._ilu_plan(space)[1] is ctmc._ILU_LEVELS
    gen = build_generator(cfg, traffic, space, policy)
    dist = solve_stationary(gen)
    assert dist.residual <= SOLVE_TOL
    assert np.abs(dist.pi - direct_reduced_stationary(gen)).sum() <= 1e-11


def test_level_order_keeps_the_empty_state_first():
    for cfg, phi in ((single(1, 2), 0.5), (two_area((10, 10), (1, 1)), 0.5)):
        space = enumerate_states(
            cfg, Truncation(max_total=6), traffic=TrafficMix(1.0, phi, 1.0)
        )
        order, _ = ctmc._ilu_plan(space)
        assert order[0] == 0
        assert np.all(np.diff(space.total[order]) >= 0)
        assert space.total[order[1:]].min() == 1
    # one or two axes keep the lexicographic order for an exact
    # minimum-degree LU
    for phi in (0.0, 1.0):
        space = enumerate_states(
            single(1, 2), Truncation(max_total=6), traffic=TrafficMix(1.0, phi, 1.0)
        )
        assert ctmc._ilu_plan(space) == (None, ctmc._LU_MIN_DEGREE)


@pytest.mark.parametrize("policy, phi", [(Policy.JFQ, 0.5), (Policy.JFQ, 1.0),
                                         (Policy.BERNOULLI, 0.0)])
def test_reduced_system_is_the_sliced_generator(policy, phi):
    # the reduced system cut from the CSC arrays equals scipy's slices of
    # Q^T bit for bit, signed zeros of the right-hand side included, in the
    # lexicographic order and in the population-level order of the ILU
    cfg = single(1, 2)
    traffic = TrafficMix(0.6 * harmonic_capacity(cfg), phi, 1.0)
    gen = ctmc._truncated_generator(cfg, traffic, Truncation(24, 6), policy, 10**6)
    qt = gen.Q.T.tocsc()
    order, _ = ctmc._ilu_plan(gen.space)
    for m in (qt, qt if order is None else qt[order][:, order]):
        a, b = ctmc._reduced_system(m)
        want_a, want_b = m[1:, 1:], -m[1:, 0].toarray().ravel()
        assert a.format == "csc" and a.shape == want_a.shape
        for got, want in ((a.data, want_a.data), (a.indices, want_a.indices),
                          (a.indptr, want_a.indptr), (b, want_b)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def gmres_must_not_run(*args, **kwargs):
    raise AssertionError("GMRES ran on a lattice of one or two axes")


@pytest.mark.parametrize(
    "cfg, phi, rho, policy, trunc",
    [
        (single(1, 2), 0.0, 0.8, Policy.JFQ, Truncation(200)),
        (single(1, 2), 1.0, 0.8, Policy.JFQ, Truncation(120, 14)),
        (single(1, 2), 1.0, 0.8, Policy.JSQ, Truncation(120, 14)),
        (single(1, "1.3"), 1.0, 0.8, Policy.BERNOULLI, Truncation(70)),
        (two_area((10, 14), (1, "1.4")), 0.0, 0.7, Policy.JFQ, Truncation(60)),
    ],
    ids=["dc-only", "sc-jfq-band", "sc-jsq-band", "bernoulli-simplex", "two-area-dc-only"],
)
def test_one_and_two_axis_lattices_are_factored_exactly(
    monkeypatch, cfg, phi, rho, policy, trunc
):
    # an exact LU leaves GMRES nothing to do, so it must not run, and the
    # answer is the reduced system's own
    traffic = TrafficMix(rho * harmonic_capacity(cfg), phi, 1.0)
    gen = ctmc._truncated_generator(cfg, traffic, trunc, policy, ctmc.DEFAULT_STATE_BUDGET)
    assert gen.space.truncation == trunc
    assert sum(r > 1 for r in gen.space._radix) == (1 if phi == 0.0 and cfg.n_areas == 1 else 2)
    monkeypatch.setattr(spla, "gmres", gmres_must_not_run)
    dist = solve_stationary(gen)
    assert dist.method == "lu"
    assert dist.residual <= SOLVE_TOL
    assert np.abs(dist.pi - direct_reduced_stationary(gen)).sum() <= 1e-12


def cut_off_state_3(gen):
    # gen with no transition into or out of state 3 and its row sums
    # restored: the reduced system has a zero column and cannot be factored
    q = gen.Q.tolil()
    q[3, :] = 0.0
    q[:, 3] = 0.0
    q = q.tocsr()
    return dataclasses.replace(gen, Q=(q - sp.diags(np.asarray(q.sum(axis=1)).ravel())).tocsr())


def test_a_singular_factor_is_a_convergence_error():
    cfg, traffic = single(1, 2), TrafficMix(1.5, 1.0, 1.0)
    space = enumerate_states(cfg, Truncation(8), traffic=traffic)
    two_axes = build_generator(cfg, traffic, space, Policy.JFQ)
    with pytest.raises(ConvergenceError, match="sparse LU failed"):
        solve_stationary(cut_off_state_3(two_axes))
    with pytest.raises(ConvergenceError, match="ILU preconditioner failed"):
        solve_stationary(cut_off_state_3(mixed_gen(max_total=8)))


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
    assert blocking_mass(gen, dist.pi) == {"sc": 0.0, "dc": 0.0}


# --- band truncation -----------------------------------------------------------


def band_cells():
    # carriers c1 != c2, so that removing a DC flow moves the balance
    return st.sampled_from([
        single(1, 2), single(1, "1.3"), single(2, 1),
        two_area((10, 14), (1, "1.4")), two_area((1, 2), (1, 3)),
    ])


@settings(max_examples=40, deadline=None)
@given(
    cfg=band_cells(),
    policy=st.sampled_from([Policy.JFQ, Policy.JSQ]),
    phi=st.sampled_from([0.5, 1.0]),
    max_total=st.integers(min_value=4, max_value=9),
    band=st.integers(min_value=1, max_value=2),
)
def test_every_band_state_communicates_with_the_empty_state(cfg, policy, phi, max_total, band):
    # the reduced solve fixes pi_0 of the empty state, so each state of the
    # lattice solve_model solves must reach it and be reached from it
    traffic = TrafficMix(0.5 * harmonic_capacity(cfg), phi, 1.0)
    gen = ctmc._truncated_generator(
        cfg, traffic, Truncation(max_total, band), policy, ctmc.DEFAULT_STATE_BUDGET
    )
    space = gen.space
    assert space.total[0] == 0 and space.truncation.band == band
    assert len(space) < math.comb(max_total + len(ctmc._free_axes(cfg, traffic)), max_total)
    for graph in (gen.Q, gen.Q.T.tocsr()):
        reached = csgraph.breadth_first_order(graph, 0, directed=True, return_predecessors=False)
        assert len(reached) == len(space)
    assert solve_stationary(gen).residual <= SOLVE_TOL


def relative_gamma_gap(report, other, n_areas):
    gaps = [0.0]
    for j in range(n_areas):
        for a, b in ((report.gamma_sc(j), other.gamma_sc(j)),
                     (report.gamma_dc(j), other.gamma_dc(j))):
            if a is not None:
                gaps.append(abs(a / b - 1.0))
    return max(gaps)


def full_lattice_report(cfg, traffic, policy, max_total):
    space = enumerate_states(cfg, Truncation(max_total), traffic=traffic)
    dist = solve_stationary(build_generator(cfg, traffic, space, policy))
    return throughputs_from_distribution(dist), dist


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from([
        (single(1, 2), 0.5, 0.7), (single(1, 2), 1.0, 0.8), (single(1, "1.3"), 0.5, 0.5),
        (single(2, 1), 1.0, 0.7), (two_area((10, 14), (1, "1.4")), 1.0, 0.5),
        (two_area((1, 2), (1, 3)), 0.5, 0.3),
    ]),
    policy=st.sampled_from([Policy.JFQ, Policy.JSQ]),
)
def test_band_solve_matches_the_full_lattice(case, policy):
    cfg, phi, rho = case
    traffic = TrafficMix(rho * harmonic_capacity(cfg), phi, 1.0)
    report, dist = solve_model(cfg, traffic, policy)
    diag = report.diagnostics
    assert diag.band is not None and diag.blocking_max <= 1e-8
    full, full_dist = full_lattice_report(cfg, traffic, policy, diag.max_total)
    assert len(dist.space) < len(full_dist.space)
    assert relative_gamma_gap(report, full, cfg.n_areas) <= 1e-6


def test_a_band_that_misses_the_target_grows_from_the_measured_tail():
    # SC-only fastest-queue routing on equal carriers at rho = 0.9: the
    # first band drops more than half the target, and one step sized from
    # the decay of pi over its outer shells meets it
    cfg, traffic = single(1, 1), TrafficMix(1.8, 1.0, 1.0)
    report, _ = solve_model(cfg, traffic, Policy.JFQ)
    diag = report.diagnostics
    assert diag.grew == 1 and diag.band > ctmc._FIRST_BAND
    assert diag.blocking_max <= 1e-8
    full, _ = full_lattice_report(cfg, traffic, Policy.JFQ, diag.max_total)
    assert relative_gamma_gap(report, full, 1) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(
    cfg=band_cells(),
    rho=st.sampled_from([0.3, 0.6]),
    case=st.sampled_from([(Policy.BERNOULLI, 0.5), (Policy.BERNOULLI, 1.0),
                          (Policy.JFQ, 0.0), (Policy.JSQ, 0.0)]),
)
def test_coin_flips_and_dc_only_traffic_keep_the_simplex(cfg, rho, case):
    # no balance to band: Q and pi are those of the plain simplex, bit for bit
    policy, phi = case
    traffic = TrafficMix(rho * harmonic_capacity(cfg), phi, 1.0)
    report, dist = solve_model(cfg, traffic, policy, max_states=20_000)
    n_total = report.diagnostics.max_total
    assert report.diagnostics.band is None
    simplex = build_generator(
        cfg, traffic, enumerate_states(cfg, Truncation(n_total), traffic=traffic), policy
    )
    banded = build_generator(
        cfg, traffic,
        enumerate_states(cfg, Truncation(n_total, 1), traffic=traffic, policy=policy), policy,
    )
    assert np.array_equal(banded.space.counts, simplex.space.counts)
    for q in (banded.Q, ctmc._truncated_generator(
            cfg, traffic, Truncation(n_total, 1), policy, 20_000).Q):
        assert (np.array_equal(q.indptr, simplex.Q.indptr)
                and np.array_equal(q.indices, simplex.Q.indices)
                and np.array_equal(q.data, simplex.Q.data))
    assert np.array_equal(dist.pi, solve_stationary(simplex).pi)


def assert_same_generator(gen, fresh):
    for part in ("indptr", "indices", "data"):
        got, want = getattr(gen.Q, part), getattr(fresh.Q, part)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert gen.unif == fresh.unif
    assert gen.dropped.keys() == fresh.dropped.keys()
    for cls, want in fresh.dropped.items():
        np.testing.assert_allclose(gen.dropped[cls], want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("policy", [Policy.JFQ, Policy.JSQ])
@pytest.mark.parametrize(
    "cfg, phi",
    [(single(1, 2), 0.5), (single(1, 2), 1.0), (two_area((10, 14), (1, "1.4")), 1.0)],
    ids=["one-area-mixed", "one-area-sc", "two-area-sc"],
)
def test_band_class_is_cut_out_of_one_assembly(monkeypatch, cfg, phi, policy):
    # the communicating class is cut out of the band's generator, not built
    # a second time, and equals a fresh build on it entry for entry
    traffic = TrafficMix(0.6 * harmonic_capacity(cfg), phi, 1.0)
    trunc = Truncation(12, 3)
    band = enumerate_states(cfg, trunc, traffic=traffic, policy=policy)
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_generator(*args, **kwargs)

    monkeypatch.setattr(ctmc, "build_generator", counted)
    gen = ctmc._truncated_generator(cfg, traffic, trunc, policy, ctmc.DEFAULT_STATE_BUDGET)
    assert len(builds) == 1 and len(gen.space) < len(band)
    assert_same_generator(gen, build_generator(cfg, traffic, gen.space, policy))
    # here no state of the class leads out of it, so also cut a set whose
    # states lose transitions: the band without its states of two SC flows
    # on carrier 1 of area 1, next to which states keep both arrivals and
    # departures; that set is built afresh, once
    keep = band.counts[:, 0] != 2
    whole = build_generator(cfg, traffic, band, policy)
    builds.clear()
    cut = ctmc._cut_class(whole, keep, policy)
    assert len(builds) == 1
    assert_same_generator(
        cut, build_generator(cfg, traffic, StateSpace(band.counts[keep], band.truncation), policy)
    )
    assert cut.dropped["sc"].sum() > whole.dropped["sc"][keep].sum()


def test_band_blocking_counts_the_transitions_it_drops():
    # one area (1, 2) under fastest-queue routing, cap 6 and band 1: each
    # class's mass is the pi-weighted rate of its transitions whose target
    # is not a state of the band, over the class's arrival rate
    cfg, traffic = single(1, 2), TrafficMix(1.5, 0.5, 1.0)
    gen = ctmc._truncated_generator(cfg, traffic, Truncation(6, 1), Policy.JFQ, 1000)
    dist = solve_stationary(gen)
    space = gen.space
    dropped = {"sc": 0.0, "dc": 0.0}
    for i, (n1, n2, m) in enumerate(space.counts.tolist()):
        p1 = sc_carrier1_share(Policy.JFQ, cfg.areas[0], n1, n2, m)
        moves = [((1, 0, 0), "sc", traffic.alpha * p1), ((0, 1, 0), "sc", traffic.alpha * (1 - p1)),
                 ((0, 0, 1), "dc", traffic.beta)]
        if n1:
            moves.append(((-1, 0, 0), "sc", n1 * 1.0 / (n1 + m)))
        if n2:
            moves.append(((0, -1, 0), "sc", n2 * 2.0 / (n2 + m)))
        if m:
            moves.append(((0, 0, -1), "dc", m * (1.0 / (n1 + m) + 2.0 / (n2 + m))))
        for step, cls, rate in moves:
            try:
                space.index_of(tuple(c + s for c, s in zip((n1, n2, m), step)))
            except KeyError:
                dropped[cls] += dist.pi[i] * rate
    assert dist.blocking["sc"] == pytest.approx(dropped["sc"] / traffic.alpha, rel=1e-12)
    assert dist.blocking["dc"] == pytest.approx(dropped["dc"] / traffic.beta, rel=1e-12)
    at_cap = float(dist.pi[space.total == 6].sum())
    assert min(dist.blocking.values()) > at_cap


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
    # coin-flip routing of mostly-SC traffic has a heavier tail than the
    # pooled first cap assumes; one step extrapolated from the tail measured
    # there is enough
    cfg = single(1, 2)
    traffic = TrafficMix(1.8, 0.9, 1.0)  # rho = 0.6
    report, _ = solve_model(cfg, traffic, Policy.BERNOULLI)
    diag = report.diagnostics
    assert (diag.max_total, diag.states, diag.grew) == (39, 11_480, 1)
    assert diag.blocking_max <= 1e-8
    assert diag.reliable


@pytest.mark.parametrize(
    "policy, phi, rho",
    [(policy, phi, rho) for policy in (Policy.JFQ, Policy.JSQ)
     for phi in (0.0, 0.5, 1.0) for rho in (0.3, 0.6)]
    + [(Policy.JFQ, 1.0, 0.8)]
    + [(Policy.BERNOULLI, 1.0, rho) for rho in (0.3, 0.6, 0.8)],
)
def test_first_cap_is_near_the_smallest_that_meets_the_target(policy, phi, rho):
    # the pooled tail (1 - rho) rho^N, or under coin-flip routing of SC-only
    # traffic the two-queue tail (N + 1)(1 - rho)^2 rho^N, sizes the first
    # lattice: no growth step, and four caps fewer would miss the target
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
    # the growth step from the first cap asks for cap 39 (11,480 states);
    # cap 37 (9,880 states) is the largest within the budget and meets the
    # reliability gate
    cfg = single(1, 2)
    traffic = TrafficMix(1.8, 0.9, 1.0)  # rho = 0.6
    report, _ = solve_model(cfg, traffic, Policy.BERNOULLI, max_states=10_000)
    diag = report.diagnostics
    assert (diag.max_total, diag.states, diag.grew) == (37, 9_880, 1)
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
    # a two-area mixed cell has six axes, so cap 1 already holds 7 states
    cfg = two_area((1, 1), (1, 1))
    traffic = TrafficMix(1.0, 0.5, 1.0)
    with pytest.raises(StateSpaceTooLargeError):
        solve_model(cfg, traffic, max_states=5)


@pytest.mark.parametrize("phi", [0.0, 0.5])
@pytest.mark.parametrize("lam", [2.0, 2.2])
def test_solve_model_refuses_an_overloaded_cell_at_once(monkeypatch, lam, phi):
    # at rho >= 1 blocking at any cap is at least 1 - 1/rho, so no lattice
    # meets the target: the refusal comes before any lattice is enumerated
    def no_lattice(*_args, **_kwargs):
        raise AssertionError("enumerated a lattice for an overloaded cell")

    monkeypatch.setattr(ctmc, "enumerate_states", no_lattice)
    start = time.perf_counter()
    with pytest.raises(UnstableSystemError, match=f"rho = {lam / 2:g}"):
        solve_model(single(1, 1), TrafficMix(lam, phi, 1.0))
    assert time.perf_counter() - start < 0.1


def test_solve_model_takes_no_explicit_truncation():
    with pytest.raises(TypeError):
        solve_model(single(1, 2), TrafficMix(1.5, 0.5, 1.0), trunc=Truncation(max_total=10))


def test_solve_model_caps_heuristic_start_at_the_budget():
    # the load-based first cap asks for more than 2,000 states; without an
    # explicit truncation the start is lowered to the largest cap that fits
    report, _ = solve_model(single(1, 2), TrafficMix(1.5, 0.5, 1.0), max_states=2000)
    assert report.diagnostics.states <= 2000
    assert report.diagnostics.max_total == 20


def test_truncation_validation():
    with pytest.raises(ConfigError):
        Truncation(max_total=0)


# --- one BLAS thread -----------------------------------------------------------

needs_openblas = pytest.mark.skipif(
    not ctmc._openblas_builds(), reason="no OpenBLAS build loaded"
)

#: (1, 2) at phi = 0.5, rho = 0.7 under JFQ: 11,538 states, whose BLAS calls
#: OpenBLAS splits over threads when it has more than one
BLAS_POINT = (single(1, 2), TrafficMix(2.1, 0.5, 1.0))


def blas_threads():
    return [get() for get, _ in ctmc._openblas_builds()]


def at_blas_threads(count, call):
    with ctmc._BlasThreads(count):
        return call()


@needs_openblas
def test_answers_are_the_same_bits_at_two_blas_threads_and_one():
    cfg, traffic = BLAS_POINT
    solved = [at_blas_threads(n, lambda: solve_model(cfg, traffic)) for n in (2, 1)]
    (report, dist), (report_1, dist_1) = solved
    assert len(dist.pi) == 11_538
    assert dist.pi.tobytes() == dist_1.pi.tobytes()
    assert (report, dist.residual) == (report_1, dist_1.residual)
    # the public steps called directly, outside solve_model
    diag = report.diagnostics
    gen = ctmc._truncated_generator(
        cfg, traffic, Truncation(diag.max_total, diag.band), Policy.JFQ,
        ctmc.DEFAULT_STATE_BUDGET,
    )
    direct = [at_blas_threads(n, lambda: solve_stationary(gen)) for n in (2, 1)]
    assert direct[0].pi.tobytes() == direct[1].pi.tobytes() == dist.pi.tobytes()
    assert direct[0].residual == direct[1].residual
    reports = [at_blas_threads(n, lambda: throughputs_from_distribution(dist)) for n in (2, 1)]
    assert reports[0] == reports[1]


@needs_openblas
def test_a_solve_runs_on_one_blas_thread_and_restores_the_callers(monkeypatch):
    seen = []
    blocking = ctmc.blocking_mass

    def recording(gen, pi):
        seen.append(blas_threads())
        return blocking(gen, pi)

    monkeypatch.setattr(ctmc, "blocking_mass", recording)
    with ctmc._BlasThreads(2):
        caller = blas_threads()
        one = [1] * len(caller)
        solve_stationary(mixed_gen(max_total=6))
        solve_model(single(1, 2), TrafficMix(1.5, 0.5, 1.0))
        assert seen and all(counts == one for counts in seen)
        assert blas_threads() == caller
        # a solve that raises gives the count back too
        gen = mixed_gen(rho=0.5, phi=0.5, max_total=12)
        bad = gen.Q.tolil()
        bad[0, 0] = 1.0
        with pytest.raises(ConvergenceError):
            solve_stationary(dataclasses.replace(gen, Q=bad.tocsr()))
        assert blas_threads() == caller
        # nested scopes set the count once and restore it once
        with ctmc._one_blas_thread:
            with ctmc._one_blas_thread:
                assert blas_threads() == one
            assert blas_threads() == one
        assert blas_threads() == caller


def test_without_openblas_the_scope_does_nothing(monkeypatch):
    monkeypatch.setattr(ctmc, "_openblas_builds", lambda: ())
    assert ctmc._set_blas_threads(1) == []
    report, dist = solve_model(single(1, 2), TrafficMix(1.5, 0.5, 1.0))
    assert dist.residual <= SOLVE_TOL
