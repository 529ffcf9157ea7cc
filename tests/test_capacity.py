import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caflow.capacity import (
    CapacityQuery,
    max_sustainable_intensity,
    reference_theta,
    scenario_presets,
    solve_preset,
    zero_load_edge_throughput,
)
from caflow.errors import ConfigError, InfeasibleTargetError
from caflow.model import CellConfig, theta_approximation


def test_presets_match_documented_capacities():
    cfg, target = scenario_presets("db-hsdpa")
    assert (cfg.areas[0].c1, cfg.areas[0].c2) == (10.0, 14.0)
    assert (cfg.areas[1].c1, cfg.areas[1].c2) == (1.0, 1.4)
    assert target == 1.0

    cfg, target = scenario_presets("lte")
    assert (cfg.areas[0].c1, cfg.areas[0].c2) == (150.0, 70.0)
    assert (cfg.areas[1].c1, cfg.areas[1].c2) == (15.0, 7.0)
    assert target == 10.0

    cfg, _ = scenario_presets("dc-hsdpa")
    assert (cfg.areas[1].c1, cfg.areas[1].c2) == (1.0, 1.0)
    assert all(a.q == 0.5 for a in cfg.areas)


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ConfigError, match="db-hsdpa"):
        scenario_presets("umts")


def test_reference_table_lookup():
    assert reference_theta("db-hsdpa", 1.0) == 1.75
    assert reference_theta("dc-hsdpa", 1.0) is None
    assert reference_theta("lte", 0.5) == 19.6


def test_invert_dc_only_closed_form():
    # gamma_DC = 2 (1 - rho) = 0.4 -> rho = 0.8 -> theta = 1.6
    cfg = CellConfig.single_area(1, 1)
    for evaluator in ("approx", "ctmc"):
        query = CapacityQuery(cfg=cfg, phi=0.0, target_gamma=0.4, evaluator=evaluator,
                              rel_tol=0.005)
        result = max_sustainable_intensity(query)
        assert result.theta_star == pytest.approx(1.6, rel=0.01)
        assert result.achieved_gamma == pytest.approx(0.4, rel=0.02)
        lo, hi = result.brackets[-1]
        assert lo <= result.theta_star <= hi
        assert hi - lo <= 0.005 * hi + 1e-12


def test_target_equal_to_zero_load_throughput_gives_zero():
    cfg = CellConfig.single_area(1, 2)
    query = CapacityQuery(cfg=cfg, phi=0.0, target_gamma=3.0)
    result = max_sustainable_intensity(query)
    assert result.theta_star == 0.0
    assert "zero-load" in result.note


def test_infeasible_target_raises():
    cfg = CellConfig.single_area(1, 2)
    with pytest.raises(InfeasibleTargetError):
        max_sustainable_intensity(CapacityQuery(cfg=cfg, phi=1.0, target_gamma=2.5))


def test_zero_load_edge_throughput_mixes_classes():
    cfg, _ = scenario_presets("lte")
    assert zero_load_edge_throughput(cfg, 1.0, 1) == 15.0
    assert zero_load_edge_throughput(cfg, 0.0, 1) == 22.0
    assert zero_load_edge_throughput(cfg, 0.5, 1) == pytest.approx(18.5)


def test_approx_and_ctmc_agree_for_dc_only_single_area():
    cfg = CellConfig.single_area(1, "1.3")
    for target in (0.5, 1.0, 1.8):
        res_a = max_sustainable_intensity(
            CapacityQuery(cfg=cfg, phi=0.0, target_gamma=target, evaluator="approx",
                          rel_tol=0.004)
        )
        res_c = max_sustainable_intensity(
            CapacityQuery(cfg=cfg, phi=0.0, target_gamma=target, evaluator="ctmc",
                          rel_tol=0.004)
        )
        assert res_c.theta_star == pytest.approx(res_a.theta_star, rel=0.02)


def test_approx_is_the_closed_form_in_one_probe():
    cfg, target = scenario_presets("lte")
    result = max_sustainable_intensity(
        CapacityQuery(cfg=cfg, phi=0.5, target_gamma=target, evaluator="approx")
    )
    assert result.theta_star == theta_approximation(cfg, 0.5, target)
    assert result.achieved_gamma == target
    assert result.brackets == ((result.theta_star, result.theta_star),)
    assert len(result.probes) == 1


def _theta_star(cfg, phi, target, evaluator):
    query = CapacityQuery(cfg=cfg, phi=phi, target_gamma=target, evaluator=evaluator)
    return max_sustainable_intensity(query).theta_star


@settings(max_examples=200)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_approx_theta_non_increasing_in_target_and_phi(phi_a, phi_b, u_a, u_b):
    # targets are fractions of the zero-load edge throughput at the larger
    # phi, so they are feasible at both
    cfg, _ = scenario_presets("lte")
    lo_p, hi_p = sorted((phi_a, phi_b))
    ceiling = zero_load_edge_throughput(cfg, hi_p, cfg.edge)
    lo_t, hi_t = sorted((u_a * ceiling, u_b * ceiling))
    for phi in (lo_p, hi_p):
        assert _theta_star(cfg, phi, hi_t, "approx") <= _theta_star(cfg, phi, lo_t, "approx")
    for target in (lo_t, hi_t):
        assert _theta_star(cfg, hi_p, target, "approx") <= _theta_star(cfg, lo_p, target, "approx")


@settings(max_examples=4, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=0.1, max_value=0.9),
)
def test_ctmc_theta_non_increasing_in_target_and_phi(u_a, u_b):
    # the bisection brackets the exact answer to a width of rel_tol * theta,
    # so monotonicity holds up to that width; targets are fractions of the
    # SC-only zero-load edge throughput c_max = 2, feasible at phi 0 and 1
    cfg = CellConfig.single_area(1, 2)
    lo_t, hi_t = sorted((2.0 * u_a, 2.0 * u_b))
    theta = {(phi, t): _theta_star(cfg, phi, t, "ctmc") for phi in (0.0, 1.0)
             for t in (lo_t, hi_t)}
    width = 0.01 * max(theta.values())
    for phi in (0.0, 1.0):
        assert theta[(phi, hi_t)] <= theta[(phi, lo_t)] + width
    for target in (lo_t, hi_t):
        assert theta[(1.0, target)] <= theta[(0.0, target)] + width


def test_sim_evaluator_inverts_dc_only_target():
    cfg = CellConfig.single_area(1, 1)
    query = CapacityQuery(cfg=cfg, phi=0.0, target_gamma=1.0, evaluator="sim",
                          rel_tol=0.02, seed=5)
    result = max_sustainable_intensity(query)
    assert result.theta_star == pytest.approx(1.0, rel=0.05)


def test_preset_solver_attaches_reference_and_deviation():
    result = solve_preset("db-hsdpa", 1.0, evaluator="approx")
    assert result.reference == 1.75
    assert result.deviation == pytest.approx((result.theta_star - 1.75) / 1.75)


def test_preset_dc_hsdpa_sc_only_is_the_zero_capacity_cell():
    # the edge target equals the zero-load SC throughput: theta* = 0
    result = solve_preset("dc-hsdpa", 1.0, evaluator="ctmc")
    assert result.theta_star == 0.0
    assert result.reference is None


def test_query_validation():
    cfg = CellConfig.single_area(1, 1)
    with pytest.raises(ConfigError):
        CapacityQuery(cfg=cfg, phi=0.5, target_gamma=1.0, evaluator="magic")
    with pytest.raises(ConfigError):
        CapacityQuery(cfg=cfg, phi=0.5, target_gamma=-1.0)
