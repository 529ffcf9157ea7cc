import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caflow import capacity
from caflow.capacity import (
    PRESET_PHI_GRID,
    RHO_CEILING,
    CapacityQuery,
    Probe,
    auto_evaluator,
    max_sustainable_intensity,
    reference_theta,
    scenario_presets,
    solve_preset,
    zero_load_edge_throughput,
)
from caflow.errors import ConfigError, ConvergenceError, InfeasibleTargetError
from caflow.model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    harmonic_capacity,
    mixed_mean_throughput,
    theta_approximation,
)
from caflow.sim import Stop, Warmup, simulate


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


HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")


def _search(monkeypatch, query, look_ahead):
    monkeypatch.setattr(capacity, "_look_ahead_enabled", lambda q: look_ahead)
    try:
        return max_sustainable_intensity(query)
    finally:
        assert multiprocessing.active_children() == []


def test_sim_probe_without_an_edge_estimate_is_a_convergence_error(monkeypatch):
    # at phi = 0.9999 the edge area sees too few DC completions for an
    # estimate even after every doubling; the look-ahead raises the same
    # error and leaves no helper behind
    cfg, target = scenario_presets("dc-hsdpa")
    query = CapacityQuery(cfg=cfg, phi=0.9999, target_gamma=target, evaluator="sim")
    messages = set()
    for look_ahead in (False, True) if HAVE_FORK else (False,):
        with pytest.raises(ConvergenceError, match=r"theta=.* DC completions in area 2 are too few"
                           ) as err:
            _search(monkeypatch, query, look_ahead)
        messages.add(str(err.value))
    assert len(messages) == 1


@needs_fork
def test_look_ahead_gives_the_serial_search(monkeypatch):
    # a mixed two-area cell on the simulator: every probe, bracket and theta*
    # is float-identical, whether the guesses are right or always wrong
    cfg, target = scenario_presets("dc-hsdpa")
    query = CapacityQuery(cfg=cfg, phi=0.5, target_gamma=target, evaluator="sim", rel_tol=0.05)
    serial = _search(monkeypatch, query, False)
    above = {p.theta: p.gamma > target for p in serial.probes}

    ahead_hits = []
    call = capacity._LookAhead.__call__

    def recording(self, theta, probe_id, then=None):
        ahead_hits.append((theta, probe_id) in self._helpers)
        return call(self, theta, probe_id, then)

    monkeypatch.setattr(capacity._LookAhead, "__call__", recording)
    assert _search(monkeypatch, query, True) == serial
    assert len(ahead_hits) == len(serial.probes) and any(ahead_hits)

    ahead_hits.clear()
    monkeypatch.setattr(capacity, "_guess_above",
                        lambda theta, lo, hi, target: not above[theta])
    assert _search(monkeypatch, query, True) == serial
    assert not any(ahead_hits)


def _linear_evaluator(where):
    # gamma falls linearly from its zero-load value to 0 at the ceiling, so
    # every guess is right. Run in a helper, probe 3 raises ("raise"; the
    # helper of probe 4 then hangs, so it is in flight at the raise) or ends
    # its helper without an answer ("exit"); in the caller every probe answers
    def make(query, gamma_tol):
        gamma0 = zero_load_edge_throughput(query.cfg, query.phi, query.cfg.edge)
        ceiling = RHO_CEILING * harmonic_capacity(query.cfg)

        def probe(theta, probe_id):
            if multiprocessing.parent_process() is not None:
                if (probe_id, where) == (3, "raise"):
                    raise ConvergenceError(f"probe 3 at theta={theta!r}")
                if (probe_id, where) == (3, "exit"):
                    os._exit(1)
                if (probe_id, where) == (4, "raise"):
                    time.sleep(60)
            return Probe(theta=theta, gamma=gamma0 * (1.0 - theta / ceiling))

        return probe

    return make


@needs_fork
@pytest.mark.parametrize("where", ["raise", "exit"])
def test_look_ahead_answers_for_a_helper_only_on_the_path(monkeypatch, where):
    cfg = CellConfig.single_area(1, 1)
    query = CapacityQuery(cfg=cfg, phi=0.0, target_gamma=1.3, evaluator="sim", rel_tol=0.01)
    monkeypatch.setattr(capacity, "_make_evaluator", _linear_evaluator(where))
    serial = _search(monkeypatch, query, False)
    if where == "exit":
        # a helper that ends without an answer: the caller runs its probe
        assert _search(monkeypatch, query, True) == serial
        return
    with pytest.raises(ConvergenceError) as err:
        _search(monkeypatch, query, True)
    assert str(err.value) == f"probe 3 at theta={serial.probes[3].theta!r}"
    # off the path (every guess wrong) a helper's error is never read
    above = {p.theta: p.gamma > query.target_gamma for p in serial.probes}
    monkeypatch.setattr(capacity, "_guess_above",
                        lambda theta, lo, hi, target: not above[theta])
    assert _search(monkeypatch, query, True) == serial


def test_look_ahead_runs_only_on_the_simulator_with_two_cpus(monkeypatch):
    cfg = CellConfig.single_area(1, 1)
    sim, ctmc = (CapacityQuery(cfg=cfg, phi=0.0, target_gamma=1.0, evaluator=e)
                 for e in ("sim", "ctmc"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert capacity._look_ahead_enabled(sim) == HAVE_FORK
    assert not capacity._look_ahead_enabled(ctmc)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not capacity._look_ahead_enabled(sim)


@needs_fork
def test_look_ahead_is_off_in_a_daemonic_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    query = CapacityQuery(cfg=CellConfig.single_area(1, 1), phi=0.0, target_gamma=1.0,
                          evaluator="sim")
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(capacity._look_ahead_enabled(query)),
                        daemon=True)
    child.start()
    send.close()
    try:
        assert recv.poll(30)
        assert recv.recv() is False
    finally:
        child.join(30)
    assert not child.is_alive()


def test_sim_probes_extend_one_trajectory(monkeypatch):
    # probe k opens one trajectory, on stream 1000 k, and doubles along it;
    # one that stopped at n completions reports exactly one simulate() run
    # to n on that stream
    opened, stopped_at = [], {}

    class Recording(capacity.Trajectory):
        def __init__(self, *args, stream, **kwargs):
            super().__init__(*args, stream=stream, **kwargs)
            self.stream = stream
            opened.append(stream)

        def advance(self, stop):
            stopped_at[self.stream] = stop.completions
            return super().advance(stop)

    monkeypatch.setattr(capacity, "Trajectory", Recording)
    # a forked helper's trajectories never reach this class: probe serially
    monkeypatch.setattr(capacity, "_look_ahead_enabled", lambda query: False)
    cfg = CellConfig.single_area(1, 2)
    query = CapacityQuery(cfg=cfg, phi=0.5, target_gamma=1.0, evaluator="sim", rel_tol=0.05)
    result = max_sustainable_intensity(query)
    assert opened == [1_000 * k for k in range(len(result.probes))]
    assert max(stopped_at.values()) > capacity.SIM_COMPLETIONS  # some probe doubled
    for k, probe in enumerate(result.probes):
        completions = stopped_at[1_000 * k]
        assert completions in [capacity.SIM_COMPLETIONS << r
                               for r in range(capacity.SIM_MAX_DOUBLINGS + 1)]
        rep = simulate(
            cfg, TrafficMix(probe.theta, 0.5, 1.0), Policy.JFQ,
            Stop(completions=completions), Warmup(0.2, min(10_000, completions // 4)),
            seed=0, stream=1_000 * k, n_batches=10, min_group=100,
        )
        sc, dc = rep.estimate("sc", 0), rep.estimate("dc", 0)
        assert probe.gamma == mixed_mean_throughput(sc.gamma_hat, dc.gamma_hat, 0.5)


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


@pytest.mark.parametrize(
    "change, message",
    [
        ({"phi": 1.5}, "SC fraction must lie in [0, 1]"),
        ({"phi": -0.1}, "SC fraction must lie in [0, 1]"),
        ({"phi": float("nan")}, "SC fraction must lie in [0, 1]"),
        ({"target_gamma": float("nan")}, "target throughput must be finite"),
        ({"target_gamma": float("inf")}, "target throughput must be finite"),
        ({"rel_tol": float("nan")}, "tolerance must be finite"),
        ({"rel_tol": float("inf")}, "tolerance must be finite"),
        ({"rel_tol": 0.0}, "tolerance must be finite and > 0"),
        ({"rel_tol": 1e-20}, "tolerance must be at least the float epsilon 2.22"),
    ],
)
def test_query_rejects_outside_input(change, message):
    fields = {"cfg": CellConfig.single_area(1, 1), "phi": 0.5, "target_gamma": 1.0,
              "evaluator": "sim", **change}
    with pytest.raises(ConfigError) as err:
        CapacityQuery(**fields)
    assert message in str(err.value)


def _first_probe_traffic(cfg, phi):
    return TrafficMix(0.5 * RHO_CEILING * harmonic_capacity(cfg), phi, 1.0)


def test_auto_picks_the_solver_for_sc_only_presets_and_the_simulator_for_mixed():
    # at the first probe's load a mixed two-area cell has a six-axis first
    # lattice (1,107,568 states) and an SC-only one four axes (31,465 states)
    picked = {}
    for name in ("db-hsdpa", "dc-hsdpa", "lte"):
        cfg, target = scenario_presets(name)
        for phi in PRESET_PHI_GRID:
            picked[name, phi] = auto_evaluator(cfg, _first_probe_traffic(cfg, phi))
            query = CapacityQuery(cfg=cfg, phi=phi, target_gamma=target, evaluator="auto")
            assert query.evaluator == picked[name, phi]
    assert {key for key, value in picked.items() if value == "ctmc"} == {
        (name, 1.0) for name in ("db-hsdpa", "dc-hsdpa", "lte")
    }


def test_auto_on_a_mixed_two_area_config_is_the_simulator():
    # README's example cell: a two-area mixed cell at phi = 0.5
    cfg = CellConfig(areas=(AreaSpec(10, 14, 0.5), AreaSpec(1, "1.4", 0.5)))
    assert auto_evaluator(cfg, _first_probe_traffic(cfg, 0.5)) == "sim"
    single = CellConfig.single_area(1, 2)
    assert auto_evaluator(single, _first_probe_traffic(single, 0.5)) == "ctmc"


def test_result_carries_the_resolved_query():
    cfg, target = scenario_presets("dc-hsdpa")
    result = solve_preset("dc-hsdpa", 1.0)
    assert result.query.evaluator == "ctmc"
    assert (result.query.cfg, result.query.target_gamma) == (cfg, target)
