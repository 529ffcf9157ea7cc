"""The benchmark's checks pass on caflow's answers and fail on wrong ones.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import caflow.capacity as capacity  # noqa: E402
import caflow.ctmc as ctmc  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from caflow.model import CellConfig, Policy, TrafficMix  # noqa: E402

RHOS = (0.2, 0.5)
PHIS = workloads.SC_PHIS


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweeps")
    cli = workloads.cli
    grid = cli.SweepGrid(RHOS, PHIS)
    result = {}
    for policy in workloads.SC_POLICIES:
        spec = cli.RunSpec(CellConfig.single_area(1, 2), TrafficMix(1.0, 0.0, 1.0),
                           Policy(policy))
        result[policy] = checks.read_sweep_csv(
            cli.run_sweep(spec, grid, out / policy, workers=1))
    return result


def _sc(sweeps):
    return checks.check_sc_sweep(sweeps, 1, 2, RHOS, PHIS)


def _scaled(rows, key, factor, phi):
    rows = copy.deepcopy(rows)
    for row in rows:
        if row["phi"] == phi:
            row[key] *= factor
    return rows


def test_sc_sweep_passes_on_the_solver(sweeps):
    assert _sc(sweeps) == []


def test_sc_sweep_rejects_jsq_passed_off_as_jfq(sweeps):
    assert _sc({**sweeps, "jfq": sweeps["jsq"]})
    assert _sc({**sweeps, "jfq": sweeps["jsq"], "jsq": sweeps["jfq"]})


@pytest.mark.parametrize("policy,key,phi", [
    ("jfq", "gamma_dc_1", 0.0),
    ("bernoulli", "gamma_sc_1", 1.0),
])
def test_sc_sweep_rejects_gamma_scaled_by_1_05(sweeps, policy, key, phi):
    assert _sc({**sweeps, policy: _scaled(sweeps[policy], key, 1.05, phi)})


def test_sc_sweep_rejects_gamma_above_pooling_bound(sweeps):
    assert _sc({**sweeps, "jsq": _scaled(sweeps["jsq"], "gamma_sc_1", 1.6, 1.0)})


def test_sc_sweep_rejects_blocking_and_missing_rows(sweeps):
    assert _sc({**sweeps, "jsq": [{**row, "blocking_sc": 1e-7} for row in sweeps["jsq"]]})
    assert _sc({**sweeps, "bernoulli": sweeps["bernoulli"][:-1]})


@pytest.fixture(scope="module")
def mixed():
    cfg = CellConfig.single_area(1, 2)
    return {rho: ctmc.solve_model(cfg, TrafficMix(3 * rho, 0.5, 1.0), Policy.JFQ)
            for rho in (0.3, 0.4)}


def _mixed_points(mixed):
    return [workloads.mixed_point(rho, *answer) for rho, answer in sorted(mixed.items())]


def _mx(points):
    return checks.check_mixed_sweep(points, 1, 2, 0.5)


def test_mixed_sweep_passes_on_the_solver(mixed):
    assert workloads._mixed_check(mixed) == []


def test_mixed_sweep_rejects_swapped_classes(mixed):
    points = [{**p, "gamma_sc": p["gamma_dc"], "gamma_dc": p["gamma_sc"],
               "little_sc": p["little_dc"], "little_dc": p["little_sc"]}
              for p in _mixed_points(mixed)]
    assert _mx(points)


def test_mixed_sweep_rejects_gamma_scaled_by_1_05(mixed):
    points = [{**p, "gamma_sc": 1.05 * p["gamma_sc"], "gamma_dc": 1.05 * p["gamma_dc"]}
              for p in _mixed_points(mixed)]
    assert _mx(points)


def test_mixed_sweep_rejects_flow_average_above_the_bound(mixed):
    point = _mixed_points(mixed)[0]
    gamma = 1.01 * 3 * (1 - point["rho"])
    assert _mx([{**point, "gamma_sc": gamma, "gamma_dc": gamma,
                 "little_sc": gamma, "little_dc": gamma}])


def test_mixed_sweep_rejects_a_perturbed_distribution(mixed):
    _, dist = mixed[0.3]
    pi = dist.pi.copy()
    pi[:2] = pi[1::-1]  # swap the empty state's mass with its neighbour's
    residual = checks.balance_residual(dataclasses.replace(dist, pi=pi), Policy.JFQ)
    assert residual > 1e-6
    points = _mixed_points(mixed)
    points[0]["residual"] = residual
    assert _mx(points)


@pytest.mark.parametrize("key,value", [("residual", 1e-9), ("blocking", 1e-7)])
def test_mixed_sweep_rejects_a_looser_solve(mixed, key, value):
    points = _mixed_points(mixed)
    points[0][key] = value
    assert _mx(points)


def _bisect(theta, hi, rel_tol=0.01):
    lo, brackets = 0.0, [(0.0, hi)]
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid < theta else (lo, mid)
        brackets.append((lo, hi))
    return {"theta": 0.5 * (lo + hi), "brackets": tuple(brackets), "rel_tol": rel_tol}


@pytest.fixture(scope="module")
def capacity_answers():
    answers = {(name, 0.0): capacity.solve_preset(name, 0.0, "ctmc")
               for name in ("dc-hsdpa", "db-hsdpa", "lte")}
    answers = workloads._answers(answers)
    answers[("lte", 1.0)] = _bisect(12.6, 0.999 * 40.0)
    return answers


def test_capacity_ctmc_passes_on_the_solver(capacity_answers):
    assert checks.check_capacity_ctmc(capacity_answers) == []


@pytest.mark.parametrize("key,theta", [
    (("dc-hsdpa", 0.0), 1.05 * checks.dc_only_theta("dc-hsdpa")),
    (("lte", 1.0), 0.85 * 12.8),
    (("lte", 1.0), 22.5),  # above theta*(phi = 0) = 21.8
])
def test_capacity_ctmc_rejects_wrong_theta(capacity_answers, key, theta):
    answers = {**capacity_answers, key: _bisect(theta, 0.999 * 40.0)}
    assert checks.check_capacity_ctmc(answers)


def test_capacity_rejects_bad_brackets(capacity_answers):
    answer = capacity_answers[("lte", 1.0)]
    brackets = list(answer["brackets"])
    brackets[3] = (brackets[3][0], brackets[1][1] * 1.5)
    assert checks.check_capacity_ctmc(
        {**capacity_answers, ("lte", 1.0): {**answer, "brackets": tuple(brackets)}})
    assert checks.check_capacity_ctmc(
        {**capacity_answers, ("lte", 1.0): {**answer, "brackets": answer["brackets"][:-2]}})


@pytest.mark.parametrize("theta,ok", [(1.483, True), (2.0, False), (1.3, False)])
def test_capacity_sim_bounds(theta, ok):
    answers = {("dc-hsdpa", 0.5): _bisect(theta, 0.999 * 40.0 / 11.0)}
    assert (checks.check_capacity_sim(answers) == []) is ok


def test_per_layer_metrics_use_self_times():
    spans = [
        {"name": "ctmc.solve_model", "start": 0.0, "end": 10.0, "parent": None,
         "counters": {"via": "capacity", "grew": 1}},
        {"name": "ctmc.solve_stationary", "start": 1.0, "end": 5.0, "parent": 0,
         "counters": {"method": "direct", "iterations": 64}},
        {"name": "ctmc.blocking_mass", "start": 4.0, "end": 5.0, "parent": 1,
         "counters": {}},
        {"name": "ctmc.solve_stationary", "start": 6.0, "end": 8.0, "parent": 0,
         "counters": {"method": "arpack", "iterations": 0}},
    ]
    m = tracer.per_layer_metrics(spans, rounds=1, overhead_s=0.5)
    assert m["ctmc.solve.direct.s"] == 3.0
    assert m["ctmc.solve.arpack.s"] == 2.0
    assert m["ctmc.solve_stationary.s"] == 5.0
    assert m["ctmc.solve_stationary.max_s"] == 3.0
    assert m["ctmc.solve_model.self_s"] == 4.0
    assert m["ctmc.useful_solve_ratio"] == 0.5
    assert m["ctmc.polish_iterations"] == 64
    assert m["capacity.evaluator_calls"] == 1
    assert m["capacity.probe_s"] == 10.0
    assert m["trace.overhead_s"] == 0.5
    assert list(m) == list(tracer.PER_LAYER)


def test_tracer_restores_the_wrapped_functions():
    before = ctmc.solve_stationary
    with tracer.Tracer() as rec:
        assert ctmc.solve_stationary is not before
        ctmc.solve_model(CellConfig.single_area(1, 2), TrafficMix(0.3, 1.0, 1.0))
    assert ctmc.solve_stationary is before
    names = [s["name"] for s in rec.spans()]
    assert names[0] == "ctmc.solve_model" and "ctmc.blocking_mass" in names
    assert np.isfinite([s["end"] - s["start"] for s in rec.spans()]).all()
