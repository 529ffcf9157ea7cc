"""The benchmark's workloads: the operations of one round, and the check of
their answers.

Each workload is a closed loop: one caller, and each call into caflow starts
after the previous one returned. Calls go through module attributes
(``cli.run_sweep``, ``ctmc.solve_model``, ``capacity.solve_preset``), so the
traced run sees them.

No workload has a random input, so the benchmark's seed changes nothing: the
solver is deterministic, the simulator seed is pinned (``SIM_SEED``), and the
operations run in a fixed order because the order moves the peak memory: the
same seven ``mixed-sweep`` solves peaked at 397 MiB to 447 MiB depending on
whether the direct LU at rho = 0.6 ran before or after the ARPACK solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import caflow.capacity as capacity
import caflow.cli as cli
import caflow.ctmc as ctmc
from caflow.model import CellConfig, Policy, TrafficMix

import checks

CARRIERS = (1, 2)

SC_RHOS = tuple(round(0.05 * k, 2) for k in range(1, 19))  # 0.05 ... 0.9
SC_PHIS = (0.0, 1.0)
SC_POLICIES = ("jfq", "jsq", "bernoulli")

MIXED_PHI = 0.5
#: rho = 0.7 (a 35,990-state direct LU of about 70 s) is left out: one such
#: solve is longer than a run may last; rho = 0.6 and 0.8 still sit on the
#: two sides of the solver's method crossover
MIXED_RHOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8)

CAPACITY_CTMC = (("lte", 1.0), ("dc-hsdpa", 0.0), ("db-hsdpa", 0.0), ("lte", 0.0))
CAPACITY_SIM = (("dc-hsdpa", 0.5),)
#: simulator seed of the capacity queries: the default of ``solve_preset`` and
#: of ``caflow capacity``. It is not taken from the benchmark's seed because
#: the query's work depends on it: over simulator seeds 0-9 and 11-15 it took
#: 3.4M to 5.1M events and 29 s to 41 s, a quartile spread of 0.2, which
#: would hide any regression smaller than that
SIM_SEED = 0
#: bracket tolerance of ``solve_preset``
PRESET_REL_TOL = 0.01


@dataclass(frozen=True)
class Operation:
    key: object               # what the check files the answer under
    size: int                 # grid points or capacity queries it stands for
    call: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    operations: Callable[[Path], list[Operation]]
    # answers of one round, by operation key -> failure messages; runs after
    # the timed section, with tracing off
    check: Callable[[dict], list[str]]


def _cell() -> CellConfig:
    return CellConfig.single_area(*CARRIERS)


# --- sc-sweep ---------------------------------------------------------------


def _sc_operations(out_dir: Path) -> list[Operation]:
    spec_traffic = TrafficMix(1.0, 0.0, 1.0)  # run_sweep reads only sigma
    grid = cli.SweepGrid(SC_RHOS, SC_PHIS)

    def sweep(policy):
        spec = cli.RunSpec(_cell(), spec_traffic, Policy(policy))
        return lambda: cli.run_sweep(spec, grid, out_dir / policy, workers=1)

    return [Operation(p, len(SC_RHOS) * len(SC_PHIS), sweep(p)) for p in SC_POLICIES]


def _sc_check(answers: dict) -> list[str]:
    sweeps = {policy: checks.read_sweep_csv(path) for policy, path in answers.items()}
    return checks.check_sc_sweep(sweeps, *CARRIERS, SC_RHOS, SC_PHIS)


# --- mixed-sweep ------------------------------------------------------------


def _mixed_operations(_out_dir: Path) -> list[Operation]:
    def solve(rho):
        traffic = TrafficMix(rho * sum(CARRIERS), MIXED_PHI, 1.0)
        return lambda: ctmc.solve_model(_cell(), traffic, Policy.JFQ)

    return [Operation(rho, 1, solve(rho)) for rho in MIXED_RHOS]


def _mixed_check(answers: dict) -> list[str]:
    return checks.check_mixed_sweep(
        [mixed_point(rho, *answer) for rho, answer in sorted(answers.items())],
        *CARRIERS, MIXED_PHI)


def mixed_point(rho: float, report, dist) -> dict:
    """What the mixed-sweep check reads of one solve."""
    little_sc, little_dc = checks.little_throughputs(dist)
    return {
        "rho": rho,
        "gamma_sc": report.gamma_sc(0),
        "gamma_dc": report.gamma_dc(0),
        "blocking": report.diagnostics.blocking_max,
        "residual": checks.balance_residual(dist, Policy.JFQ),
        "little_sc": little_sc,
        "little_dc": little_dc,
    }


# --- capacity-ctmc and capacity-sim -----------------------------------------


def _capacity_operations(queries, evaluator):
    def operations(_out_dir: Path) -> list[Operation]:
        def query(preset, phi):
            return lambda: capacity.solve_preset(preset, phi, evaluator, seed=SIM_SEED)

        return [Operation(q, 1, query(*q)) for q in queries]

    return operations


def _answers(answers: dict) -> dict:
    return {key: {"theta": res.theta_star, "brackets": res.brackets,
                  "rel_tol": PRESET_REL_TOL}
            for key, res in answers.items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sc-sweep", _sc_operations, _sc_check),
        Workload("mixed-sweep", _mixed_operations, _mixed_check),
        Workload("capacity-ctmc", _capacity_operations(CAPACITY_CTMC, "ctmc"),
                 lambda answers: checks.check_capacity_ctmc(_answers(answers))),
        Workload("capacity-sim", _capacity_operations(CAPACITY_SIM, "sim"),
                 lambda answers: checks.check_capacity_sim(_answers(answers))),
    )
}
