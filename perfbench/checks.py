"""Correctness checks of the workloads' answers.

Every reference here is computed apart from caflow: closed forms of the
model, bounds proven for it, and the capacity figures the paper publishes.
None is a stored copy of an earlier run. Each check returns a list of
failure messages; an empty list means the answers passed.
"""

from __future__ import annotations

import csv

import numpy as np
from caflow.ctmc import build_generator

#: a value written with 6 significant digits is within 5e-6 of the true one,
#: relative; the rest of this tolerance covers truncation error of the
#: auto-grown lattice (blocking mass at most 1e-8)
CSV_RTOL = 1e-5

#: slack for inequalities between exact solver outputs (residual <= 1e-10)
SOLVER_RTOL = 1e-9

#: largest balance residual ||pi Q||_inf / unif of an exact solve; fixed
#: here rather than read from caflow, so that a looser solver shows
MAX_RESIDUAL = 1e-10

#: largest dropped-arrival mass of a truncated answer: the truncation target
#: that CSV_RTOL allows for, fixed here rather than read from caflow
MAX_BLOCKING = 1e-8

#: the paper's figures are matched within this share
PAPER_RTOL = 0.10

#: two-area presets as the paper states them: (center carriers, edge
#: carriers), half of the users in each area, edge-throughput target
PRESETS = {
    "dc-hsdpa": (((10.0, 10.0), (1.0, 1.0)), 1.0),
    "db-hsdpa": (((10.0, 14.0), (1.0, 1.4)), 1.0),
    "lte": (((150.0, 70.0), (15.0, 7.0)), 10.0),
}

#: sustainable intensity the paper reports, per (preset, SC fraction)
PAPER_THETA = {("lte", 1.0): 12.8, ("dc-hsdpa", 0.5): 1.48}


def dc_only_theta(preset: str) -> float:
    """theta* for DC-only traffic: edge throughput c_edge (1 - theta / c_bar)
    equals the target, with c_bar the area-weighted harmonic mean of the
    carrier sums."""
    areas, target = PRESETS[preset]
    c_bar = 1.0 / sum(0.5 / (c1 + c2) for c1, c2 in areas)
    return c_bar * (1.0 - target / sum(areas[-1]))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------------------
# sc-sweep


def read_sweep_csv(path) -> list[dict]:
    """Rows of a ``caflow sweep`` CSV as floats (None for an empty cell)."""
    with open(path, encoding="utf-8", newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = []
    for raw in csv.DictReader(body):
        row = {}
        for key, text in raw.items():
            if key in ("policy", "method"):
                row[key] = text
            else:
                row[key] = float(text) if text else None
        rows.append(row)
    return rows


def check_sc_sweep(sweeps: dict[str, list[dict]], c1: float, c2: float,
                   rhos: tuple[float, ...], phis: tuple[float, ...]) -> list[str]:
    """One area, carriers (c1, c2), SC-only and DC-only traffic.

    * DC-only: gamma = (c1 + c2)(1 - rho) under every policy (one M/M/1-PS
      queue of capacity c1 + c2).
    * Bernoulli SC: gamma = (c1 + c2)(1 - rho) / 2 (two independent
      M/M/1-PS queues at load rho).
    * JFQ >= JSQ, and JFQ >= 0.9 c_max (1 - rho) for 0.2 <= rho <= 0.8 (the
      fast-carrier reference of the paper, conservative within 10%).
    * Every SC policy stays at or below the ideal-pooling bound
      (1 - rho)(c_max + rho c_min).
    * Blocking mass at most MAX_BLOCKING (1e-8).

    JSQ >= Bernoulli is not checked: it is false at rho <= 0.1.
    """
    fails = []
    c_tot, c_max, c_min = c1 + c2, max(c1, c2), min(c1, c2)
    grid = [(rho, phi) for rho in rhos for phi in phis]
    sc = {}
    for policy, rows in sweeps.items():
        got = [(row["rho"], row["phi"]) for row in rows]
        if len(got) != len(grid) or any(
            _rel(r, er) > CSV_RTOL or p != ep for (r, p), (er, ep) in zip(got, grid)
        ):
            fails.append(f"sc-sweep {policy}: rows {got} are not the grid {grid}")
            continue
        for (rho, phi), row in zip(grid, rows):
            where = f"sc-sweep {policy} rho={rho} phi={phi}"
            blocking = max(row["blocking_sc"], row["blocking_dc"])
            if blocking > MAX_BLOCKING:
                fails.append(f"{where}: blocking {blocking:.3g} > {MAX_BLOCKING}")
            if phi == 0.0:
                ref = c_tot * (1.0 - rho)
                if _rel(row["gamma_dc_1"], ref) > CSV_RTOL:
                    fails.append(f"{where}: DC-only gamma {row['gamma_dc_1']} != {ref:.6g}")
                continue
            gamma = row["gamma_sc_1"]
            sc[(policy, rho)] = gamma
            bound = (1.0 - rho) * (c_max + rho * c_min)
            if gamma > bound * (1.0 + CSV_RTOL):
                fails.append(f"{where}: gamma {gamma} above the pooling bound {bound:.6g}")
            if policy == "bernoulli" and _rel(gamma, c_tot * (1.0 - rho) / 2.0) > CSV_RTOL:
                fails.append(
                    f"{where}: Bernoulli gamma {gamma} != {c_tot * (1.0 - rho) / 2.0:.6g}")
            if policy == "jfq" and 0.2 <= rho <= 0.8 and gamma < 0.9 * c_max * (1.0 - rho):
                fails.append(f"{where}: JFQ gamma {gamma} below 0.9 c_max (1 - rho)")
    for rho in rhos:
        jfq, jsq = sc.get(("jfq", rho)), sc.get(("jsq", rho))
        if jfq is not None and jsq is not None and jfq < jsq * (1.0 - CSV_RTOL):
            fails.append(f"sc-sweep rho={rho}: JFQ {jfq} below JSQ {jsq}")
    return fails


# ---------------------------------------------------------------------------
# mixed-sweep


def balance_residual(dist, policy) -> float:
    """||pi Q||_inf / unif on a generator rebuilt from the solved lattice."""
    gen = build_generator(dist.cfg, dist.traffic, dist.space, policy)
    return float(np.abs(gen.Q.T @ dist.pi).max()) / gen.unif


def little_throughputs(dist) -> tuple[float, float]:
    """(gamma_SC, gamma_DC) of a one-area lattice by Little's law on pi:
    lambda phi sigma / E[n1 + n2] and lambda (1 - phi) sigma / E[m]."""
    t = dist.traffic
    counts = dist.space.counts
    mean_sc = float(dist.pi @ (counts[:, 0] + counts[:, 1]))
    mean_dc = float(dist.pi @ counts[:, 2])
    load = t.lambda_total * t.sigma
    return load * t.phi / mean_sc, load * (1.0 - t.phi) / mean_dc


def check_mixed_sweep(points: list[dict], c1: float, c2: float, phi: float) -> list[str]:
    """One area, carriers (c1, c2), SC fraction ``phi``; each point holds
    rho, gamma_sc, gamma_dc, blocking, the recomputed residual and the
    throughputs by Little's law on the returned distribution (little_sc,
    little_dc).

    * gamma_SC and gamma_DC equal Little's law on the distribution.
    * gamma_DC >= gamma_SC: in every state a DC flow is served at least as
      fast as any SC flow.
    * The flow average 1 / (phi / gamma_SC + (1 - phi) / gamma_DC), which is
      lambda sigma / E[N], is at most (c1 + c2)(1 - rho): the total service
      rate never exceeds c1 + c2, so the occupancy dominates that M/M/1-PS
      queue.
    * The balance residual is at most MAX_RESIDUAL (1e-10).
    * Blocking mass at most MAX_BLOCKING (1e-8).
    """
    fails = []
    for p in points:
        where = f"mixed-sweep rho={p['rho']}"
        g_sc, g_dc = p["gamma_sc"], p["gamma_dc"]
        if _rel(g_sc, p["little_sc"]) > SOLVER_RTOL or _rel(g_dc, p["little_dc"]) > SOLVER_RTOL:
            fails.append(f"{where}: gammas ({g_sc!r}, {g_dc!r}) are not Little's law on pi "
                         f"({p['little_sc']!r}, {p['little_dc']!r})")
        if g_dc < g_sc * (1.0 - SOLVER_RTOL):
            fails.append(f"{where}: gamma_DC {g_dc!r} below gamma_SC {g_sc!r}")
        flow = 1.0 / (phi / g_sc + (1.0 - phi) / g_dc)
        bound = (c1 + c2) * (1.0 - p["rho"])
        if flow > bound * (1.0 + SOLVER_RTOL):
            fails.append(f"{where}: flow-average throughput {flow!r} above {bound!r}")
        if not p["residual"] <= MAX_RESIDUAL:
            fails.append(f"{where}: balance residual {p['residual']:.3g} > {MAX_RESIDUAL}")
        if p["blocking"] > MAX_BLOCKING:
            fails.append(f"{where}: blocking {p['blocking']:.3g} > {MAX_BLOCKING}")
    return fails


# ---------------------------------------------------------------------------
# capacity-ctmc and capacity-sim


def _check_bisection(where: str, answer: dict) -> list[str]:
    fails = []
    brackets = answer["brackets"]
    for (lo0, hi0), (lo1, hi1) in zip(brackets, brackets[1:]):
        if not (lo0 <= lo1 <= hi1 <= hi0):
            fails.append(f"{where}: bracket ({lo1}, {hi1}) not inside ({lo0}, {hi0})")
            break
    lo, hi = brackets[-1]
    if hi - lo > answer["rel_tol"] * hi:
        fails.append(f"{where}: final bracket ({lo}, {hi}) wider than rel_tol * hi")
    if not lo <= answer["theta"] <= hi:
        fails.append(f"{where}: theta* {answer['theta']} outside its final bracket")
    return fails


def check_capacity_ctmc(answers: dict[tuple[str, float], dict]) -> list[str]:
    """Capacity queries on the exact solver; each answer holds theta,
    brackets and rel_tol.

    * phi = 0: theta* within rel_tol of the DC-only closed form.
    * lte, phi = 1: within 10% of the paper's 12.8.
    * theta*(phi = 1) <= theta*(phi = 0): SC flows never beat DC flows.
    * The brackets are nested and the last one is at most rel_tol * hi wide.
    """
    fails = []
    for (preset, phi), answer in answers.items():
        where = f"capacity-ctmc {preset} phi={phi}"
        fails += _check_bisection(where, answer)
        theta = answer["theta"]
        if phi == 0.0:
            ref = dc_only_theta(preset)
            if _rel(theta, ref) > answer["rel_tol"]:
                fails.append(f"{where}: theta* {theta} not within rel_tol of {ref:.6g}")
        paper = PAPER_THETA.get((preset, phi))
        if paper is not None and _rel(theta, paper) > PAPER_RTOL:
            fails.append(f"{where}: theta* {theta} not within 10% of the paper's {paper}")
    for (preset, phi), answer in answers.items():
        dc = answers.get((preset, 0.0))
        if phi == 1.0 and dc is not None and answer["theta"] > dc["theta"]:
            fails.append(f"capacity-ctmc {preset}: theta*(phi=1) {answer['theta']} "
                         f"above theta*(phi=0) {dc['theta']}")
    return fails


def check_capacity_sim(answers: dict[tuple[str, float], dict]) -> list[str]:
    """Capacity queries on the simulator.

    * 0 <= theta* <= the preset's DC-only theta* (mixed traffic has SC flows,
      which are never faster than DC ones).
    * Within 10% of the paper's figure.
    * The brackets are nested and the last one is at most rel_tol * hi wide.
    """
    fails = []
    for (preset, phi), answer in answers.items():
        where = f"capacity-sim {preset} phi={phi}"
        fails += _check_bisection(where, answer)
        theta, ceiling = answer["theta"], dc_only_theta(preset)
        if not 0.0 <= theta <= ceiling:
            fails.append(f"{where}: theta* {theta} outside [0, {ceiling:.6g}]")
        paper = PAPER_THETA.get((preset, phi))
        if paper is not None and _rel(theta, paper) > PAPER_RTOL:
            fails.append(f"{where}: theta* {theta} not within 10% of the paper's {paper}")
    return fails
