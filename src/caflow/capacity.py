"""Inversion of throughput targets into sustainable traffic intensity.

The mean throughput at the cell edge decreases monotonically with the offered
traffic intensity theta = lambda * sigma, so the largest theta meeting a
target is found by bisection over the exact truncated-chain solver or the
event simulator (with noise-aware probe acceptance); the closed-form
approximation is inverted exactly, in one probe.

Bundled scenario presets model a two-carrier cell with a strong center and a
ten-times-weaker edge; the externally reported capacity figures for these
scenarios are kept alongside for regression comparison (deviations are
reported, never asserted, because the underlying edge capacities are only
known to be "about" a tenth of the center).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ctmc import solve_model
from .errors import ConfigError, InfeasibleTargetError
from .model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    harmonic_capacity,
    mixed_mean_throughput,
    theta_approximation,
)
from .sim import Stop, Warmup, simulate

EVALUATORS = ("ctmc", "sim", "approx")

#: load never probed at or beyond this fraction of capacity
RHO_CEILING = 0.999

#: completions of a simulator probe's first run, and how often a probe may
#: double them while its interval straddles the target and is too wide
SIM_COMPLETIONS = 30_000
SIM_MAX_DOUBLINGS = 3

#: reported sustainable-intensity figures for the presets, per SC fraction;
#: None marks a cell where the target equals the zero-load edge throughput
REFERENCE_THETA: dict[str, dict[float, float | None]] = {
    "dc-hsdpa": {1.0: None, 0.8: 1.08, 0.5: 1.48, 0.2: 1.73},
    "db-hsdpa": {1.0: 1.75, 0.8: 2.11, 0.5: 2.38, 0.2: 2.65},
    "lte": {1.0: 12.8, 0.8: 16.0, 0.5: 19.6, 0.2: 24.8},
}

PRESET_PHI_GRID = (1.0, 0.8, 0.5, 0.2)


def scenario_presets(name: str) -> tuple[CellConfig, float]:
    """Named two-area scenario and its edge-throughput target (Mbit/s).

    Edge capacities are exactly one tenth of the center ones; half of the
    users sit in the center.
    """
    presets = {
        "dc-hsdpa": ((("10", "10"), ("1", "1")), 1.0),
        "db-hsdpa": ((("10", "14"), ("1", "1.4")), 1.0),
        "lte": ((("150", "70"), ("15", "7")), 10.0),
    }
    if name not in presets:
        raise ConfigError(
            f"unknown scenario {name!r}; valid names: {', '.join(sorted(presets))}"
        )
    (center, edge), target = presets[name]
    cfg = CellConfig(areas=(AreaSpec(*center, 0.5), AreaSpec(*edge, 0.5)))
    return cfg, target


def reference_theta(name: str, phi: float) -> float | None:
    table = REFERENCE_THETA.get(name)
    if table is None:
        return None
    for key, value in table.items():
        if abs(key - phi) <= 1e-12:
            return value
    return None


@dataclass(frozen=True)
class CapacityQuery:
    """One throughput-target inversion problem at the cell edge (the last area).

    ``rel_tol`` bounds the final bracket width relative to theta. Simulator
    probes are sized so their confidence interval either excludes the target
    or is narrower than the theta tolerance mapped into throughput units.
    The ``approx`` closed form routes SC flows to the fastest carrier, so
    with SC traffic (``phi > 0``) it accepts only ``Policy.JFQ``.
    """

    cfg: CellConfig
    phi: float
    target_gamma: float
    evaluator: str = "ctmc"
    rel_tol: float = 0.01
    sigma: float = 1.0
    seed: int = 0
    policy: Policy = Policy.JFQ

    def __post_init__(self):
        if self.evaluator not in EVALUATORS:
            raise ConfigError(f"evaluator must be one of {EVALUATORS}, got {self.evaluator!r}")
        if self.target_gamma <= 0:
            raise ConfigError("target throughput must be > 0")
        if self.rel_tol <= 0:
            raise ConfigError("tolerance must be > 0")
        policy = Policy(self.policy)
        if self.evaluator == "approx" and self.phi > 0 and policy is not Policy.JFQ:
            raise ConfigError(
                "the approx evaluator models fastest-queue (jfq) routing of SC flows, "
                f"got policy {policy.value} with phi > 0"
            )


@dataclass(frozen=True)
class Probe:
    theta: float
    gamma: float
    half_width: float | None


@dataclass(frozen=True)
class CapacityResult:
    theta_star: float
    achieved_gamma: float
    brackets: tuple[tuple[float, float], ...]
    probes: tuple[Probe, ...]
    evaluator: str
    reference: float | None = None
    deviation: float | None = None
    note: str = ""


def zero_load_edge_throughput(cfg: CellConfig, phi: float, area: int) -> float:
    """Mean edge throughput of an otherwise empty cell.

    A lone SC flow joins the fastest carrier; a lone DC flow gets both.
    """
    spec = cfg.areas[area]
    return phi * spec.c_max + (1.0 - phi) * spec.c_total


def _gamma_from_report(report, area: int) -> float:
    value = report.gamma_bar(area)
    if value is None:
        raise ConfigError("evaluator produced no edge throughput for the requested mix")
    return value


def _make_evaluator(query: CapacityQuery, gamma_tol: float):
    cfg, phi, area = query.cfg, query.phi, query.cfg.edge
    if query.evaluator == "ctmc":

        def probe_ctmc(theta: float, _probe_id: int) -> Probe:
            traffic = TrafficMix(theta / query.sigma, phi, query.sigma)
            report, _ = solve_model(cfg, traffic, query.policy)
            return Probe(theta=theta, gamma=_gamma_from_report(report, area), half_width=None)

        return probe_ctmc

    def probe_sim(theta: float, probe_id: int) -> Probe:
        traffic = TrafficMix(theta / query.sigma, phi, query.sigma)
        completions = SIM_COMPLETIONS
        gamma = half = None
        for round_ in range(SIM_MAX_DOUBLINGS + 1):
            rep = simulate(
                cfg,
                traffic,
                query.policy,
                stop=Stop(completions=completions),
                warmup=Warmup(0.2, min(10_000, completions // 4)),
                seed=query.seed,
                stream=1_000 * probe_id + round_,
                n_batches=10,
                min_group=100,
            )
            sc, dc = (rep.estimates.get((kind, area)) for kind in ("sc", "dc"))
            gamma = mixed_mean_throughput(sc and sc.gamma_hat, dc and dc.gamma_hat, phi)
            if gamma is None:
                completions *= 2
                continue
            # a half-width is None exactly when its gamma is
            half = mixed_mean_throughput(sc and sc.half_width, dc and dc.half_width, phi)
            # accept when the interval excludes the target or is tight enough
            if abs(gamma - query.target_gamma) > half or half <= gamma_tol / 2.0:
                break
            completions *= 2
        return Probe(theta=theta, gamma=gamma, half_width=half)

    return probe_sim


def max_sustainable_intensity(query: CapacityQuery) -> CapacityResult:
    """Largest traffic intensity whose edge throughput still meets the target.

    Bisection over theta in (0, RHO_CEILING * c_bar): the lower end delivers
    the zero-load throughput, the upper end delivers (arbitrarily close to)
    zero, and the response is monotone non-increasing in between. The upper
    endpoint itself is never evaluated. A target equal to the zero-load
    throughput yields theta = 0; a larger target is infeasible. The
    ``approx`` evaluator is the closed form of
    :func:`~caflow.model.theta_approximation`, returned as one exact probe.
    """
    cfg, phi = query.cfg, query.phi
    gamma0 = zero_load_edge_throughput(cfg, phi, cfg.edge)
    target = query.target_gamma
    if target > gamma0 * (1.0 + 1e-12):
        raise InfeasibleTargetError(
            f"target {target!r} exceeds the zero-load edge throughput {gamma0!r}"
        )
    if target >= gamma0 * (1.0 - 1e-12):
        return CapacityResult(
            theta_star=0.0, achieved_gamma=gamma0, brackets=((0.0, 0.0),), probes=(),
            evaluator=query.evaluator,
            note="target equals the zero-load edge throughput; only an empty cell attains it",
        )
    if query.evaluator == "approx":
        theta = theta_approximation(cfg, phi, target)
        return CapacityResult(
            theta_star=theta, achieved_gamma=target, brackets=((theta, theta),),
            probes=(Probe(theta=theta, gamma=target, half_width=None),), evaluator="approx",
        )

    c_bar = harmonic_capacity(cfg)
    hi = RHO_CEILING * c_bar
    lo = 0.0
    gamma_tol = max(target * query.rel_tol, query.rel_tol * gamma0 * 0.1)
    evaluator = _make_evaluator(query, gamma_tol)

    brackets = [(lo, hi)]
    probes: list[Probe] = []
    for probe_id in range(200):
        if hi - lo <= query.rel_tol * max(hi, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        probe = evaluator(mid, probe_id)
        probes.append(probe)
        if probe.gamma > target:
            lo = mid
        else:
            hi = mid
        brackets.append((lo, hi))

    theta_star = 0.5 * (lo + hi)
    final = evaluator(theta_star, len(probes))
    probes.append(final)
    return CapacityResult(
        theta_star=theta_star,
        achieved_gamma=final.gamma,
        brackets=tuple(brackets),
        probes=tuple(probes),
        evaluator=query.evaluator,
    )


def solve_preset(
    name: str,
    phi: float,
    evaluator: str = "auto",
    *,
    seed: int = 0,
    rel_tol: float = 0.01,
) -> CapacityResult:
    """Capacity inversion for a named preset, with reference comparison.

    ``evaluator="auto"`` picks the exact solver when one traffic class is
    absent (the lattice then collapses to a tractable size) and the simulator
    for genuinely mixed traffic, where a two-area lattice within the blocking
    target would exceed the state budget.
    """
    cfg, target = scenario_presets(name)
    if evaluator == "auto":
        evaluator = "ctmc" if phi in (0.0, 1.0) else "sim"
    query = CapacityQuery(
        cfg=cfg, phi=phi, target_gamma=target, evaluator=evaluator,
        seed=seed, rel_tol=rel_tol,
    )
    result = max_sustainable_intensity(query)
    ref = reference_theta(name, phi)
    deviation = None
    if ref is not None and ref > 0:
        deviation = (result.theta_star - ref) / ref
    return replace(result, reference=ref, deviation=deviation)
