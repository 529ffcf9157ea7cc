"""Inversion of throughput targets into sustainable traffic intensity.

The mean throughput at the cell edge decreases monotonically with the offered
traffic intensity theta = lambda * sigma, so the largest theta meeting a
target is found by bisection over the exact truncated-chain solver or the
event simulator (with noise-aware probe acceptance); the closed-form
approximation is inverted exactly, in one probe. Over the exact solver the
bisection decides most midpoints from earlier probes, by monotonicity, and
aims its probes at the bisection leaf around the interpolated root: the
brackets and theta* are those of plain bisection, for fewer solves.

Bundled scenario presets model a two-carrier cell with a strong center and a
ten-times-weaker edge; the externally reported capacity figures for these
scenarios are kept alongside for regression comparison (deviations are
reported, never asserted, because the underlying edge capacities are only
known to be "about" a tenth of the center).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .ctmc import first_lattice_states, solve_model
from .errors import ConfigError, ConvergenceError, InfeasibleTargetError
from .model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    harmonic_capacity,
    mixed_mean_throughput,
    sc_carrier1_share,
    theta_approximation,
)
from .sim import Stop, Trajectory, Warmup
from .sim import simulate  # noqa: F401  perfbench's tracer wraps it here by name

EVALUATORS = ("auto", "ctmc", "sim", "approx")

#: largest first lattice that ``auto`` solves exactly; the datasets' state budget
EXACT_MAX_STATES = 250_000

#: load never probed at or beyond this fraction of capacity
RHO_CEILING = 0.999

#: completions of a simulator probe's first round, and how often a probe may
#: double them while its interval straddles the target and is too wide; each
#: doubling extends the probe's one trajectory rather than starting another
SIM_COMPLETIONS = 30_000
SIM_MAX_DOUBLINGS = 3

PRESET_PHI_GRID = (1.0, 0.8, 0.5, 0.2)

#: the bundled two-area presets, half of the users in each area: name ->
#: (centre (c1, c2), edge (c1, c2), edge-throughput target in Mbit/s, the
#: reported sustainable intensity at each SC fraction of ``PRESET_PHI_GRID``);
#: edge capacities are exactly one tenth of the centre ones, and None marks a
#: cell where the target equals the zero-load edge throughput
PRESETS: dict[str, tuple[tuple[str, str], tuple[str, str], float, tuple[float | None, ...]]] = {
    "dc-hsdpa": (("10", "10"), ("1", "1"), 1.0, (None, 1.08, 1.48, 1.73)),
    "db-hsdpa": (("10", "14"), ("1", "1.4"), 1.0, (1.75, 2.11, 2.38, 2.65)),
    "lte": (("150", "70"), ("15", "7"), 10.0, (12.8, 16.0, 19.6, 24.8)),
}

#: probes after which the search stops and flags its bracket in ``note``
_MAX_PROBES = 200


def scenario_presets(name: str) -> tuple[CellConfig, float]:
    """Named two-area scenario of ``PRESETS`` and its edge-throughput target (Mbit/s)."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown scenario {name!r}; valid names: {', '.join(sorted(PRESETS))}"
        )
    center, edge, target, _ = PRESETS[name]
    cfg = CellConfig(areas=(AreaSpec(*center, 0.5), AreaSpec(*edge, 0.5)))
    return cfg, target


def auto_evaluator(cfg: CellConfig, traffic: TrafficMix, policy: Policy = Policy.JFQ) -> str:
    """``auto``: the exact solver iff its first lattice fits ``EXACT_MAX_STATES``, else sim."""
    return "ctmc" if first_lattice_states(cfg, traffic, policy) <= EXACT_MAX_STATES else "sim"


def reference_theta(name: str, phi: float) -> float | None:
    """The reported theta of preset ``name`` at ``phi``; None off ``PRESET_PHI_GRID``."""
    thetas = PRESETS[name][3] if name in PRESETS else ()
    for grid_phi, theta in zip(PRESET_PHI_GRID, thetas):
        if abs(grid_phi - phi) <= 1e-12:
            return theta
    return None


@dataclass(frozen=True)
class CapacityQuery:
    """One throughput-target inversion problem at the cell edge (the last area).

    ``rel_tol`` bounds the final bracket width relative to theta; it may not
    be below the float epsilon, which a bracket one ulp wide meets. Simulator
    probes are sized so their confidence interval either excludes the target
    or is narrower than the theta tolerance mapped into throughput units:
    probe k follows one trajectory on stream ``1_000 * k`` and doubles its
    completions along it until the interval does.
    The ``approx`` closed form routes SC flows to the fastest carrier, so
    with SC traffic (``phi > 0``) it accepts only ``Policy.JFQ``.
    ``evaluator="auto"`` resolves once, to :func:`auto_evaluator` at the
    bracket's first midpoint theta = ``RHO_CEILING`` * c_bar / 2, and the
    query keeps it; an exact search may aim its first probe elsewhere.
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
        if not 0.0 <= self.phi <= 1.0:
            raise ConfigError(f"SC fraction must lie in [0, 1], got {self.phi!r}")
        if not (math.isfinite(self.target_gamma) and self.target_gamma > 0):
            raise ConfigError(f"target throughput must be finite and > 0, got {self.target_gamma}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ConfigError(f"tolerance must be finite and > 0, got {self.rel_tol!r}")
        # a bracket one ulp wide meets any tolerance from the float epsilon up;
        # a smaller one spends the probe cap on probes that cannot narrow it
        if self.rel_tol < math.ulp(1.0):
            raise ConfigError(
                f"tolerance must be at least the float epsilon {math.ulp(1.0)!r}, "
                f"got {self.rel_tol!r}"
            )
        policy = Policy(self.policy)
        object.__setattr__(self, "policy", policy)
        if self.evaluator == "auto":
            theta = 0.5 * RHO_CEILING * harmonic_capacity(self.cfg)
            traffic = TrafficMix(theta / self.sigma, self.phi, self.sigma)
            object.__setattr__(self, "evaluator", auto_evaluator(self.cfg, traffic, policy))
        if self.evaluator == "approx" and self.phi > 0 and policy is not Policy.JFQ:
            raise ConfigError(
                "the approx evaluator models fastest-queue (jfq) routing of SC flows, "
                f"got policy {policy.value} with phi > 0"
            )


@dataclass(frozen=True)
class Probe:
    theta: float
    gamma: float


@dataclass(frozen=True)
class CapacityResult:
    theta_star: float
    achieved_gamma: float
    #: the bisection bracket after each midpoint, decided by a probe or not
    brackets: tuple[tuple[float, float], ...]
    #: the evaluated probes in order, the last at theta*; over the exact
    #: solver they are not every midpoint, and not all of them are midpoints
    probes: tuple[Probe, ...]
    #: the query solved, its evaluator resolved (``auto`` never stays)
    query: CapacityQuery
    reference: float | None = None
    deviation: float | None = None
    note: str = ""


def zero_load_edge_throughput(
    cfg: CellConfig, phi: float, area: int, policy: Policy = Policy.JFQ
) -> float:
    """Mean edge throughput of an otherwise empty cell.

    A lone SC flow is routed as an arrival to the empty cell is: the fastest
    carrier under ``jfq``, either carrier with probability 1/2 under ``jsq``
    (a tie), carrier 1 with probability c1/(c1+c2) under ``bernoulli``. A
    lone DC flow gets both carriers.
    """
    spec = cfg.areas[area]
    share = sc_carrier1_share(policy, spec, 0, 0, 0)
    lone_sc = share * spec.c1 + (1.0 - share) * spec.c2
    return phi * lone_sc + (1.0 - phi) * spec.c_total


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
            return Probe(theta=theta, gamma=_gamma_from_report(report, area))

        return probe_ctmc

    def probe_sim(theta: float, probe_id: int) -> Probe:
        traffic = TrafficMix(theta / query.sigma, phi, query.sigma)
        run = Trajectory(cfg, traffic, query.policy, query.seed, stream=1_000 * probe_id)
        completions = SIM_COMPLETIONS
        gamma = None
        for _ in range(SIM_MAX_DOUBLINGS + 1):
            rep = run.advance(Stop(completions=completions)).report(
                Warmup(0.2, min(10_000, completions // 4)), n_batches=10, min_group=100
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
        if gamma is None:
            kind = "dc" if sc is None or sc.gamma_hat is not None else "sc"
            raise ConvergenceError(
                f"simulator probe at theta={theta:.6g}: after {run.completions} completions, "
                f"{rep.estimates[(kind, area)].completions} post-warmup {kind.upper()} "
                f"completions in area {area + 1} are too few to estimate the edge throughput"
            )
        return Probe(theta=theta, gamma=gamma)

    return probe_sim


def _look_ahead_enabled(query: CapacityQuery) -> bool:
    """Whether the search runs its guessed next probe ahead in a forked helper.

    Only simulator probes are long enough to pay for it: an exact-solver
    probe on the presets takes about as long as a fork and a pipe round trip.
    A daemonic process may not start children.
    """
    import multiprocessing
    import os

    return (
        query.evaluator == "sim"
        and "fork" in multiprocessing.get_all_start_methods()
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and not multiprocessing.current_process().daemon
    )


def _run_probe(evaluator, theta: float, probe_id: int, conn) -> None:
    """Body of a look-ahead helper: send back ``(True, probe)`` or ``(False, error)``."""
    try:
        answer = (True, evaluator(theta, probe_id))
    except Exception as exc:  # re-raised by the caller if it needs this probe
        answer = (False, exc)
    conn.send(answer)
    conn.close()


class _LookAhead:
    """The evaluator, with the search's guessed next probe run ahead in a forked helper.

    Each call names the probe the search needs and the theta it guesses comes
    next. A helper whose probe left the search's path is terminated first;
    then the guess starts in a helper, and the needed probe runs here unless
    a helper already runs it, which the caller then waits for. So at most two
    probes are in flight. Probes are deterministic in (theta, probe id), so a
    helper's answer is the one the caller would compute. :meth:`close` ends
    every helper.
    """

    def __init__(self, evaluator):
        import multiprocessing

        # the helpers fork from this process, and a simulator probe's
        # half-width runs scipy.special: import it here, so that the first
        # helper, which starts before this process's first probe, does not
        # import it too. That saves CPU, not wall time: on dc-hsdpa at phi 0.5
        # the helpers took 2.40 s of CPU with this import and 2.49 s without,
        # the query 2.46 and 2.43 s (2-core x86, medians of 12 alternating runs)
        import scipy.special  # noqa: F401

        self._ctx = multiprocessing.get_context("fork")
        self._evaluator = evaluator
        self._helpers = {}  # (theta, probe id) -> (process, receiving end)

    def __call__(self, theta: float, probe_id: int, then: float | None = None) -> Probe:
        key = (theta, probe_id)
        for other in [k for k in self._helpers if k != key]:
            self._stop(other)
        if then is not None:
            recv, send = self._ctx.Pipe(duplex=False)
            helper = self._ctx.Process(
                target=_run_probe, args=(self._evaluator, then, probe_id + 1, send), daemon=True
            )
            helper.start()
            send.close()
            self._helpers[then, probe_id + 1] = (helper, recv)
        if key not in self._helpers:
            return self._evaluator(theta, probe_id)
        try:
            ok, value = self._helpers[key][1].recv()
        except EOFError:  # the helper ended without an answer: probe here
            ok, value = True, self._evaluator(theta, probe_id)
        finally:
            self._stop(key)
        if not ok:
            raise value
        return value

    def _stop(self, key) -> None:
        helper, recv = self._helpers.pop(key)
        helper.terminate()
        helper.join()
        recv.close()

    def close(self) -> None:
        for key in list(self._helpers):
            self._stop(key)


def _too_wide(lo: float, hi: float, rel_tol: float) -> bool:
    """Whether the search halves the bracket (lo, hi) again."""
    return hi - lo > rel_tol * max(hi, 1e-12)


def _leaf(lo: float, hi: float, root: float, rel_tol: float) -> tuple[float, float]:
    """The final bracket that bisection from (lo, hi) reaches for a root at ``root``."""
    while _too_wide(lo, hi, rel_tol):
        mid = 0.5 * (lo + hi)
        if mid < root:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _interpolated_root(a: Probe, b: Probe, target: float) -> float:
    """The theta at which the line through ``a`` and ``b`` meets the target."""
    return a.theta + (a.gamma - target) * (b.theta - a.theta) / (a.gamma - b.gamma)


def _aim(lo: float, hi: float, a: Probe, b: Probe, target: float, rel_tol: float) -> float:
    """Where an exact probe goes: the end of the bisection leaf around the
    target's linear interpolation s between ``a`` and ``b`` that lies
    strictly inside (a, b) and closer to s. Should rounding leave neither
    end inside, it is the midpoint of (lo, hi).
    """
    s = _interpolated_root(a, b, target)
    ends = [t for t in _leaf(lo, hi, s, rel_tol) if a.theta < t < b.theta]
    return min(ends, key=lambda t: abs(t - s), default=0.5 * (lo + hi))


def max_sustainable_intensity(query: CapacityQuery) -> CapacityResult:
    """Largest traffic intensity whose edge throughput still meets the target.

    Bisection over theta in (0, RHO_CEILING * c_bar): the lower end delivers
    the zero-load throughput, the upper end delivers (arbitrarily close to)
    zero, and the response is monotone non-increasing in between. The upper
    endpoint itself is never evaluated. A target equal to the zero-load
    throughput yields theta = 0; a larger target is infeasible. The
    ``approx`` evaluator is the closed form of
    :func:`~caflow.model.theta_approximation`, returned as one exact probe.

    Beside the bisection bracket the search keeps (a, b), the tightest
    evaluated probes (or ends) above and at or below the target. A midpoint
    at or below a's theta is above the target, one at or above b's is not,
    and neither needs a probe. Only a midpoint strictly inside (a, b) does.
    The simulator probes that midpoint, so its (a, b) is the bracket. The
    exact solver, whose throughput is monotone, probes where the root
    probably is instead (:func:`_aim`), or the midpoint after two probes in
    a row that moved the same end of (a, b). Its brackets, theta* and
    achieved throughput are those of plain bisection; only the number of
    solves falls. After ``_MAX_PROBES`` probes the search stops halving:
    theta* is the midpoint of a bracket still wider than ``rel_tol``, and
    ``note`` says so and gives the width.

    With the simulator on at least two CPUs, and where ``fork`` is available
    and the caller is not a daemonic process, the search looks ahead: while
    the caller computes the probe it needs, a forked helper computes the next
    one at the midpoint the search is guessed to pick: the probe is guessed
    to come out above the target if its theta lies below the root
    interpolated between the bracket ends' throughputs
    (:func:`_interpolated_root`, which also aims the exact probes). A helper
    whose probe leaves the search's path is terminated, and none outlives
    the call. Every probe, bracket and theta* is the one the serial search
    gives.
    """
    cfg, phi = query.cfg, query.phi
    gamma0 = zero_load_edge_throughput(cfg, phi, cfg.edge, query.policy)
    target = query.target_gamma
    if target > gamma0 * (1.0 + 1e-12):
        raise InfeasibleTargetError(
            f"target {target!r} exceeds the zero-load edge throughput {gamma0!r}"
        )
    if target >= gamma0 * (1.0 - 1e-12):
        return CapacityResult(
            theta_star=0.0, achieved_gamma=gamma0, brackets=((0.0, 0.0),), probes=(),
            query=query,
            note="target equals the zero-load edge throughput; only an empty cell attains it",
        )
    if query.evaluator == "approx":
        theta = theta_approximation(cfg, phi, target)
        return CapacityResult(
            theta_star=theta, achieved_gamma=target, brackets=((theta, theta),),
            probes=(Probe(theta=theta, gamma=target),), query=query,
        )

    gamma_tol = max(target * query.rel_tol, query.rel_tol * gamma0 * 0.1)
    evaluator = _make_evaluator(query, gamma_tol)
    ahead = _LookAhead(evaluator) if _look_ahead_enabled(query) else None
    exact = query.evaluator != "sim"

    lo, hi = 0.0, RHO_CEILING * harmonic_capacity(cfg)
    a, b = Probe(theta=lo, gamma=gamma0), Probe(theta=hi, gamma=0.0)
    brackets = [(lo, hi)]
    probes: list[Probe] = []
    moved: list[bool] = []  # per probe: whether it moved a (else b)
    note = ""
    try:
        while _too_wide(lo, hi, query.rel_tol):
            mid = 0.5 * (lo + hi)
            if mid <= a.theta or mid >= b.theta:
                lo, hi = (mid, hi) if mid <= a.theta else (lo, mid)
                brackets.append((lo, hi))
                continue
            if len(probes) == _MAX_PROBES:
                # the CSV's note column is not quoted: no commas
                note = (
                    f"stopped after {_MAX_PROBES} probes with the bracket {hi - lo:.3g} "
                    f"wide (over rel_tol {query.rel_tol:g} times its upper end)"
                )
                break
            if ahead is not None:
                above = mid < _interpolated_root(a, b, target)
                then = 0.5 * (mid + hi) if above else 0.5 * (lo + mid)
                probe = ahead(mid, len(probes), then)
            else:
                # two probes in a row moved the same end: the aim has stalled
                stalled = len(moved) >= 2 and moved[-1] == moved[-2]
                aimed = exact and not stalled
                theta = _aim(lo, hi, a, b, target, query.rel_tol) if aimed else mid
                probe = evaluator(theta, len(probes))
            probes.append(probe)
            moved.append(probe.gamma > target)
            if moved[-1]:
                a = probe
            else:
                b = probe

        theta_star = 0.5 * (lo + hi)
        final = (evaluator if ahead is None else ahead)(theta_star, len(probes))
    finally:
        if ahead is not None:
            ahead.close()
    probes.append(final)
    return CapacityResult(
        theta_star=theta_star,
        achieved_gamma=final.gamma,
        brackets=tuple(brackets),
        probes=tuple(probes),
        query=query,
        note=note,
    )


def solve_preset(
    name: str,
    phi: float,
    evaluator: str = "auto",
    *,
    seed: int = 0,
    rel_tol: float = 0.01,
) -> CapacityResult:
    """Capacity inversion for a named preset under JFQ routing, with reference comparison.

    ``evaluator="auto"`` follows :func:`auto_evaluator`, as for any
    :class:`CapacityQuery`: on the presets that is the exact solver at
    phi in {0, 1} and the simulator for mixed traffic, whose two-area lattice
    has six axes.
    """
    cfg, target = scenario_presets(name)
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
