"""Exact event-driven simulation of the untruncated occupancy process.

Because flow volumes are exponential and every class is served
processor-sharing style, the occupancy counts form a Markov jump process and
can be sampled exactly one transition at a time: draw an exponential holding
time at the total event rate, pick the event proportionally to its rate,
apply it. A DC flow is one customer served at the aggregate rate of both
carriers (volume balancing completes it on both carriers simultaneously), so
no per-carrier residual bookkeeping is needed.

Per-flow sojourns are recovered from the count process: in a symmetric
(processor-sharing) queue every customer of a class is exchangeable, so the
departing customer is chosen uniformly among those present in its class and
area. Each flow carries the volume sampled at its arrival; throughput
estimates are ratios of summed volume to summed sojourn.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import stdtrit

from .errors import ConfigError, NoDataError
from .model import CellConfig, Policy, TrafficMix, sc_carrier1_share

#: groups with fewer post-warmup completions than this are not estimated
MIN_GROUP_COMPLETIONS = 500

#: population-trend samples used by the instability detector
TREND_SAMPLES = 100

#: t-statistic above which a positive population slope flags instability
TREND_T_CRIT = 3.0

_TRAJ_CAP = 1 << 18
_BLOCK = 8192


@dataclass(frozen=True)
class Stop:
    """Stop after a simulated-time horizon, a completion count, or whichever
    of the two comes first when both are set."""

    horizon: float | None = None
    completions: int | None = None

    def __post_init__(self):
        if self.horizon is None and self.completions is None:
            raise ConfigError("set a horizon, a completion target, or both")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError("horizon must be > 0")
        if self.completions is not None and self.completions < 1:
            raise ConfigError("completion target must be >= 1")


@dataclass(frozen=True)
class Warmup:
    """Completions before max(fraction * end-time, time of the k-th
    completion) are discarded from estimates. The completion-count cut is
    skipped on runs too short to reach it."""

    fraction: float = 0.2
    min_completions: int = 10_000


@dataclass(frozen=True)
class FlowRecord:
    kind: str  # "sc" | "dc"
    area: int
    volume: float
    arrived: float
    completed: float

    @property
    def sojourn(self) -> float:
        return self.completed - self.arrived


@dataclass(frozen=True)
class ClassEstimate:
    """Throughput estimate for one (class, area) group.

    ``gamma_hat`` is sum(volume)/sum(sojourn) over post-warmup completions;
    ``half_width`` comes from batch means at the report's confidence level.
    Groups below the completion minimum are marked insufficient instead.
    """

    gamma_hat: float | None
    half_width: float | None
    completions: int
    insufficient: bool = False


@dataclass(frozen=True)
class TrendStats:
    slope: float
    t_stat: float
    unstable: bool


@dataclass(frozen=True)
class TraceEvent:
    time: float
    label: str  # T1..T6
    area: int
    state_after: tuple[int, ...]


@dataclass(frozen=True)
class SimReport:
    policy: Policy
    seed: int
    stream: int
    ci_level: float
    sim_time: float
    events: int
    total_completions: int
    estimates: dict[tuple[str, int], ClassEstimate]
    occupancy: dict[tuple[str, int], float]  # time-average of n1/n2/m per area
    trend: TrendStats
    trace: tuple[TraceEvent, ...] = ()
    records: tuple[FlowRecord, ...] | None = None

    def estimate(self, kind: str, area: int) -> ClassEstimate:
        return self.estimates[(kind, area)]


class _Draws:
    """Block-buffered RNG draws; consumption order is part of determinism."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._exp = rng.standard_exponential(_BLOCK)
        self._uni = rng.random(_BLOCK)
        self._ei = 0
        self._ui = 0

    def expo(self) -> float:
        if self._ei == _BLOCK:
            self._exp = self._rng.standard_exponential(_BLOCK)
            self._ei = 0
        value = self._exp[self._ei]
        self._ei += 1
        return value

    def unif(self) -> float:
        if self._ui == _BLOCK:
            self._uni = self._rng.random(_BLOCK)
            self._ui = 0
        value = self._uni[self._ui]
        self._ui += 1
        return value


def _ols_trend(times: np.ndarray, values: np.ndarray) -> TrendStats:
    n = len(times)
    if n < 3 or np.ptp(times) == 0:
        return TrendStats(slope=0.0, t_stat=0.0, unstable=False)
    x = times - times.mean()
    sxx = float(x @ x)
    slope = float(x @ values) / sxx
    resid = values - values.mean() - slope * x
    dof = n - 2
    var = float(resid @ resid) / dof
    se = math.sqrt(var / sxx) if var > 0 else 0.0
    t_stat = slope / se if se > 0 else (math.inf if slope > 0 else 0.0)
    return TrendStats(slope=slope, t_stat=t_stat, unstable=slope > 0 and t_stat > TREND_T_CRIT)


def simulate(
    cfg: CellConfig,
    traffic: TrafficMix,
    policy: Policy = Policy.JFQ,
    stop: Stop = Stop(completions=10_000),
    warmup: Warmup = Warmup(),
    seed: int = 0,
    stream: int = 0,
    *,
    n_batches: int = 20,
    ci_level: float = 0.95,
    min_group: int = MIN_GROUP_COMPLETIONS,
    collect_trace: int = 0,
    return_records: bool = False,
) -> SimReport:
    """Sample one trajectory of the occupancy Markov process.

    The result is a deterministic function of all arguments; ``(seed,
    stream)`` select an independent random stream per replication.
    """
    routing = Policy(policy)
    n_areas = cfg.n_areas
    sigma = traffic.sigma
    alpha_j = [traffic.area_rates(cfg, j)[0] for j in range(n_areas)]
    beta_j = [traffic.area_rates(cfg, j)[1] for j in range(n_areas)]
    c1 = [a.c1 for a in cfg.areas]
    c2 = [a.c2 for a in cfg.areas]

    rng = np.random.default_rng((seed, stream))
    draws = _Draws(rng)

    counts = [[0, 0, 0] for _ in range(n_areas)]  # per area: [n1j, n2j, mj]
    n1 = n2 = m = 0
    # per (slot, area): arrival times and sampled volumes of active flows
    reg_t: list[list[list[float]]] = [[[] for _ in range(n_areas)] for _ in range(3)]
    reg_v: list[list[list[float]]] = [[[] for _ in range(n_areas)] for _ in range(3)]

    done_kind = array("b")
    done_area = array("b")
    done_vol = array("d")
    done_arr = array("d")
    done_at = array("d")

    traj_t = array("d", [0.0])
    traj_n = array("d", [0.0])
    thin = 1
    since_thin = 0

    occ = [0.0] * (3 * n_areas)
    trace: list[TraceEvent] = []

    t = 0.0
    events = 0
    completions = 0
    horizon = stop.horizon
    target = stop.completions

    def record_traj():
        nonlocal thin, since_thin
        since_thin += 1
        if since_thin >= thin:
            since_thin = 0
            traj_t.append(t)
            traj_n.append(float(n1 + n2 + m))
            if len(traj_t) >= _TRAJ_CAP:
                del traj_t[1:-1:2]
                del traj_n[1:-1:2]
                thin *= 2

    def snapshot() -> tuple[int, ...]:
        return tuple(v for area in counts for v in area)

    while True:
        if target is not None and completions >= target:
            break
        rates = []
        total_rate = 0.0
        for j in range(n_areas):
            rates.append(alpha_j[j])
            rates.append(beta_j[j])
            total_rate += alpha_j[j] + beta_j[j]
        for j in range(n_areas):
            n1j, n2j, mj = counts[j]
            r1 = n1j * c1[j] / ((n1 + m) * sigma) if n1j else 0.0
            r2 = n2j * c2[j] / ((n2 + m) * sigma) if n2j else 0.0
            r3 = mj * (c1[j] / (n1 + m) + c2[j] / (n2 + m)) / sigma if mj else 0.0
            rates.extend((r1, r2, r3))
            total_rate += r1 + r2 + r3
        if total_rate <= 0.0:
            if horizon is not None and t < horizon:
                for j in range(n_areas):
                    for k in range(3):
                        occ[3 * j + k] += counts[j][k] * (horizon - t)
                t = horizon
            break
        dt = draws.expo() / total_rate
        if horizon is not None and t + dt >= horizon:
            dt = horizon - t
            for j in range(n_areas):
                for k in range(3):
                    occ[3 * j + k] += counts[j][k] * dt
            t = horizon
            break
        for j in range(n_areas):
            for k in range(3):
                occ[3 * j + k] += counts[j][k] * dt
        t += dt
        events += 1

        u = draws.unif() * total_rate
        chosen = 0
        for chosen, r in enumerate(rates):
            if u < r:
                break
            u -= r
        while rates[chosen] <= 0.0:  # guard against roundoff walking past the end
            chosen -= 1
        if chosen < 2 * n_areas:
            j, is_dc = divmod(chosen, 2)
            if is_dc:
                slot = 2
                label = "T3"
            else:
                share = sc_carrier1_share(routing, cfg.areas[j], n1, n2, m)
                # a uniform is drawn on every Bernoulli arrival and on a tie only
                if routing is Policy.BERNOULLI or share == 0.5:
                    slot = 0 if draws.unif() < share else 1
                else:
                    slot = 0 if share else 1
                label = "T1" if slot == 0 else "T2"
            volume = draws.expo() * sigma
            counts[j][slot] += 1
            if slot == 0:
                n1 += 1
            elif slot == 1:
                n2 += 1
            else:
                m += 1
            reg_t[slot][j].append(t)
            reg_v[slot][j].append(volume)
        else:
            k = chosen - 2 * n_areas
            j, slot = divmod(k, 3)
            label = f"T{4 + slot}"
            group_t = reg_t[slot][j]
            group_v = reg_v[slot][j]
            victim = int(draws.unif() * len(group_t))
            arrived = group_t[victim]
            volume = group_v[victim]
            group_t[victim] = group_t[-1]
            group_v[victim] = group_v[-1]
            group_t.pop()
            group_v.pop()
            counts[j][slot] -= 1
            if slot == 0:
                n1 -= 1
            elif slot == 1:
                n2 -= 1
            else:
                m -= 1
            done_kind.append(0 if slot < 2 else 1)
            done_area.append(j)
            done_vol.append(volume)
            done_arr.append(arrived)
            done_at.append(t)
            completions += 1
        record_traj()
        if collect_trace and len(trace) < collect_trace:
            trace.append(TraceEvent(time=t, label=label, area=j, state_after=snapshot()))

    end_time = t
    traj_t.append(end_time)
    traj_n.append(float(n1 + n2 + m))

    # instability: least-squares slope of the population over evenly spaced samples
    times = np.frombuffer(traj_t, dtype=np.float64)
    pops = np.frombuffer(traj_n, dtype=np.float64)
    if end_time > 0:
        grid = np.linspace(0.0, end_time, TREND_SAMPLES)
        pos = np.clip(np.searchsorted(times, grid, side="right") - 1, 0, len(times) - 1)
        trend = _ols_trend(grid, pops[pos])
    else:
        trend = TrendStats(0.0, 0.0, False)

    # warmup cut: the later of the fractional-time rule and the k-th completion
    warmup_time = warmup.fraction * end_time
    if completions > warmup.min_completions:
        warmup_time = max(warmup_time, done_at[warmup.min_completions - 1])

    kinds = np.frombuffer(done_kind, dtype=np.int8)
    areas_arr = np.frombuffer(done_area, dtype=np.int8)
    vols = np.frombuffer(done_vol, dtype=np.float64)
    arrs = np.frombuffer(done_arr, dtype=np.float64)
    dones = np.frombuffer(done_at, dtype=np.float64)
    kept = dones > warmup_time

    estimates: dict[tuple[str, int], ClassEstimate] = {}
    for kind_code, kind in ((0, "sc"), (1, "dc")):
        rate = traffic.alpha if kind == "sc" else traffic.beta
        if rate <= 0:
            continue
        for j in range(n_areas):
            sel = kept & (kinds == kind_code) & (areas_arr == j)
            count = int(sel.sum())
            if count < max(min_group, 2 * n_batches):
                estimates[(kind, j)] = ClassEstimate(
                    gamma_hat=None, half_width=None, completions=count, insufficient=True
                )
                continue
            v = vols[sel]
            s = dones[sel] - arrs[sel]
            gamma = float(v.sum() / s.sum())
            half = _ratio_batch_half_width(v, s, n_batches, ci_level)
            estimates[(kind, j)] = ClassEstimate(
                gamma_hat=gamma, half_width=half, completions=count
            )

    occupancy = {}
    for j in range(n_areas):
        for k, name in enumerate(("n1", "n2", "m")):
            occupancy[(name, j)] = occ[3 * j + k] / end_time if end_time > 0 else 0.0

    records = None
    if return_records:
        records = tuple(
            FlowRecord(
                kind="sc" if kc == 0 else "dc",
                area=int(aj),
                volume=float(v),
                arrived=float(a),
                completed=float(d),
            )
            for kc, aj, v, a, d in zip(kinds, areas_arr, vols, arrs, dones)
        )

    return SimReport(
        policy=routing,
        seed=seed,
        stream=stream,
        ci_level=ci_level,
        sim_time=end_time,
        events=events,
        total_completions=completions,
        estimates=estimates,
        occupancy=occupancy,
        trend=trend,
        trace=tuple(trace),
        records=records,
    )


# ---------------------------------------------------------------------------
# estimators


def flow_throughput_estimate(records: Iterable[FlowRecord]) -> dict[tuple[str, int], float]:
    """Per (class, area) throughput as the ratio of mean volume to mean sojourn.

    The ratio of sums, not the mean of per-flow ratios: {(1 Mbit, 1 s),
    (1 Mbit, 3 s)} estimates 0.5 Mbit/s.
    """
    groups: dict[tuple[str, int], tuple[float, float]] = {}
    for rec in records:
        vol, soj = groups.get((rec.kind, rec.area), (0.0, 0.0))
        groups[(rec.kind, rec.area)] = (vol + rec.volume, soj + rec.sojourn)
    if not groups:
        raise NoDataError("no completed flows to estimate from")
    return {key: vol / soj for key, (vol, soj) in sorted(groups.items())}


def batch_means_ci(
    samples: Iterable[float], n_batches: int, level: float = 0.95
) -> tuple[float, float]:
    """Mean and confidence half-width from non-overlapping equal batches.

    Samples are split in order into ``n_batches`` equal batches (discarding
    the remainder); the half-width is the Student-t quantile times the
    standard error of the batch means.
    """
    data = np.asarray(list(samples), dtype=np.float64)
    if n_batches < 2:
        raise NoDataError("batch means need at least 2 batches")
    if len(data) < 2 * n_batches:
        raise NoDataError(f"need at least {2 * n_batches} samples, got {len(data)}")
    size = len(data) // n_batches
    used = data[: size * n_batches]
    means = used.reshape(n_batches, size).mean(axis=1)
    spread = float(means.std(ddof=1))
    quantile = float(stdtrit(n_batches - 1, 0.5 + level / 2.0))
    return float(used.mean()), quantile * spread / math.sqrt(n_batches)


def _ratio_batch_half_width(
    volumes: np.ndarray, sojourns: np.ndarray, n_batches: int, level: float
) -> float:
    size = len(volumes) // n_batches
    used_v = volumes[: size * n_batches].reshape(n_batches, size)
    used_s = sojourns[: size * n_batches].reshape(n_batches, size)
    ratios = used_v.sum(axis=1) / used_s.sum(axis=1)
    spread = float(ratios.std(ddof=1))
    quantile = float(stdtrit(n_batches - 1, 0.5 + level / 2.0))
    return quantile * spread / math.sqrt(n_batches)
