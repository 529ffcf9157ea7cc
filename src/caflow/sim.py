"""Exact event-driven simulation of the untruncated occupancy process.

Because flow volumes are exponential and every class is served
processor-sharing style, the occupancy counts form a Markov jump process and
can be sampled exactly one transition at a time: draw an exponential holding
time at the total event rate, pick the event proportionally to its rate,
apply it. The departure rates are those of the Markov generator,
:func:`caflow.model.departure_rates`: a DC flow is one customer served at the
aggregate rate of both carriers (volume balancing completes it on both
carriers simultaneously), so no per-carrier residual bookkeeping is needed.

The event loop is resumable: a :class:`Trajectory` is advanced from stop to
stop and reports on everything simulated so far, so a longer run extends a
shorter one instead of repeating it. :func:`simulate` is one trajectory
advanced once.

A stable cell keeps revisiting a few hundred to a few thousand states, so
each trajectory keeps a bounded memo of the states it enters, keyed by the
state's counts packed as the digits of one integer. An entry is the state's
event table: the total rate, one cut point per event, and each event's
action (the flow group it joins or leaves, and the key's change), with an
SC arrival's carrier already routed, or, on a routing tie and under
Bernoulli, left to a uniform drawn at the event. An event is picked by the
direct method: the first event whose running sum of rates exceeds the draw
(a uniform times the total rate). The cuts are those running sums, so
bisection over them and a scan that adds the rates one by one make the same
float additions and pick the same event. The loop keeps no counts per
event: on a memo miss they are read off the key (or stepped from the
previous miss). States past the memo's bound are computed afresh at each
visit and picked by the scan.

Per-flow sojourns are recovered from the count process: in a symmetric
(processor-sharing) queue every customer of a class is exchangeable, so the
departing customer is chosen uniformly among those present in its class and
area. Each flow carries the volume sampled at its arrival; throughput
estimates are ratios of summed volume to summed sojourn.

The instability detector fits a least-squares line to the population at
``TREND_SAMPLES`` evenly spaced times. Each sample is read off the same flow
times after the run (arrivals so far minus completions so far), so it adds
no work to the event loop and stays exact however long the run.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError
from .model import CellConfig, Policy, TrafficMix, departure_rates, sc_carrier1_share

#: groups with fewer post-warmup completions than this are not estimated
MIN_GROUP_COMPLETIONS = 500

#: population-trend samples used by the instability detector
TREND_SAMPLES = 100

#: t-statistic above which a positive population slope flags instability
TREND_T_CRIT = 3.0

#: confidence level of the batch-means half-widths
CI_LEVEL = 0.95

_BLOCK = 8192

# states whose event tables the event loop keeps; later states are recomputed
# and scanned at every visit. Building a table there instead, to be used once,
# costs more than the scan: in an overloaded cell nearly every state is new,
# and with a table built at every visit past the bound, 50,000 completions at
# phi = 0.5 took 0.56 s instead of 0.27 s for one area (1, 2) at rho = 1.2
# and 0.71 s instead of 0.37 s for dc-hsdpa at rho = 1.1 (medians of three
# runs on a 2-core Intel Xeon)
_MEMO_STATES = 1 << 13

# base of the memo key's digits: above 2**32, so a count stays in its own
# digit, and not a power of two, so the int hash (the key modulo 2**61 - 1)
# spreads neighbouring states over the dict's slots; with base 2**32 the
# first 8,192 states of a two-area dc-hsdpa path at theta = 3.6 began their
# dict probes in only 546 of 16,384 slots
_KEY_RADIX = (1 << 32) + 0x9E3779B9


@dataclass(frozen=True)
class Stop:
    """Stop after a simulated-time horizon, a completion count, or whichever
    of the two comes first when both are set."""

    horizon: float | None = None
    completions: int | None = None

    def __post_init__(self):
        if self.horizon is None and self.completions is None:
            raise ConfigError("set a horizon, a completion target, or both")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            # a NaN or infinite horizon is never reached: the run would not end
            raise ConfigError(f"horizon must be finite and > 0, got {self.horizon!r}")
        if self.completions is not None and self.completions < 1:
            raise ConfigError("completion target must be >= 1")


@dataclass(frozen=True)
class Warmup:
    """Completions before max(fraction * end-time, time of the k-th
    completion) are discarded from estimates, with 0 <= fraction < 1 and
    k = ``min_completions`` >= 0. The completion-count cut is skipped when k
    is 0 and on runs too short to reach it."""

    fraction: float = 0.2
    min_completions: int = 10_000

    def __post_init__(self):
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigError(f"warmup fraction must lie in [0, 1), got {self.fraction!r}")
        if self.min_completions < 0:
            raise ConfigError(
                f"warmup completion count must be >= 0, got {self.min_completions!r}"
            )


@dataclass(frozen=True)
class ClassEstimate:
    """Throughput estimate for one (class, area) group.

    ``gamma_hat`` is sum(volume)/sum(sojourn) over post-warmup completions;
    ``half_width`` comes from batch means at confidence level ``CI_LEVEL``.
    Groups below the completion minimum are not estimated: both are None.
    """

    gamma_hat: float | None
    half_width: float | None
    completions: int


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
    sim_time: float
    events: int
    total_completions: int
    estimates: dict[tuple[str, int], ClassEstimate]
    trend: TrendStats
    trace: tuple[TraceEvent, ...] = ()

    def estimate(self, kind: str, area: int) -> ClassEstimate:
        return self.estimates[(kind, area)]


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
    min_group: int = MIN_GROUP_COMPLETIONS,
    collect_trace: int = 0,
) -> SimReport:
    """Sample one trajectory of the occupancy Markov process and report on it.

    This is a :class:`Trajectory` advanced once, to ``stop``. The result is
    a deterministic function of all arguments; ``(seed, stream)`` select an
    independent random stream per replication.
    """
    run = Trajectory(cfg, traffic, policy, seed, stream, collect_trace=collect_trace)
    return run.advance(stop).report(warmup, n_batches=n_batches, min_group=min_group)


class Trajectory:
    """One sample path of the occupancy process, advanced in steps.

    Each :meth:`advance` continues the path from where the previous one
    stopped, so advancing to k completions and then to 2k gives exactly the
    path, and the :meth:`report`, of one :func:`simulate` run to 2k on the
    same ``(seed, stream)``. A horizon stop leaves the next holding time
    undrawn, so a path resumed after one is the same path too. ``sim_time``,
    ``events`` and ``completions`` say how far the path has run.

    Draws come from two blocks of ``_BLOCK`` values, exponentials then
    uniforms, each refilled from the generator only when used up. One
    exponential is taken for each holding time and each arrival's volume;
    one uniform for each event choice, each departure's victim, and each
    Bernoulli arrival or routing tie. Changing this order changes every
    answer.

    A state's event table (total rate, cut points, and each event's action
    with SC routing resolved) is built the first time the path enters it
    and kept in a memo keyed by the state's counts, for at most
    ``_MEMO_STATES`` (8,192) states per trajectory; a state met again picks
    its event by bisection on the cuts, and states past the bound recompute
    their rates and scan them at every visit. The cuts are the scan's
    running sums: at every draw the bisection picks the event the scan
    picks, and a routing tie or Bernoulli arrival takes its uniform at the
    event either way, so the memo changes no draw and no answer.
    """

    def __init__(
        self,
        cfg: CellConfig,
        traffic: TrafficMix,
        policy: Policy = Policy.JFQ,
        seed: int = 0,
        stream: int = 0,
        *,
        collect_trace: int = 0,
    ):
        self.cfg = cfg
        self.traffic = traffic
        self.sim_time = 0.0
        self.events = 0
        self.completions = 0
        # per (slot, area): (arrival time, volume) of each flow in service
        self._in_service: list[list[list[tuple[float, float]]]] = [
            [[] for _ in range(cfg.n_areas)] for _ in range(3)
        ]
        # per completion: kind (0 SC, 1 DC), area, volume, arrival and
        # completion times
        self._done = (array("b"), array("b"), array("d"), array("d"), array("d"))
        self._trace: list[TraceEvent] = []
        self._loop = _event_loop(
            cfg, traffic, Policy(policy), seed, stream, collect_trace,
            self._in_service, self._done, self._trace,
        )
        next(self._loop)

    def advance(self, stop: Stop) -> Trajectory:
        """Continue the path until ``stop``; returns the trajectory itself."""
        if stop.horizon is not None and stop.horizon < self.sim_time:
            raise ConfigError(
                f"horizon {stop.horizon!r} lies before the path's time {self.sim_time!r}"
            )
        self.sim_time, self.events, self.completions = self._loop.send(stop)
        return self

    def report(
        self,
        warmup: Warmup = Warmup(),
        *,
        n_batches: int = 20,
        min_group: int = MIN_GROUP_COMPLETIONS,
    ) -> SimReport:
        """Estimates over the path so far, with batch-means half-widths over
        ``n_batches`` >= 2 batches.

        The numpy views of the completion buffers live only inside this call:
        a view still alive at the next :meth:`advance` would make the
        buffers' growth raise ``BufferError``. The report holds scalars only.
        """
        if n_batches < 2:
            raise ConfigError(f"batch means need n_batches >= 2, got {n_batches!r}")
        end_time, completions = self.sim_time, self.completions
        done_kind, done_area, done_vol, done_arr, done_at = self._done
        arrs = np.frombuffer(done_arr, dtype=np.float64)
        dones = np.frombuffer(done_at, dtype=np.float64)  # ascending

        # instability: least-squares slope of the population at evenly spaced
        # times, each read off the flow times as arrivals minus completions so far
        if end_time > 0:
            grid = np.linspace(0.0, end_time, TREND_SAMPLES)
            in_service = [at for slot in self._in_service for group in slot for at, _ in group]
            arrived = np.sort(np.append(arrs, in_service))
            pops = np.searchsorted(arrived, grid, side="right") - np.searchsorted(
                dones, grid, side="right"
            )
            trend = _ols_trend(grid, pops.astype(np.float64))
        else:
            trend = TrendStats(0.0, 0.0, False)

        # warmup cut: the later of the fractional-time rule and the k-th completion
        warmup_time = warmup.fraction * end_time
        if 0 < warmup.min_completions < completions:
            warmup_time = max(warmup_time, done_at[warmup.min_completions - 1])

        kinds = np.frombuffer(done_kind, dtype=np.int8)
        areas_arr = np.frombuffer(done_area, dtype=np.int8)
        vols = np.frombuffer(done_vol, dtype=np.float64)
        kept = dones > warmup_time

        traffic = self.traffic
        estimates: dict[tuple[str, int], ClassEstimate] = {}
        for kind_code, kind in ((0, "sc"), (1, "dc")):
            rate = traffic.alpha if kind == "sc" else traffic.beta
            if rate <= 0:
                continue
            for j in range(self.cfg.n_areas):
                sel = kept & (kinds == kind_code) & (areas_arr == j)
                count = int(sel.sum())
                if count < max(min_group, 2 * n_batches):
                    estimates[(kind, j)] = ClassEstimate(
                        gamma_hat=None, half_width=None, completions=count
                    )
                    continue
                v = vols[sel]
                s = dones[sel] - arrs[sel]
                gamma = float(v.sum() / s.sum())
                half = _ratio_batch_half_width(v, s, n_batches)
                estimates[(kind, j)] = ClassEstimate(
                    gamma_hat=gamma, half_width=half, completions=count
                )

        return SimReport(
            sim_time=end_time,
            events=self.events,
            total_completions=completions,
            estimates=estimates,
            trend=trend,
            trace=tuple(self._trace),
        )


def _event_loop(cfg, traffic, routing, seed, stream, collect_trace, groups, done, trace):
    """The event loop of a :class:`Trajectory`, as a generator.

    Each ``send(stop)`` runs the path to ``stop`` and yields (end time,
    events, completions); the loop's state stays in the generator's locals
    between sends. Completions go to the ``done`` buffers, the flows in
    service to ``groups``, and up to ``collect_trace`` events to ``trace``.
    """
    n_areas = cfg.n_areas
    areas = cfg.areas
    sigma = float(traffic.sigma)
    # arrival rates never change: alpha_j, beta_j per area, then their total;
    # Python floats keep numpy scalars out of the per-event arithmetic
    rates: list[float] = []
    arrival_total = 0.0
    for j in range(n_areas):
        alpha, beta = map(float, traffic.area_rates(cfg, j))
        rates += (alpha, beta)
        arrival_total += alpha + beta
    n_arrival = len(rates)
    rates += [0.0] * (3 * n_areas)
    # the memo key of a state: its counts as the digits of one integer
    strides = [[_KEY_RADIX ** (3 * j + slot) for slot in range(3)] for j in range(n_areas)]
    # per event, its action (flow group, key change, area, slot), the key
    # change positive for an arrival; the SC arrival of area j (event 2j) has
    # none until routing in a state gives it one
    arrive = [[(groups[slot][j], strides[j][slot], j, slot) for slot in range(3)]
              for j in range(n_areas)]
    fixed_acts = [act for j in range(n_areas) for act in (None, arrive[j][2])]
    fixed_acts += ((groups[slot][j], -strides[j][slot], j, slot)
                   for j in range(n_areas) for slot in range(3))

    def route(j, n1, n2, m):
        # the action of area j's SC arrival in a state with cell totals n1, n2, m
        share = sc_carrier1_share(routing, areas[j], n1, n2, m)
        if routing is Policy.BERNOULLI or share == 0.5:
            return None, share, arrive[j][0], arrive[j][1]  # a uniform picks the carrier
        return arrive[j][0 if share else 1]

    key = 0
    # per area [n1j, n2j, mj], and the cell totals [n1, n2, m], of the state
    # whose key is ``counted``: on a memo miss they are stepped by the last
    # event if they were the state's before it, else decoded from the key
    counts, totals = _key_counts(0, n_areas)
    counted = delta = 0
    memo: dict[int, tuple[float, list[float], list[tuple]]] = {}
    memo_get = memo.get
    room = _MEMO_STATES

    rng = np.random.default_rng((seed, stream))
    exps = rng.standard_exponential(_BLOCK).tolist()
    unis = rng.random(_BLOCK).tolist()
    ei = ui = 0

    done_kind, done_area, done_vol, done_arr, done_at = done

    t = end = 0.0
    events = 0
    completions = 0
    while True:
        stop = yield end, events, completions
        horizon = stop.horizon
        target = stop.completions
        end = None

        while target is None or completions < target:
            entry = memo_get(key)
            if entry is None:
                if counted != key:
                    if counted + delta == key:  # the counts are the state's before this event
                        step = 1 if delta > 0 else -1
                        counts[j][slot] += step
                        totals[slot] += step
                    else:
                        counts, totals = _key_counts(key, n_areas)
                    counted = key
                n1, n2, m = totals
                total_rate = arrival_total
                i = n_arrival
                for (n1j, n2j, mj), area in zip(counts, areas):
                    r1, r2, r3 = departure_rates(area, sigma, n1j, n2j, mj, n1, n2, m)
                    rates[i] = r1
                    rates[i + 1] = r2
                    rates[i + 2] = r3
                    i += 3
                    total_rate += r1 + r2 + r3
                if room:
                    acts = fixed_acts.copy()
                    for area in range(n_areas):
                        acts[2 * area] = route(area, n1, n2, m)
                    cuts = _cuts(rates)
                    memo[key] = (total_rate, cuts, acts)
                    room -= 1
                else:
                    cuts = None
            else:
                total_rate, cuts, acts = entry
            if total_rate > 0.0:
                if ei == _BLOCK:
                    exps, ei = rng.standard_exponential(_BLOCK).tolist(), 0
                dt = exps[ei] / total_rate
            elif horizon is None:
                break
            else:
                dt = math.inf  # no event can occur: the state holds until the horizon
            if horizon is not None and t + dt >= horizon:
                end = horizon  # the holding time stays undrawn: a later stop redraws it
                break
            ei += 1
            t += dt
            events += 1

            if ui == _BLOCK:
                unis, ui = rng.random(_BLOCK).tolist(), 0
            u = unis[ui] * total_rate
            ui += 1
            if cuts is None:  # past the memo's bound: scan, and route an SC arrival now
                chosen = _scan(rates, u)
                act = fixed_acts[chosen] or route(chosen >> 1, n1, n2, m)
            else:
                act = acts[bisect_right(cuts, u)]
            if act[0] is None:  # an SC arrival on a routing tie or under Bernoulli
                _, share, on_1, on_2 = act
                if ui == _BLOCK:
                    unis, ui = rng.random(_BLOCK).tolist(), 0
                act = on_1 if unis[ui] < share else on_2
                ui += 1
            group, delta, j, slot = act
            key += delta
            if delta > 0:
                if ei == _BLOCK:
                    exps, ei = rng.standard_exponential(_BLOCK).tolist(), 0
                group.append((t, exps[ei] * sigma))
                ei += 1
            else:
                if ui == _BLOCK:
                    unis, ui = rng.random(_BLOCK).tolist(), 0
                victim = int(unis[ui] * len(group))
                ui += 1
                arrived, volume = group[victim]
                group[victim] = group[-1]
                group.pop()
                done_arr.append(arrived)
                done_vol.append(volume)
                done_kind.append(0 if slot < 2 else 1)
                done_area.append(j)
                done_at.append(t)
                completions += 1
            if collect_trace and len(trace) < collect_trace:
                label = f"T{slot + 1 if delta > 0 else slot + 4}"
                state = tuple(v for area in _key_counts(key, n_areas)[0] for v in area)
                trace.append(TraceEvent(time=t, label=label, area=j, state_after=state))

        if end is None:
            end = t


def _key_counts(key: int, n_areas: int) -> tuple[list[list[int]], list[int]]:
    # the counts that a memo key holds as digits: per area [n1j, n2j, mj],
    # and the cell totals [n1, n2, m]
    counts = []
    for _ in range(n_areas):
        area = []
        for _ in range(3):
            key, count = divmod(key, _KEY_RADIX)
            area.append(count)
        counts.append(area)
    return counts, [sum(area[slot] for area in counts) for slot in range(3)]


def _scan(rates: list[float], u: float) -> int:
    """The event that the draw ``u`` (a uniform times the total rate) picks:
    the first whose running sum of the rates exceeds ``u``."""
    total = 0.0
    chosen = 0
    for chosen, r in enumerate(rates):
        total += r
        if u < total:
            break
    while rates[chosen] <= 0.0:  # guard against roundoff walking past the end
        chosen -= 1
    return chosen


def _cuts(rates: list[float]) -> list[float]:
    """Cut points at which ``bisect_right(cuts, u)`` equals ``_scan(rates, u)``
    for every u >= 0: the running sums that the scan compares ``u`` with,
    added in the same order, so the two agree float for float. Past the last
    positive rate the scan's guard walks back, so those cuts are inf."""
    last = max((k for k, r in enumerate(rates) if r > 0.0), default=0)
    cuts = list(accumulate(rates[:-1]))
    cuts[last:] = [math.inf] * len(cuts[last:])
    return cuts


def _ratio_batch_half_width(volumes: np.ndarray, sojourns: np.ndarray, n_batches: int) -> float:
    # the ratio estimator over each of n_batches equal batches (in completion
    # order, remainder discarded); Student-t half-width of their mean. scipy
    # is imported here, where it runs, as everywhere in the package
    from scipy.special import stdtrit

    size = len(volumes) // n_batches
    used_v = volumes[: size * n_batches].reshape(n_batches, size)
    used_s = sojourns[: size * n_batches].reshape(n_batches, size)
    ratios = used_v.sum(axis=1) / used_s.sum(axis=1)
    spread = float(ratios.std(ddof=1))
    quantile = float(stdtrit(n_batches - 1, 0.5 + CI_LEVEL / 2.0))
    return quantile * spread / math.sqrt(n_batches)
