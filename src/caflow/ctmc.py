"""Truncated Markov-chain evaluation of the two-carrier cell.

The occupancy process lives on the lattice of 3J non-negative counts. This
module enumerates the states inside a population cap, assembles the sparse
transition-rate matrix for a chosen SC routing policy (fastest-queue,
shortest-queue, or capacity-proportional coin flips), solves for the
stationary distribution, and turns mean occupancies into per-class mean flow
throughputs via Little's law.

The stationary law has one solve path: pi_0 = 1 is fixed for the empty
state, the other balance equations are solved by GMRES with an
incomplete-LU preconditioner, and a power-iteration polish then brings the
balance residual under the tolerance.

Arrivals that would leave the truncated lattice are dropped (loss model); the
probability mass of dropped arrivals is reported per class and doubles as the
accuracy gauge for the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSolveError,
    StateSpaceTooLargeError,
)
from .model import (
    CellConfig,
    Policy,
    SystemState,
    TrafficMix,
    mixed_mean_throughput,
    offered_load,
    sc_carrier1_share,
)

#: default cap on enumerated states before a solve refuses to proceed
DEFAULT_STATE_BUDGET = 1_200_000

#: default residual tolerance, relative to the uniformization constant
SOLVE_TOL = 1e-10

#: blocking mass above which a truncated solve is flagged unreliable
RELIABLE_BLOCKING = 1e-6

#: blocking mass the auto-grow loop aims for
DEFAULT_TARGET_BLOCKING = 1e-8

#: incomplete-LU preconditioner of the reduced balance system
_ILU_DROP_TOL = 1e-3
_ILU_FILL_FACTOR = 10
_ILU_PERMC = "MMD_AT_PLUS_A"

#: GMRES stopping rule and restart length on the reduced system
_GMRES_RTOL = 1e-14
_GMRES_RESTART = 50

#: power-polish iteration cap and the chunk after which its residual is checked
_POLISH_MAX_ITERS = 10**6
_POLISH_CHUNK = 64

#: int64 headroom for lattice keys and fastest-queue cross-products
_INT64_HEADROOM = 2**62


@dataclass(frozen=True)
class Truncation:
    """Population caps defining the finite state lattice.

    ``max_total`` bounds the total population; ``area_caps`` (optional)
    bounds each area's population; ``max_sc`` / ``max_dc`` (optional) bound
    the class totals. A class cap of 0 removes the class's states entirely,
    which is exact whenever that class has zero arrival rate.
    """

    max_total: int
    area_caps: tuple[int, ...] | None = None
    max_sc: int | None = None
    max_dc: int | None = None

    def __post_init__(self):
        if self.max_total < 1:
            raise ConfigError(f"max_total must be >= 1, got {self.max_total}")
        if self.area_caps is not None:
            caps = tuple(int(c) for c in self.area_caps)
            object.__setattr__(self, "area_caps", caps)
            if any(c < 0 or c > self.max_total for c in caps):
                raise ConfigError("area caps must lie in [0, max_total]")
        for name in ("max_sc", "max_dc"):
            v = getattr(self, name)
            if v is not None and (v < 0 or v > self.max_total):
                raise ConfigError(f"{name} must lie in [0, max_total], got {v}")

    def effective_area_caps(self, n_areas: int) -> tuple[int, ...]:
        if self.area_caps is None:
            return (self.max_total,) * n_areas
        if len(self.area_caps) != n_areas:
            raise ConfigError("need one area cap per area")
        return self.area_caps

    @property
    def sc_cap(self) -> int:
        return self.max_total if self.max_sc is None else self.max_sc

    @property
    def dc_cap(self) -> int:
        return self.max_total if self.max_dc is None else self.max_dc


def default_truncation(cfg: CellConfig) -> Truncation:
    """Desk-scale default caps: 200 for one area, 60 for two, 40 beyond."""
    n = cfg.n_areas
    return Truncation(max_total=200 if n == 1 else (60 if n == 2 else 40))


def count_states(n_areas: int, trunc: Truncation) -> int:
    """Exact number of lattice states under the truncation (no enumeration).

    Only available without per-area caps; compositions of the SC total over
    2J slots and the DC total over J slots are counted independently.
    """
    if trunc.area_caps is not None:
        raise ConfigError("count_states does not support per-area caps")
    sc_slots, dc_slots = 2 * n_areas, n_areas
    total = 0
    for s in range(min(trunc.max_total, trunc.sc_cap) + 1):
        sc_ways = math.comb(s + sc_slots - 1, sc_slots - 1)
        d_hi = min(trunc.max_total - s, trunc.dc_cap)
        # sum_{d=0}^{d_hi} C(d + J - 1, J - 1) = C(d_hi + J, J)
        total += sc_ways * math.comb(d_hi + dc_slots, dc_slots)
    return total


def _suggest_max_total(n_areas: int, trunc: Truncation, max_states: int) -> int | None:
    lo, hi = 0, trunc.max_total
    while lo < hi:
        mid = (lo + hi + 1) // 2
        probe = replace(trunc, max_total=mid, area_caps=None)
        if count_states(n_areas, probe) <= max_states:
            lo = mid
        else:
            hi = mid - 1
    return lo or None


def _component_radix(n_areas: int, trunc: Truncation) -> list[int]:
    """Per-component radix (cap + 1) of the lattice key, in state order.

    A component's cap is the smallest of max_total, its area cap and its
    class cap, so a pruned class has radix 1. Raises :class:`ConfigError`
    when the key range reaches 2**62 and would not fit an int64.
    """
    area_caps = trunc.effective_area_caps(n_areas)
    radix = []
    for cap in area_caps:
        top = min(trunc.max_total, cap)
        sc = min(top, trunc.sc_cap) + 1
        radix += [sc, sc, min(top, trunc.dc_cap) + 1]
    keys = math.prod(radix)
    if keys >= _INT64_HEADROOM:
        raise ConfigError(
            f"a {n_areas}-area lattice with max_total={trunc.max_total} has {keys} "
            "candidate keys, at or above the 2**62 limit of the state index; "
            "lower max_total or set area or class caps"
        )
    return radix


class StateSpace:
    """Lexicographically ordered enumeration of the truncated lattice.

    The index is bijective: ``state_at(index_of(s)) == s``. Each state's key
    reads its counts as the digits of a mixed-radix number (radix cap + 1
    per component), so the keys are sorted like the rows. Aggregate count
    vectors are precomputed for generator assembly.
    """

    def __init__(self, counts: np.ndarray, trunc: Truncation):
        self.counts = counts
        self.truncation = trunc
        self.n_areas = counts.shape[1] // 3
        self.n1 = counts[:, 0::3].sum(axis=1, dtype=np.int64)
        self.n2 = counts[:, 1::3].sum(axis=1, dtype=np.int64)
        self.m = counts[:, 2::3].sum(axis=1, dtype=np.int64)
        self.total = self.n1 + self.n2 + self.m
        self.sc_total = self.n1 + self.n2
        self._radix = _component_radix(self.n_areas, trunc)
        strides = [math.prod(self._radix[i + 1 :]) for i in range(len(self._radix))]
        self._strides = np.array(strides, dtype=np.int64)
        self.keys = counts.astype(np.int64) @ self._strides

    def __len__(self) -> int:
        return self.counts.shape[0]

    def area_total(self, j: int) -> np.ndarray:
        return self.counts[:, 3 * j : 3 * j + 3].sum(axis=1, dtype=np.int64)

    def state_at(self, i: int) -> SystemState:
        return SystemState(tuple(int(c) for c in self.counts[i]))

    def index_of(self, state: SystemState | Sequence[int]) -> int:
        counts = state.counts if isinstance(state, SystemState) else tuple(int(c) for c in state)
        # outside the radix box a key could alias another state's key
        if len(counts) == len(self._radix) and all(
            0 <= c < r for c, r in zip(counts, self._radix)
        ):
            pos = int(np.searchsorted(self.keys, int(np.dot(counts, self._strides))))
            if pos < len(self) and tuple(self.counts[pos].tolist()) == counts:
                return pos
        raise KeyError(f"state {counts} is outside the truncated space")

    def lookup_keys(self, target_keys: np.ndarray) -> np.ndarray:
        """Indices of states with the given keys; every key must exist."""
        pos = np.searchsorted(self.keys, target_keys)
        if not np.all(self.keys[pos] == target_keys):
            raise AssertionError("generator targeted a state outside the space")
        return pos


def enumerate_states(
    cfg: CellConfig, trunc: Truncation, max_states: int = DEFAULT_STATE_BUDGET
) -> StateSpace:
    """All states with non-negative counts satisfying the truncation caps.

    Raises :class:`StateSpaceTooLargeError` (with a suggested smaller cap)
    when the count exceeds ``max_states``.
    """
    n_areas = cfg.n_areas
    dims = 3 * n_areas
    if trunc.area_caps is None:
        expected = count_states(n_areas, trunc)
        if expected > max_states:
            raise StateSpaceTooLargeError(
                f"{expected} states exceed the budget of {max_states}; "
                f"largest cap that fits is max_total="
                f"{_suggest_max_total(n_areas, trunc, max_states)}",
                suggested_max_total=_suggest_max_total(n_areas, trunc, max_states),
            )
    _component_radix(n_areas, trunc)  # the lattice key must fit before any row is built
    area_caps = trunc.effective_area_caps(n_areas)

    # grow the state array one component at a time; rows stay in
    # lexicographic order because appended values are ascending per row
    prefix = np.zeros((1, 0), dtype=np.int32)
    rem_total = np.array([trunc.max_total], dtype=np.int64)
    rem_sc = np.array([trunc.sc_cap], dtype=np.int64)
    rem_dc = np.array([trunc.dc_cap], dtype=np.int64)
    rem_area = None
    for i in range(dims):
        j, slot = divmod(i, 3)
        if slot == 0:
            rem_area = np.full(len(prefix), area_caps[j], dtype=np.int64)
        cls_rem = rem_dc if slot == 2 else rem_sc
        hi = np.minimum(np.minimum(rem_total, rem_area), cls_rem)
        counts_per_row = hi + 1
        m_new = int(counts_per_row.sum())
        if m_new > max_states:
            raise StateSpaceTooLargeError(
                f"enumeration exceeded the budget of {max_states} states",
                suggested_max_total=_suggest_max_total(n_areas, trunc, max_states)
                if trunc.area_caps is None
                else None,
            )
        rep = np.repeat(np.arange(len(prefix)), counts_per_row)
        starts = np.concatenate(([0], np.cumsum(counts_per_row[:-1])))
        values = np.arange(m_new, dtype=np.int64) - np.repeat(starts, counts_per_row)
        prefix = np.concatenate([prefix[rep], values[:, None].astype(np.int32)], axis=1)
        rem_total = rem_total[rep] - values
        rem_area = rem_area[rep] - values
        if slot == 2:
            rem_dc = rem_dc[rep] - values
            rem_sc = rem_sc[rep]
        else:
            rem_sc = rem_sc[rep] - values
            rem_dc = rem_dc[rep]
    return StateSpace(prefix, trunc)


# ---------------------------------------------------------------------------
# generator assembly


@dataclass(frozen=True)
class Generator:
    """Sparse transition-rate matrix over a state space.

    Row sums are zero (diagonal holds the negative total outflow) and every
    off-diagonal entry links states that differ by one unit vector.
    """

    Q: sp.csr_matrix
    unif: float
    space: StateSpace
    policy: Policy
    cfg: CellConfig
    traffic: TrafficMix


def _arrival_allowed(space: StateSpace, trunc: Truncation, is_sc: bool, j: int) -> np.ndarray:
    ok = space.total < trunc.max_total
    caps = trunc.effective_area_caps(space.n_areas)
    if caps[j] < trunc.max_total:
        ok = ok & (space.area_total(j) < caps[j])
    if is_sc:
        if trunc.sc_cap < trunc.max_total:
            ok = ok & (space.sc_total < trunc.sc_cap)
    else:
        if trunc.dc_cap < trunc.max_total:
            ok = ok & (space.m < trunc.dc_cap)
    return ok


def build_generator(
    cfg: CellConfig,
    traffic: TrafficMix,
    trunc_or_space: Truncation | StateSpace,
    policy: Policy = Policy.JFQ,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> Generator:
    """Assemble the rate matrix for the truncated process under a policy.

    Per area j: SC arrivals at the area rate go to the carrier chosen by the
    policy (split half/half on an exact tie); DC arrivals always increment the
    DC count; SC departures occur at count * per-user-rate / sigma per
    carrier; a DC departure occurs at count * (d1 + d2) / sigma. Arrivals
    that would leave the lattice are dropped.
    """
    policy = Policy(policy)
    space = (
        trunc_or_space
        if isinstance(trunc_or_space, StateSpace)
        else enumerate_states(cfg, trunc_or_space, max_states)
    )
    trunc = space.truncation
    n = len(space)
    sigma = traffic.sigma
    all_rows: list[np.ndarray] = []
    all_cols: list[np.ndarray] = []
    all_data: list[np.ndarray] = []
    idx = np.arange(n, dtype=np.int64)

    def add(rows, cols, data):
        if len(rows):
            all_rows.append(rows)
            all_cols.append(cols)
            all_data.append(data)

    def targets(sel: np.ndarray, comp: int, delta: int) -> np.ndarray:
        return space.lookup_keys(space.keys[sel] + delta * space._strides[comp])

    for j in range(space.n_areas):
        i1, i2, i3 = 3 * j, 3 * j + 1, 3 * j + 2
        alpha_j, beta_j = traffic.area_rates(cfg, j)

        if alpha_j > 0:
            ok_sc = _arrival_allowed(space, trunc, True, j)
            area = cfg.areas[j]
            totals = (space.n1, space.n2, space.m)
            if max(area.ratio_pair) * (trunc.max_total + 2) >= _INT64_HEADROOM:
                # exact Python ints where fastest-queue cross-products could pass int64
                totals = tuple(x.astype(object) for x in totals)
            share = np.broadcast_to(sc_carrier1_share(policy, area, *totals), (n,))
            rate1 = alpha_j * share
            rate2 = alpha_j * (1.0 - share)
            sel1 = ok_sc & (rate1 > 0)
            add(idx[sel1], targets(sel1, i1, +1), rate1[sel1])
            sel2 = ok_sc & (rate2 > 0)
            add(idx[sel2], targets(sel2, i2, +1), rate2[sel2])

        if beta_j > 0:
            sel = _arrival_allowed(space, trunc, False, j)
            add(idx[sel], targets(sel, i3, +1), np.full(int(sel.sum()), beta_j))

        c1, c2 = cfg.areas[j].c1, cfg.areas[j].c2
        sel = space.counts[:, i1] > 0
        if sel.any():
            rate = space.counts[sel, i1] * c1 / ((space.n1[sel] + space.m[sel]) * sigma)
            add(idx[sel], targets(sel, i1, -1), rate)
        sel = space.counts[:, i2] > 0
        if sel.any():
            rate = space.counts[sel, i2] * c2 / ((space.n2[sel] + space.m[sel]) * sigma)
            add(idx[sel], targets(sel, i2, -1), rate)
        sel = space.counts[:, i3] > 0
        if sel.any():
            agg = c1 / (space.n1[sel] + space.m[sel]) + c2 / (space.n2[sel] + space.m[sel])
            add(idx[sel], targets(sel, i3, -1), space.counts[sel, i3] * agg / sigma)

    if all_rows:
        rows = np.concatenate(all_rows)
        cols = np.concatenate(all_cols)
        data = np.concatenate(all_data)
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        data = np.zeros(0)
    outflow = np.bincount(rows, weights=data, minlength=n)
    rows = np.concatenate([rows, idx])
    cols = np.concatenate([cols, idx])
    data = np.concatenate([data, -outflow])
    q_mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return Generator(
        Q=q_mat, unif=float(outflow.max(initial=0.0)), space=space, policy=policy,
        cfg=cfg, traffic=traffic,
    )


# ---------------------------------------------------------------------------
# stationary solve


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector over a state space plus solver diagnostics.

    ``residual`` is the balance-equation residual normalized by the
    uniformization constant; ``blocking`` maps "sc"/"dc" to the stationary
    probability that an arrival of that class is dropped at the boundary.
    """

    pi: np.ndarray
    residual: float
    iterations: int
    method: str
    blocking: dict[str, float]
    space: StateSpace
    cfg: CellConfig
    traffic: TrafficMix

    def expectation(self, values: np.ndarray) -> float:
        return float(self.pi @ values)


def _power_polish(qt, unif, x, tol, trace):
    # stops at tol, at the iteration cap, or after a chunk that fails to
    # lower the residual (the iteration has stalled)
    iters = 0
    inv_unif = 1.0 / unif
    residual = float(np.abs(qt @ x).max()) * inv_unif
    trace.append(residual)
    while residual > tol and iters < _POLISH_MAX_ITERS:
        for _ in range(_POLISH_CHUNK):
            x = x + (qt @ x) * inv_unif
        iters += _POLISH_CHUNK
        x = np.maximum(x, 0.0)
        x /= x.sum()
        residual = float(np.abs(qt @ x).max()) * inv_unif
        trace.append(residual)
        if residual >= trace[-2]:
            break
    return x, residual, iters


def _solve_reduced(qt, unif, trace):
    # pi_0 = 1 for the empty state (state 0), which every state reaches, so
    # dropping its balance equation and unknown leaves a non-singular system
    # Q^T[1:, 1:] y = -Q^T[1:, 0] (Stewart 1994, ch. 2 and 5)
    a = qt[1:, 1:]
    b = -qt[1:, 0].toarray().ravel()
    try:
        ilu = spla.spilu(
            a, drop_tol=_ILU_DROP_TOL, fill_factor=_ILU_FILL_FACTOR, permc_spec=_ILU_PERMC
        )
    except RuntimeError as exc:  # zero pivot in the incomplete factors
        raise ConvergenceError(f"ILU preconditioner failed: {exc}") from exc
    y, info = spla.gmres(
        a, b, rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
        M=spla.LinearOperator(a.shape, ilu.solve),
    )
    x = np.concatenate(([1.0], y))
    if info != 0:
        residual = float(np.abs(qt @ x).max()) / (unif * x.sum())
        trace.append(residual)
        raise ConvergenceError(
            f"GMRES stopped with info={info} (residual {residual:.3e})",
            residual_trace=trace,
        )
    return x


def solve_stationary(gen: Generator, tol: float = SOLVE_TOL) -> StationaryDistribution:
    """Stationary distribution of the truncated chain.

    Fixes pi_0 = 1 for the empty state, solves the remaining balance
    equations by GMRES with an incomplete-LU preconditioner, clips and
    normalizes, then power-polishes until the normalized residual
    ||pi Q||_inf / unif is at or below ``tol``. A GMRES breakdown, or a polish
    that stalls (a chunk of 64 iterations fails to lower the residual) or
    runs out of iterations first, raises :class:`ConvergenceError` carrying
    the residual trace.
    """
    n = gen.Q.shape[0]
    qt = gen.Q.T.tocsr()
    unif = gen.unif if gen.unif > 0 else 1.0
    trace: list[float] = []
    x = np.ones(1) if n == 1 else _solve_reduced(gen.Q.T.tocsc(), unif, trace)
    x = np.maximum(x, 0.0)
    total = x.sum()
    if not np.isfinite(total):
        raise ConvergenceError("the reduced solve produced a non-finite vector",
                               residual_trace=trace)
    x, residual, iters = _power_polish(qt, unif, x / total, tol, trace)
    if residual > tol:
        raise ConvergenceError(
            f"stationary solve failed to reach tol={tol} (residual {residual:.3e})",
            residual_trace=trace,
        )
    dist = StationaryDistribution(
        pi=x / x.sum(), residual=residual, iterations=iters, method="ilu-gmres",
        blocking={}, space=gen.space, cfg=gen.cfg, traffic=gen.traffic,
    )
    object.__setattr__(dist, "blocking", blocking_mass(dist))
    return dist


def blocking_mass(
    dist: StationaryDistribution, trunc: Truncation | None = None
) -> dict[str, float]:
    """Per-class probability that an arrival is dropped at the truncation.

    For each class, sums over states the stationary probability times the
    fraction of that class's arrival rate whose target lies outside the
    lattice. A class with zero arrival rate has mass 0.
    """
    space = dist.space
    trunc = trunc or space.truncation
    cfg, traffic = dist.cfg, dist.traffic
    out = {}
    for cls, is_sc, rate_total in (
        ("sc", True, traffic.alpha),
        ("dc", False, traffic.beta),
    ):
        if rate_total <= 0:
            out[cls] = 0.0
            continue
        frac = np.zeros(len(space))
        for j in range(space.n_areas):
            rate_j = cfg.areas[j].q * rate_total
            if rate_j <= 0:
                continue
            blocked = ~_arrival_allowed(space, trunc, is_sc, j)
            frac[blocked] += rate_j
        out[cls] = float(dist.pi @ (frac / rate_total))
    return out


# ---------------------------------------------------------------------------
# throughput extraction


@dataclass(frozen=True)
class AreaThroughput:
    """Little's-law throughputs and mean occupancies for one area.

    A class with zero arrival rate is reported as absent (None), not as 0.
    """

    gamma_sc: float | None
    gamma_dc: float | None
    gamma_bar: float | None
    mean_sc: float
    mean_dc: float


@dataclass(frozen=True)
class SolveDiagnostics:
    states: int
    max_total: int
    blocking_sc: float
    blocking_dc: float
    residual: float
    iterations: int
    method: str
    reliable: bool
    grew: int = 0

    @property
    def blocking_max(self) -> float:
        return max(self.blocking_sc, self.blocking_dc)


@dataclass(frozen=True)
class ThroughputReport:
    per_area: tuple[AreaThroughput, ...]
    phi: float
    diagnostics: SolveDiagnostics

    def gamma_sc(self, j: int) -> float | None:
        return self.per_area[j].gamma_sc

    def gamma_dc(self, j: int) -> float | None:
        return self.per_area[j].gamma_dc

    def gamma_bar(self, j: int) -> float | None:
        return self.per_area[j].gamma_bar


def throughputs_from_distribution(
    dist: StationaryDistribution,
    cfg: CellConfig | None = None,
    traffic: TrafficMix | None = None,
    diagnostics: SolveDiagnostics | None = None,
) -> ThroughputReport:
    """Mean flow throughput per class and area from stationary occupancies.

    gamma_SC,j = alpha_j sigma / E[n1j + n2j]; gamma_DC,j = beta_j sigma /
    E[m_j]; the class-weighted mean uses the SC fraction phi.
    """
    cfg = cfg or dist.cfg
    traffic = traffic or dist.traffic
    space = dist.space
    phi = traffic.phi
    areas = []
    for j in range(space.n_areas):
        i1, i2, i3 = 3 * j, 3 * j + 1, 3 * j + 2
        mean_sc = dist.expectation(space.counts[:, i1] + space.counts[:, i2])
        mean_dc = dist.expectation(space.counts[:, i3])
        alpha_j, beta_j = traffic.area_rates(cfg, j)
        gamma_sc = gamma_dc = None
        if alpha_j > 0:
            if mean_sc <= 0:
                raise DegenerateSolveError(
                    f"area {j}: SC arrivals are positive but E[occupancy] = 0"
                )
            gamma_sc = alpha_j * traffic.sigma / mean_sc
        if beta_j > 0:
            if mean_dc <= 0:
                raise DegenerateSolveError(
                    f"area {j}: DC arrivals are positive but E[occupancy] = 0"
                )
            gamma_dc = beta_j * traffic.sigma / mean_dc
        areas.append(
            AreaThroughput(
                gamma_sc=gamma_sc, gamma_dc=gamma_dc,
                gamma_bar=mixed_mean_throughput(gamma_sc, gamma_dc, phi),
                mean_sc=mean_sc, mean_dc=mean_dc,
            )
        )
    if diagnostics is None:
        diagnostics = SolveDiagnostics(
            states=len(space),
            max_total=space.truncation.max_total,
            blocking_sc=dist.blocking.get("sc", 0.0),
            blocking_dc=dist.blocking.get("dc", 0.0),
            residual=dist.residual,
            iterations=dist.iterations,
            method=dist.method,
            reliable=max(dist.blocking.values(), default=0.0) <= RELIABLE_BLOCKING,
        )
    return ThroughputReport(per_area=tuple(areas), phi=phi, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# one-call driver with truncation auto-grow


def initial_max_total(
    cfg: CellConfig, traffic: TrafficMix, target_blocking: float = DEFAULT_TARGET_BLOCKING
) -> int:
    """Load-based first ``max_total`` of :func:`solve_model`.

    Chosen so that the geometric tail rho^N of the total population stays
    near ``target_blocking``; not capped by any state budget.
    """
    rho = offered_load(cfg, traffic).rho
    if rho <= 0.0:
        return 10
    if rho >= 1.0:
        return 64
    guess = math.log(target_blocking * max(1.0 - rho, 1e-6) / 4.0) / math.log(rho)
    return int(min(max(guess, 10), 4096))


def solve_model(
    cfg: CellConfig,
    traffic: TrafficMix,
    policy: Policy = Policy.JFQ,
    trunc: Truncation | None = None,
    *,
    target_blocking: float = DEFAULT_TARGET_BLOCKING,
    tol: float = SOLVE_TOL,
    max_states: int = DEFAULT_STATE_BUDGET,
    max_grow: int = 8,
) -> tuple[ThroughputReport, StationaryDistribution]:
    """Solve the model end to end, growing the truncation until it is tight.

    Starts from ``trunc`` (or a load-based heuristic, capped at the largest
    ``max_total`` that fits ``max_states``), doubles ``max_total`` while any
    blocking mass exceeds ``target_blocking``, and stops early when a doubled
    space would exceed ``max_states`` (the result is then flagged unreliable
    in the diagnostics if blocking is above the reliability gate). An
    explicit ``trunc`` whose first space exceeds ``max_states`` raises
    :class:`StateSpaceTooLargeError`.
    Classes with zero arrival rate are pruned from the lattice, which leaves
    the stationary law unchanged.
    """
    max_sc = 0 if traffic.alpha == 0 else (trunc.max_sc if trunc else None)
    max_dc = 0 if traffic.beta == 0 else (trunc.max_dc if trunc else None)
    area_caps = trunc.area_caps if trunc else None
    n_total = trunc.max_total if trunc else initial_max_total(cfg, traffic, target_blocking)

    grew = 0
    result = None
    while True:
        attempt = Truncation(
            max_total=n_total, area_caps=area_caps, max_sc=max_sc, max_dc=max_dc
        )
        try:
            space = enumerate_states(cfg, attempt, max_states)
        except StateSpaceTooLargeError as exc:
            if result is not None:
                break
            fits = exc.suggested_max_total
            if trunc is not None or fits is None or fits >= n_total:
                raise
            n_total = fits
            continue
        gen = build_generator(cfg, traffic, space, policy)
        dist = solve_stationary(gen, tol=tol)
        result = dist
        if max(dist.blocking.values(), default=0.0) <= target_blocking or grew >= max_grow:
            break
        n_total *= 2
        grew += 1

    blocking = result.blocking
    diagnostics = SolveDiagnostics(
        states=len(result.space),
        max_total=result.space.truncation.max_total,
        blocking_sc=blocking.get("sc", 0.0),
        blocking_dc=blocking.get("dc", 0.0),
        residual=result.residual,
        iterations=result.iterations,
        method=result.method,
        reliable=max(blocking.values(), default=0.0) <= RELIABLE_BLOCKING,
        grew=grew,
    )
    report = throughputs_from_distribution(result, cfg, traffic, diagnostics)
    return report, result


# ---------------------------------------------------------------------------
# debugging dumps (schema documented in the cli module)


def dump_distribution_csv(dist: StationaryDistribution, path) -> None:
    space = dist.space
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        comps = [f"{name}_{j + 1}" for j in range(space.n_areas) for name in ("n1", "n2", "m")]
        fh.write(",".join(comps + ["probability"]) + "\n")
        for row, p in zip(space.counts, dist.pi):
            fh.write(",".join(str(int(c)) for c in row) + f",{float(p)!r}\n")


def dump_generator_csv(gen: Generator, path) -> None:
    space = gen.space
    coo = gen.Q.tocoo()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        comps = [f"{name}_{j + 1}" for j in range(space.n_areas) for name in ("n1", "n2", "m")]
        header = [f"from_{c}" for c in comps] + [f"to_{c}" for c in comps] + ["rate"]
        fh.write(",".join(header) + "\n")
        order = np.lexsort((coo.col, coo.row))
        for k in order:
            src = space.counts[coo.row[k]]
            dst = space.counts[coo.col[k]]
            cells = [str(int(c)) for c in src] + [str(int(c)) for c in dst]
            fh.write(",".join(cells) + f",{float(coo.data[k])!r}\n")
