"""Truncated Markov-chain evaluation of the two-carrier cell.

The occupancy process lives on the lattice of 3J non-negative counts. This
module enumerates the states inside a population cap, assembles the sparse
transition-rate matrix for a chosen SC routing policy (fastest-queue,
shortest-queue, or capacity-proportional coin flips), solves for the
stationary distribution, and turns mean occupancies into per-class mean flow
throughputs via Little's law.

The stationary law has one solve path: pi_0 = 1 is fixed for the empty
state, the other balance equations are solved by GMRES with an
incomplete-LU preconditioner, and the balance residual of the normalized
vector is then checked against ``SOLVE_TOL``.

The truncation is one number, the cap on the total population. Arrivals
from a state at the cap are dropped (loss model), whatever their class and
area; the probability mass of dropped arrivals is reported per class and
doubles as the accuracy gauge for the truncation. :func:`solve_model` sizes
every cap from one prediction, blocking(N) ~ p rho^N: the first cap takes
the pooled-queue prefactor p = 1 - rho, and a cap that misses the target
measures p and steps straight to the cap it predicts. In the lattice that
:func:`solve_model` solves, a class with zero arrival rate has no axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

#: residual tolerance, relative to the uniformization constant
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

#: growth steps of max_total after which solve_model stops growing the lattice
_MAX_GROW = 8

#: int64 headroom for lattice keys and fastest-queue cross-products
_INT64_HEADROOM = 2**62


@dataclass(frozen=True)
class Truncation:
    """Cap on the total population, defining the finite state lattice."""

    max_total: int

    def __post_init__(self):
        if self.max_total < 1:
            raise ConfigError(f"max_total must be >= 1, got {self.max_total}")


def _lattice_size(axes: int, max_total: int) -> int:
    # points of N^axes whose coordinates sum to at most max_total
    return math.comb(max_total + axes, axes)


def _suggest_max_total(axes: int, max_total: int, max_states: int) -> int | None:
    lo, hi = 0, max_total
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _lattice_size(axes, mid) <= max_states:
            lo = mid
        else:
            hi = mid - 1
    return lo or None


class StateSpace:
    """Lexicographically ordered enumeration of the truncated lattice.

    The index is bijective: ``state_at(index_of(s)) == s``. Each state's key
    reads its counts as the digits of a mixed-radix number, so the keys are
    sorted like the rows. A component's radix is its largest count + 1: on an
    enumerated lattice that is ``max_total + 1``, or 1 on the axis of a class
    without arrivals. Aggregate count vectors are precomputed for generator
    assembly.
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
        self._radix = (counts.max(axis=0).astype(np.int64) + 1).tolist()
        strides = [math.prod(self._radix[i + 1 :]) for i in range(len(self._radix))]
        self._strides = np.array(strides, dtype=np.int64)
        self.keys = counts.astype(np.int64) @ self._strides

    def __len__(self) -> int:
        return self.counts.shape[0]

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
    cfg: CellConfig,
    trunc: Truncation,
    max_states: int = DEFAULT_STATE_BUDGET,
    *,
    traffic: TrafficMix | None = None,
) -> StateSpace:
    """All states whose counts sum to at most ``trunc.max_total``.

    With ``traffic`` given, a class with zero arrival rate has no axis: its
    components stay 0, which leaves the stationary law unchanged. Raises
    :class:`StateSpaceTooLargeError` (with the largest cap that fits) when the
    count exceeds ``max_states``, and :class:`ConfigError` when the lattice
    keys would reach 2**62 and not fit an int64.
    """
    n_total = trunc.max_total
    sc = traffic is None or traffic.alpha > 0
    dc = traffic is None or traffic.beta > 0
    free = np.flatnonzero([sc, sc, dc] * cfg.n_areas)
    expected = _lattice_size(len(free), n_total)
    if expected > max_states:
        fits = _suggest_max_total(len(free), n_total, max_states)
        raise StateSpaceTooLargeError(
            f"{expected} states exceed the budget of {max_states}; "
            f"largest cap that fits is max_total={fits}",
            suggested_max_total=fits,
        )
    keys = (n_total + 1) ** len(free)
    if keys >= _INT64_HEADROOM:
        raise ConfigError(
            f"a {cfg.n_areas}-area lattice with max_total={n_total} has {keys} "
            "candidate keys, at or above the 2**62 limit of the state index; "
            "lower max_total"
        )

    # grow the free axes one at a time; rows stay in lexicographic order
    # because appended values are ascending per row
    prefix = np.zeros((1, 0), dtype=np.int32)
    rem = np.array([n_total], dtype=np.int64)
    for _ in free:
        per_row = rem + 1
        rep = np.repeat(np.arange(len(prefix)), per_row)
        starts = np.concatenate(([0], np.cumsum(per_row[:-1])))
        values = np.arange(int(per_row.sum()), dtype=np.int64) - np.repeat(starts, per_row)
        prefix = np.concatenate([prefix[rep], values[:, None].astype(np.int32)], axis=1)
        rem = rem[rep] - values
    counts = np.zeros((len(prefix), 3 * cfg.n_areas), dtype=np.int32)
    counts[:, free] = prefix
    return StateSpace(counts, trunc)


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
    from a state at the population cap are dropped. A :class:`Truncation`
    is enumerated as the full lattice, every class with its own axes.
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
    below_cap = space.total < trunc.max_total
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
            area = cfg.areas[j]
            totals = (space.n1, space.n2, space.m)
            if max(area.ratio_pair) * (trunc.max_total + 2) >= _INT64_HEADROOM:
                # exact Python ints where fastest-queue cross-products could pass int64
                totals = tuple(x.astype(object) for x in totals)
            share = np.broadcast_to(sc_carrier1_share(policy, area, *totals), (n,))
            rate1 = alpha_j * share
            rate2 = alpha_j * (1.0 - share)
            sel1 = below_cap & (rate1 > 0)
            add(idx[sel1], targets(sel1, i1, +1), rate1[sel1])
            sel2 = below_cap & (rate2 > 0)
            add(idx[sel2], targets(sel2, i2, +1), rate2[sel2])

        if beta_j > 0:
            add(idx[below_cap], targets(below_cap, i3, +1),
                np.full(int(below_cap.sum()), beta_j))

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
    ``iterations`` is always 0 and ``method`` always "ilu-gmres"; the
    benchmark's tracer still reads both.
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


def _solve_reduced(qt, unif):
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
        raise ConvergenceError(f"GMRES stopped with info={info} (residual {residual:.3e})")
    return x


def solve_stationary(gen: Generator) -> StationaryDistribution:
    """Stationary distribution of the truncated chain.

    Fixes pi_0 = 1 for the empty state, solves the remaining balance
    equations by GMRES with an incomplete-LU preconditioner, then clips and
    normalizes. A GMRES breakdown, or a normalized residual ||pi Q||_inf /
    unif above ``SOLVE_TOL``, raises :class:`ConvergenceError` with the
    residual in its message.
    """
    n = gen.Q.shape[0]
    unif = gen.unif if gen.unif > 0 else 1.0
    x = np.ones(1) if n == 1 else _solve_reduced(gen.Q.T.tocsc(), unif)
    x = np.maximum(x, 0.0)
    total = x.sum()
    if not np.isfinite(total):
        raise ConvergenceError("the reduced solve produced a non-finite vector")
    x = x / total
    residual = float(np.abs(gen.Q.T.tocsr() @ x).max()) * (1.0 / unif)
    if residual > SOLVE_TOL:
        raise ConvergenceError(
            f"stationary solve failed to reach tol={SOLVE_TOL} (residual {residual:.3e})"
        )
    dist = StationaryDistribution(
        pi=x / x.sum(), residual=residual, iterations=0, method="ilu-gmres",
        blocking={}, space=gen.space, cfg=gen.cfg, traffic=gen.traffic,
    )
    object.__setattr__(dist, "blocking", blocking_mass(dist))
    return dist


def blocking_mass(dist: StationaryDistribution) -> dict[str, float]:
    """Per-class probability that an arrival is dropped at the truncation.

    Every arrival from a state at the population cap is dropped, whatever
    its class and area, so each class sums the stationary probability of
    those states times the share of its arrival rate that the areas carry
    (1 up to rounding). A class with zero arrival rate has mass 0.
    """
    space, cfg = dist.space, dist.cfg
    at_cap = space.total >= space.truncation.max_total
    out = {}
    for cls, rate_total in (("sc", dist.traffic.alpha), ("dc", dist.traffic.beta)):
        if rate_total <= 0:
            out[cls] = 0.0
            continue
        # area rates summed in area order, as fractions of the class rate
        share = sum(area.q * rate_total for area in cfg.areas) / rate_total
        out[cls] = float(dist.pi @ np.where(at_cap, share, 0.0))
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


def _diagnostics(dist: StationaryDistribution, grew: int = 0) -> SolveDiagnostics:
    blocking = dist.blocking
    return SolveDiagnostics(
        states=len(dist.space),
        max_total=dist.space.truncation.max_total,
        blocking_sc=blocking.get("sc", 0.0),
        blocking_dc=blocking.get("dc", 0.0),
        residual=dist.residual,
        method=dist.method,
        reliable=max(blocking.values(), default=0.0) <= RELIABLE_BLOCKING,
        grew=grew,
    )


def throughputs_from_distribution(
    dist: StationaryDistribution, diagnostics: SolveDiagnostics | None = None
) -> ThroughputReport:
    """Mean flow throughput per class and area from stationary occupancies.

    gamma_SC,j = alpha_j sigma / E[n1j + n2j]; gamma_DC,j = beta_j sigma /
    E[m_j]; the class-weighted mean uses the SC fraction phi.
    """
    cfg, traffic, space = dist.cfg, dist.traffic, dist.space
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
    return ThroughputReport(
        per_area=tuple(areas), phi=phi, diagnostics=diagnostics or _diagnostics(dist)
    )


# ---------------------------------------------------------------------------
# one-call driver with truncation auto-grow


def _caps_to_target(blocking: float, rho: float, target_blocking: float) -> int:
    # caps to add to one whose blocking mass is ``blocking`` for the geometric
    # tail blocking * rho^k to fall to target_blocking / 2
    return math.ceil(math.log(2.0 * blocking / target_blocking) / -math.log(rho))


def initial_max_total(
    cfg: CellConfig, traffic: TrafficMix, target_blocking: float = DEFAULT_TARGET_BLOCKING
) -> int:
    """Load-based first ``max_total`` of :func:`solve_model`.

    Under near-ideal pooling the total population is that of one
    processor-sharing queue of capacity c1 + c2 (Bonald & Proutiere 2003),
    so the blocking at cap N is close to (1 - rho) rho^N; the first cap is the
    smallest N that brings this to half of ``target_blocking``, clamped to
    [10, 4096]. It is not capped by any state budget.
    """
    rho = offered_load(cfg, traffic).rho
    if rho <= 0.0:
        return 10
    if rho >= 1.0:
        return 64
    return min(max(_caps_to_target(1.0 - rho, rho, target_blocking), 10), 4096)


def solve_model(
    cfg: CellConfig,
    traffic: TrafficMix,
    policy: Policy = Policy.JFQ,
    trunc: Truncation | None = None,
    *,
    target_blocking: float = DEFAULT_TARGET_BLOCKING,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> tuple[ThroughputReport, StationaryDistribution]:
    """Solve the model end to end, growing the truncation until it is tight.

    Starts from ``trunc`` (or :func:`initial_max_total`, capped at the largest
    ``max_total`` that fits ``max_states``). While any blocking mass b at cap
    N exceeds ``target_blocking`` (at most ``_MAX_GROW`` times), the next cap
    extrapolates the measured tail b rho^(k - N) to half of the target; at
    rho >= 1 it doubles N instead. A next lattice above ``max_states`` is
    replaced by the largest cap that fits, if that is above N, and solved as
    the last step (the result is flagged unreliable in the diagnostics if
    blocking is above the reliability gate). An explicit ``trunc`` whose
    first space exceeds ``max_states`` raises :class:`StateSpaceTooLargeError`.
    Classes with zero arrival rate get no lattice axis, which leaves the
    stationary law unchanged. Every solve is one :func:`solve_stationary`
    call, held to ``SOLVE_TOL``.
    """
    rho = offered_load(cfg, traffic).rho
    n_total = trunc.max_total if trunc else initial_max_total(cfg, traffic, target_blocking)
    result, grew, last = None, -1, False
    while True:
        try:
            space = enumerate_states(cfg, Truncation(n_total), max_states, traffic=traffic)
        except StateSpaceTooLargeError as exc:
            fits = exc.suggested_max_total
            if result is None and (trunc is not None or fits is None):
                raise
            if result is not None and fits <= result.space.truncation.max_total:
                break
            n_total, last = fits, True
            continue
        gen = build_generator(cfg, traffic, space, policy)
        result = solve_stationary(gen)
        grew += 1
        blocking = max(result.blocking.values())
        if last or blocking <= target_blocking or grew >= _MAX_GROW:
            break
        n_total += _caps_to_target(blocking, rho, target_blocking) if rho < 1.0 else n_total
    return throughputs_from_distribution(result, _diagnostics(result, grew)), result
