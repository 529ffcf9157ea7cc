"""Truncated Markov-chain evaluation of the two-carrier cell.

The occupancy process lives on the lattice of 3J non-negative counts. This
module enumerates the states inside the truncation, assembles the sparse
transition-rate matrix for a chosen SC routing policy (fastest-queue,
shortest-queue, or capacity-proportional coin flips), solves for the
stationary distribution, and turns mean occupancies into per-class mean flow
throughputs via Little's law.

The stationary law is the solution of one reduced system: pi_0 = 1 is
fixed for the empty state, the other balance equations are solved, and the
balance residual of the normalized vector is then checked against
``SOLVE_TOL``. The lattice's axis count, a property of the problem, picks
how: one or two axes are factored exactly by sparse LU in minimum-degree
order, three or more are solved by GMRES with an incomplete-LU
preconditioner in population-level order, in which every transition moves
one level up or down and the generator is block tridiagonal.

The truncation is the state space itself: a transition whose target is not
one of its states is dropped (loss model), and the pi-weighted rate of the
dropped transitions, per class and relative to its arrival rate, is the
accuracy gauge. The space has two caps. The population cap N bounds the
total; arrivals from a state at N are dropped, whatever their class and
area. Under fastest- and shortest-queue routing the band K also bounds the
carrier imbalance d, the gap between the two sides that the routing rule
compares (Kuntz, Thomas, Stan & Barahona, SIAM Review 2021, on truncation
sets; Tweedie, J. Appl. Probab. 1998, on bounds from the mass that leaves
them). Routing pools the carriers, so pi decays geometrically in d; arrivals
and departures that would cross the band's edge are dropped, and so are the
band states that do not communicate with the empty state. Coin-flip routing
and DC-only traffic have no balance and keep the simplex of totals.
:func:`solve_model` sizes both caps from measured tails within the state
budget: the first N takes the pooled-queue prefactor of blocking(N) ~ p rho^N,
p = 1 - rho (or, for coin-flip routing of SC-only traffic, the tail of two
independent queues), the first K is a module constant, and a cap whose share
of the dropped mass misses half the target steps straight to the cap its
measured tail predicts. In its lattice a class with zero arrival rate has no
axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateSolveError,
    StateSpaceTooLargeError,
    UnstableSystemError,
)
from .model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    mixed_mean_throughput,
    offered_load,
    sc_balance,
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

#: factor of the reduced balance system: exact LU in minimum-degree order on
#: the lexicographic order for lattices of one or two axes, incomplete LU of
#: the population-level order as given for lattices of three or more; the
#: system's diagonal dominance lets both skip pivoting
_LU_MIN_DEGREE = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0}
_ILU_LEVELS = {
    "drop_tol": 3e-2, "fill_factor": 10, "permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
}

#: GMRES stopping rule and restart length on the reduced system
_GMRES_RTOL = 1e-14
_GMRES_RESTART = 50

#: growth steps of max_total after which solve_model stops growing the lattice
_MAX_GROW = 8

#: first band of solve_model under fastest- and shortest-queue routing, and
#: the shells of d over which a band that misses the target measures the
#: decay of pi
_FIRST_BAND = 14
_DECAY_SHELLS = 2

#: int64 headroom for lattice keys and fastest-queue cross-products
_INT64_HEADROOM = 2**62


@dataclass(frozen=True)
class Truncation:
    """Caps defining the finite state lattice.

    ``max_total`` caps the total population. ``band``, when set, also caps
    the carrier imbalance d of fastest- and shortest-queue routing (see
    :func:`enumerate_states`); None leaves the simplex of totals uncut.
    """

    max_total: int
    band: int | None = None

    def __post_init__(self):
        if self.max_total < 1:
            raise ConfigError(f"max_total must be >= 1, got {self.max_total}")
        if self.band is not None and self.band < 1:
            raise ConfigError(f"band must be >= 1, got {self.band}")


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

    The index is bijective: ``index_of(counts[i]) == i``. Each state's key
    reads its counts as the digits of a mixed-radix number, so the keys are
    sorted like the rows. A component's radix is its largest count + 1: on an
    enumerated simplex that is ``max_total + 1``, or 1 on the axis of a class
    without arrivals. Aggregate count vectors are precomputed for generator
    assembly. The rows are the truncation: a state not listed is outside it.
    """

    def __init__(self, counts: np.ndarray, trunc: Truncation):
        self.counts = counts
        self.truncation = trunc
        self.n_areas = counts.shape[1] // 3
        self.n1 = counts[:, 0::3].sum(axis=1, dtype=np.int64)
        self.n2 = counts[:, 1::3].sum(axis=1, dtype=np.int64)
        self.m = counts[:, 2::3].sum(axis=1, dtype=np.int64)
        self.total = self.n1 + self.n2 + self.m
        self._radix = (counts.max(axis=0).astype(np.int64) + 1).tolist()
        strides = [math.prod(self._radix[i + 1 :]) for i in range(len(self._radix))]
        self._strides = np.array(strides, dtype=np.int64)
        self.keys = counts.astype(np.int64) @ self._strides

    def __len__(self) -> int:
        return self.counts.shape[0]

    def index_of(self, state: Sequence[int]) -> int:
        counts = tuple(int(c) for c in state)
        # outside the radix box a key could alias another state's key
        if len(counts) == len(self._radix) and all(
            0 <= c < r for c, r in zip(counts, self._radix)
        ):
            pos = int(np.searchsorted(self.keys, int(np.dot(counts, self._strides))))
            if pos < len(self) and tuple(self.counts[pos].tolist()) == counts:
                return pos
        raise KeyError(f"state {counts} is outside the truncated space")

    def shifted(self, rows: np.ndarray, comp: int, delta: int) -> np.ndarray:
        """Index of each state in ``rows`` with component ``comp`` moved by
        ``delta``, or -1 where that state is outside the space."""
        moved = self.counts[rows, comp] + delta
        keys = self.keys[rows] + delta * self._strides[comp]
        pos = np.searchsorted(self.keys, keys)
        # outside the radix box a key could alias another state's key
        inside = (moved >= 0) & (moved < self._radix[comp]) & (pos < len(self))
        inside[inside] = self.keys[pos[inside]] == keys[inside]
        return np.where(inside, pos, -1)


def _free_axes(cfg: CellConfig, traffic: TrafficMix | None) -> np.ndarray:
    # count components with a lattice axis: those of the classes with arrivals
    sc = traffic is None or traffic.alpha > 0
    dc = traffic is None or traffic.beta > 0
    return np.flatnonzero([sc, sc, dc] * cfg.n_areas)


def _exact_totals(area: AreaSpec, max_total: int, *totals: np.ndarray) -> tuple:
    # exact Python ints where fastest-queue cross-products could pass int64
    if max(area.ratio_pair) * (max_total + 2) >= _INT64_HEADROOM:
        return tuple(x.astype(object) for x in totals)
    return totals


def _imbalance(
    cfg: CellConfig, traffic: TrafficMix | None, policy: Policy, n1, n2, m, max_total: int
) -> np.ndarray | None:
    # carrier imbalance d per state: the largest |lhs - rhs| of the routing
    # balance over the areas whose SC arrivals it routes, in units of
    # max(a, b) under fastest-queue and of flows under shortest-queue; None
    # where routing has no balance (coin flips, or no SC arrivals)
    policy = Policy(policy)
    if policy is Policy.BERNOULLI:
        return None
    routed = {
        area.ratio_pair: area for j, area in enumerate(cfg.areas)
        if traffic is None or traffic.area_rates(cfg, j)[0] > 0
    }
    d = None
    for (a, b), area in routed.items():
        lhs, rhs = sc_balance(policy, area, *_exact_totals(area, max_total, n1, n2, m))
        unit = max(a, b) if policy is Policy.JFQ else 1
        d_area = (np.abs(lhs - rhs) / unit).astype(float)
        d = d_area if d is None else np.maximum(d, d_area)
        if policy is Policy.JSQ:
            break  # the same balance in every area
    return d


def enumerate_states(
    cfg: CellConfig,
    trunc: Truncation,
    max_states: int = DEFAULT_STATE_BUDGET,
    *,
    traffic: TrafficMix | None = None,
    policy: Policy = Policy.JFQ,
) -> StateSpace:
    """All states whose counts sum to at most ``trunc.max_total``, within
    the band ``d <= trunc.band`` when one is set.

    With ``traffic`` given, a class with zero arrival rate has no axis: its
    components stay 0, which leaves the stationary law unchanged. The band
    caps the carrier imbalance that ``policy`` balances (the comparison of
    :func:`caflow.model.sc_balance`): d is the largest |lhs - rhs| over the
    areas whose SC arrivals are routed, counted in units of max(a, b) under
    fastest-queue routing and in flows under shortest-queue routing.
    Bernoulli routing and traffic without SC arrivals have no balance and
    keep the simplex; so does a band that cuts no state, and the returned
    space's truncation then has no band. Raises
    :class:`StateSpaceTooLargeError` (with the largest cap that fits) when the
    simplex count exceeds ``max_states``, and :class:`ConfigError` when the
    lattice keys would reach 2**62 and not fit an int64.
    """
    n_total = trunc.max_total
    free = _free_axes(cfg, traffic)
    expected = _lattice_size(len(free), n_total)
    if expected > max_states:
        fits = _suggest_max_total(len(free), n_total, max_states)
        raise StateSpaceTooLargeError(
            f"{expected} states exceed the budget of {max_states}; "
            f"largest cap that fits is max_total={fits}"
        )
    keys = (n_total + 1) ** len(free)
    if keys >= _INT64_HEADROOM:
        raise ConfigError(
            f"too many areas for the exact lattice index: {cfg.n_areas} areas with "
            f"{len(free)} count axes at max_total={n_total} give {keys} candidate "
            "keys, at or above its 2**62 limit; use 'caflow simulate' for this cell"
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
    if trunc.band is not None:
        d = _imbalance(
            cfg, traffic, policy, counts[:, 0::3].sum(axis=1, dtype=np.int64),
            counts[:, 1::3].sum(axis=1, dtype=np.int64),
            counts[:, 2::3].sum(axis=1, dtype=np.int64), n_total,
        )
        if d is None or d.max(initial=0.0) <= trunc.band:
            trunc = Truncation(n_total)
        else:
            counts = counts[d <= trunc.band]
    return StateSpace(counts, trunc)


# ---------------------------------------------------------------------------
# generator assembly


@dataclass(frozen=True)
class Generator:
    """Sparse transition-rate matrix over a state space.

    Row sums are zero (diagonal holds the negative total outflow) and every
    off-diagonal entry links states that differ by one unit vector.
    ``dropped`` maps "sc"/"dc" to the per-state rate of that class's
    transitions (arrivals and departures) whose target is outside the space;
    a class without an entry drops none.
    """

    Q: sp.csr_matrix
    unif: float
    space: StateSpace
    cfg: CellConfig
    traffic: TrafficMix
    dropped: dict[str, np.ndarray] = field(default_factory=dict)


def build_generator(
    cfg: CellConfig,
    traffic: TrafficMix,
    trunc_or_space: Truncation | StateSpace,
    policy: Policy = Policy.JFQ,
) -> Generator:
    """Assemble the rate matrix for the truncated process under a policy.

    Per area j: SC arrivals at the area rate go to the carrier chosen by the
    policy (split half/half on an exact tie); DC arrivals always increment the
    DC count; SC departures occur at count * per-user-rate / sigma per
    carrier; a DC departure occurs at count * (d1 + d2) / sigma. The space is
    the truncation: a transition whose target is not one of its states is
    dropped, and its rate is recorded per class in ``dropped``. So every
    arrival from a state at the population cap is dropped, and on a band
    also the arrivals and departures that would cross its edge. A
    :class:`Truncation` is enumerated with every class on its own axes, and
    its band, if any, under ``policy``.
    """
    policy = Policy(policy)
    space = (
        trunc_or_space
        if isinstance(trunc_or_space, StateSpace)
        else enumerate_states(cfg, trunc_or_space, policy=policy)
    )
    n = len(space)
    sigma = traffic.sigma
    all_rows: list[np.ndarray] = []
    all_cols: list[np.ndarray] = []
    all_data: list[np.ndarray] = []
    dropped = {"sc": np.zeros(n), "dc": np.zeros(n)}
    idx = np.arange(n, dtype=np.int64)

    def add(cls: str, sel: np.ndarray, comp: int, delta: int, rate: np.ndarray):
        # transitions from the states in sel that move component comp by delta
        rows = idx[sel]
        cols = space.shifted(rows, comp, delta)
        kept = cols >= 0
        if not kept.all():
            dropped[cls] += np.bincount(rows[~kept], weights=rate[~kept], minlength=n)
        if kept.any():
            all_rows.append(rows[kept])
            all_cols.append(cols[kept])
            all_data.append(rate[kept])

    for j in range(space.n_areas):
        i1, i2, i3 = 3 * j, 3 * j + 1, 3 * j + 2
        alpha_j, beta_j = traffic.area_rates(cfg, j)

        if alpha_j > 0:
            totals = _exact_totals(
                cfg.areas[j], space.truncation.max_total, space.n1, space.n2, space.m
            )
            share = np.broadcast_to(sc_carrier1_share(policy, cfg.areas[j], *totals), (n,))
            rate1 = alpha_j * share
            rate2 = alpha_j * (1.0 - share)
            sel1 = rate1 > 0
            add("sc", sel1, i1, +1, rate1[sel1])
            sel2 = rate2 > 0
            add("sc", sel2, i2, +1, rate2[sel2])

        if beta_j > 0:
            add("dc", idx, i3, +1, np.full(n, beta_j))

        c1, c2 = cfg.areas[j].c1, cfg.areas[j].c2
        sel = space.counts[:, i1] > 0
        if sel.any():
            rate = space.counts[sel, i1] * c1 / ((space.n1[sel] + space.m[sel]) * sigma)
            add("sc", sel, i1, -1, rate)
        sel = space.counts[:, i2] > 0
        if sel.any():
            rate = space.counts[sel, i2] * c2 / ((space.n2[sel] + space.m[sel]) * sigma)
            add("sc", sel, i2, -1, rate)
        sel = space.counts[:, i3] > 0
        if sel.any():
            agg = c1 / (space.n1[sel] + space.m[sel]) + c2 / (space.n2[sel] + space.m[sel])
            add("dc", sel, i3, -1, space.counts[sel, i3] * agg / sigma)

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
        Q=q_mat, unif=float(outflow.max(initial=0.0)), space=space, cfg=cfg, traffic=traffic,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# stationary solve


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector over a state space plus solver diagnostics.

    ``residual`` is the balance-equation residual normalized by the
    uniformization constant; ``blocking`` maps "sc"/"dc" to the
    :func:`blocking_mass` of that class. ``method`` names the solve path
    that ran: "lu" on one or two axes, "ilu-gmres" on three or more.
    ``iterations`` is always 0; the benchmark's tracer still reads it.
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


def _ilu_plan(space: StateSpace) -> tuple[np.ndarray | None, dict]:
    # (input order, factor settings) of the reduced solve. On one or two
    # axes minimum degree has near-linear fill (George 1973), so the factor
    # is exact and the input order stays lexicographic (None); on three or
    # more the population-level order feeds an ILU that drops entries, where
    # level orders often beat minimum degree (Benzi, Szyld & van Duin 1999)
    if sum(r > 1 for r in space._radix) <= 2:
        return None, _LU_MIN_DEGREE
    order = np.argsort(space.total, kind="stable")
    if order[0] != 0 or space.total[order[1]] == 0:
        raise AssertionError("the empty state is not alone at population level 0")
    return order, _ILU_LEVELS


def _reduced_system(qt):
    # pi_0 = 1 for the empty state (state 0), which every state reaches, so
    # dropping its balance equation and unknown leaves a non-singular system
    # Q^T[1:, 1:] y = -Q^T[1:, 0] (Stewart 1994, ch. 2 and 5); each column of
    # that system is diagonally dominant, so its factors may skip pivoting
    return qt[1:, 1:], -qt[1:, 0].toarray().ravel()


def _solve_reduced_lu(qt, lu_options):
    a, b = _reduced_system(qt)
    try:
        lu = spla.splu(a, **lu_options)
    except RuntimeError as exc:  # a zero pivot: the factor is singular
        raise ConvergenceError(f"sparse LU failed: {exc}") from exc
    return np.concatenate(([1.0], lu.solve(b)))


def _solve_reduced(qt, unif, ilu_options):
    a, b = _reduced_system(qt)
    try:
        ilu = spla.spilu(a, **ilu_options)
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
    equations, then clips and normalizes. A zero pivot, a GMRES breakdown,
    or a normalized residual ||pi Q||_inf / unif above ``SOLVE_TOL`` raises
    :class:`ConvergenceError` with the cause in its message.

    The lattice's axis count picks the path, named by ``method``. On one or
    two axes ("lu") the reduced system is factored exactly by sparse LU in
    minimum-degree order, whose fill is near linear on such a lattice, and
    solved with that factor alone. On three or more ("ilu-gmres") it is
    solved by GMRES with an incomplete-LU preconditioner in population-level
    order (states sorted by total population, the empty state alone
    first): every transition changes the total by one, so Q^T is block
    tridiagonal in that order, and an ILU that drops entries below 3e-2
    preconditions it well at a fraction of minimum degree's fill. The
    residual is checked on the unpermuted vector against ``gen.Q``.
    """
    n = gen.Q.shape[0]
    unif = gen.unif if gen.unif > 0 else 1.0
    qt = gen.Q.T.tocsc()
    order, options = _ilu_plan(gen.space)
    method = "lu" if order is None else "ilu-gmres"
    if n == 1:
        x = np.ones(1)
    elif order is None:
        x = _solve_reduced_lu(qt, options)
    else:
        x = np.empty(n)
        x[order] = _solve_reduced(qt[order][:, order], unif, options)
    x = np.maximum(x, 0.0)
    total = x.sum()
    if not np.isfinite(total):
        raise ConvergenceError("the reduced solve produced a non-finite vector")
    x = x / total
    residual = float(np.abs(qt @ x).max()) * (1.0 / unif)
    if residual > SOLVE_TOL:
        raise ConvergenceError(
            f"stationary solve failed to reach tol={SOLVE_TOL} (residual {residual:.3e})"
        )
    pi = x / x.sum()
    return StationaryDistribution(
        pi=pi, residual=residual, iterations=0, method=method,
        blocking=blocking_mass(gen, pi), space=gen.space, cfg=gen.cfg, traffic=gen.traffic,
    )


def blocking_mass(gen: Generator, pi: np.ndarray) -> dict[str, float]:
    """Per-class share of the arrival rate that the truncation drops.

    Each class divides the pi-weighted rate of its dropped transitions
    (``gen.dropped``) by its arrival rate. On a simplex only arrivals at the
    population cap are dropped, all of them, so the mass is the stationary
    probability of the cap. A band also drops the arrivals and departures
    that would cross its edge; in equilibrium a class's departures match its
    arrivals, so the ratio stays a share of the class's flows. A class with
    zero arrival rate has mass 0. This is the accuracy gauge of both caps.
    """
    out = {}
    for cls, rate_total in (("sc", gen.traffic.alpha), ("dc", gen.traffic.beta)):
        rates = gen.dropped.get(cls)
        out[cls] = float(pi @ rates) / rate_total if rate_total > 0 and rates is not None else 0.0
    return out


# ---------------------------------------------------------------------------
# throughput extraction


@dataclass(frozen=True)
class AreaThroughput:
    """Little's-law throughputs for one area.

    A class with zero arrival rate is reported as absent (None), not as 0.
    """

    gamma_sc: float | None
    gamma_dc: float | None
    gamma_bar: float | None


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
    band: int | None = None

    @property
    def blocking_max(self) -> float:
        return max(self.blocking_sc, self.blocking_dc)


@dataclass(frozen=True)
class ThroughputReport:
    per_area: tuple[AreaThroughput, ...]
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
        band=dist.space.truncation.band,
    )


def throughputs_from_distribution(
    dist: StationaryDistribution, diagnostics: SolveDiagnostics | None = None
) -> ThroughputReport:
    """Mean flow throughput per class and area from stationary occupancies.

    gamma_SC,j = alpha_j sigma / E[n1j + n2j]; gamma_DC,j = beta_j sigma /
    E[m_j]; the class-weighted mean uses the SC fraction phi.
    """
    cfg, traffic, space = dist.cfg, dist.traffic, dist.space
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
                gamma_bar=mixed_mean_throughput(gamma_sc, gamma_dc, traffic.phi),
            )
        )
    return ThroughputReport(per_area=tuple(areas), diagnostics=diagnostics or _diagnostics(dist))


# ---------------------------------------------------------------------------
# one-call driver with truncation auto-grow


def _steps_to_target(mass: float, decay: float, target_blocking: float) -> int:
    # steps to add to a cap whose dropped mass is ``mass`` for the geometric
    # tail mass * decay^k to fall to target_blocking / 2
    return math.ceil(math.log(2.0 * mass / target_blocking) / -math.log(decay))


def _band_steps(dist: StationaryDistribution, policy: Policy, band_mass: float,
                target_blocking: float) -> int:
    # steps to add to the band for its dropped mass to fall to half the
    # target, from the decay of pi over the outermost shells of d (shell k
    # holds the states with k - 1 < d <= k)
    space, band = dist.space, dist.space.truncation.band
    d = _imbalance(dist.cfg, dist.traffic, policy, space.n1, space.n2, space.m,
                   space.truncation.max_total)
    shells = np.bincount(np.ceil(d).astype(np.int64), weights=dist.pi, minlength=band + 1)
    inner, outer = shells[band - _DECAY_SHELLS - 1], shells[band - 1]
    if not 0.0 < outer < inner:
        return band
    return _steps_to_target(band_mass, (outer / inner) ** (1.0 / _DECAY_SHELLS), target_blocking)


def initial_max_total(
    cfg: CellConfig,
    traffic: TrafficMix,
    policy: Policy = Policy.JFQ,
    target_blocking: float = DEFAULT_TARGET_BLOCKING,
) -> int:
    """Load-based first ``max_total`` of :func:`solve_model`.

    Under near-ideal pooling the total population is that of one
    processor-sharing queue of capacity c1 + c2 (Bonald & Proutiere 2003),
    so the blocking at cap N is close to (1 - rho) rho^N; the first cap is the
    smallest N that brings this to half of ``target_blocking``. Coin-flip
    routing of SC-only traffic instead leaves each carrier a processor-sharing
    queue at load rho, whose summed population has the heavier tail
    (N + 1)(1 - rho)^2 rho^N; there the cap steps up from the pooled one until
    that tail meets the same half-target. The cap is clamped to [10, 4096] and
    not capped by any state budget.
    """
    rho = offered_load(cfg, traffic)
    if rho <= 0.0:
        return 10
    if rho >= 1.0:
        return 64
    n_total = min(max(_steps_to_target(1.0 - rho, rho, target_blocking), 10), 4096)
    if Policy(policy) is Policy.BERNOULLI and traffic.beta == 0:
        half = target_blocking / 2.0
        while n_total < 4096 and (n_total + 1) * (1.0 - rho) ** 2 * rho**n_total > half:
            n_total += 1
    return n_total


def first_lattice_states(cfg: CellConfig, traffic: TrafficMix, policy: Policy = Policy.JFQ) -> int:
    """States in the lattice at :func:`initial_max_total`, before any budget cap."""
    return _lattice_size(len(_free_axes(cfg, traffic)), initial_max_total(cfg, traffic, policy))


def solve_model(
    cfg: CellConfig,
    traffic: TrafficMix,
    policy: Policy = Policy.JFQ,
    *,
    target_blocking: float = DEFAULT_TARGET_BLOCKING,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> tuple[ThroughputReport, StationaryDistribution]:
    """Solve the model end to end, growing the truncation until it is tight.

    The truncation has two caps. The population cap N is at most the largest
    one whose simplex fits ``max_states``, and the first is
    :func:`initial_max_total`. Every solve also asks for the band d <= K of
    :func:`enumerate_states`, starting at K = ``_FIRST_BAND``, and the lattice
    decides whether it cuts: under fastest- and shortest-queue routing of SC
    arrivals nearly all of pi sits near carrier balance, so the band cuts,
    and the lattice then keeps the states that communicate with the empty
    state; Bernoulli routing and traffic without SC arrivals have no balance
    and keep the simplex. K is
    not a setting. The blocking mass b (:func:`blocking_mass`) counts what
    both caps drop: the stationary probability of the cap, and the rest, which
    crosses the band's edge. While b exceeds ``target_blocking`` (at most
    ``_MAX_GROW`` times), each cap whose share exceeds half the target steps
    once to where its measured tail falls to half the target: N from the cap
    share c by the tail c rho^(k - N), K from the band share by the decay of
    pi over the outermost shells of d. A solve at the largest N that fits
    whose band share meets half the target is the last one, and its result
    is flagged unreliable in the diagnostics if blocking is above the
    reliability gate. Raises :class:`UnstableSystemError` at rho >= 1, where
    blocking at any cap is at least 1 - 1/rho, before enumerating anything,
    and :class:`StateSpaceTooLargeError` only when not even cap 1 fits.
    Classes with zero arrival rate get no lattice axis, which leaves the
    stationary law unchanged. Every solve is one :func:`solve_stationary`
    call, held to ``SOLVE_TOL``.
    """
    rho = offered_load(cfg, traffic)
    if rho >= 1.0:
        raise UnstableSystemError(
            f"offered load rho = {rho:.6g} >= 1: the cell has no stationary regime to solve"
        )
    limit = _suggest_max_total(len(_free_axes(cfg, traffic)), max_states, max_states)
    if limit is None:
        raise StateSpaceTooLargeError(f"not even max_total=1 fits {max_states} states")
    n_total = min(initial_max_total(cfg, traffic, policy, target_blocking), limit)
    band = _FIRST_BAND
    half = target_blocking / 2.0
    for grew in range(_MAX_GROW + 1):
        gen = _truncated_generator(cfg, traffic, Truncation(n_total, band), policy, max_states)
        result = solve_stationary(gen)
        blocking = max(result.blocking.values())
        if blocking <= target_blocking:
            break
        cap_mass, band_mass = blocking, 0.0
        if result.space.truncation.band is not None:
            # every arrival at the cap is dropped; the rest leaves the band
            cap_mass = float(result.pi[result.space.total == n_total].sum())
            band_mass = blocking - cap_mass
        next_total, next_band = n_total, band
        if cap_mass > half and n_total < limit:
            next_total = min(n_total + _steps_to_target(cap_mass, rho, target_blocking), limit)
        if band_mass > half:
            next_band = band + _band_steps(result, policy, band_mass, target_blocking)
        if (next_total, next_band) == (n_total, band):
            break
        n_total, band = next_total, next_band
    return throughputs_from_distribution(result, _diagnostics(result, grew)), result


def _truncated_generator(
    cfg: CellConfig, traffic: TrafficMix, trunc: Truncation, policy: Policy, max_states: int
) -> Generator:
    # the generator solve_model solves on the lattice of trunc; a band can cut
    # every path between the empty state and some of its states, so a band
    # keeps only the states that the empty state reaches and that reach it
    # (its communicating class), and the reduced solve stays non-singular
    space = enumerate_states(cfg, trunc, max_states, traffic=traffic, policy=policy)
    gen = build_generator(cfg, traffic, space, policy)
    if space.truncation.band is None:
        return gen
    # imported here: callers that never cut a band (the simulator's capacity
    # queries) skip its import time and memory
    from scipy.sparse import csgraph

    _, label = csgraph.connected_components(gen.Q, directed=True, connection="strong")
    keep = label == label[0]
    if keep.all():
        return gen
    return _cut_class(gen, keep)


def _move_slots(space: StateSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # build_generator's slot of each transition rows -> cols: per area j,
    # arrivals on components 3j, 3j + 1, 3j + 2 in slots 6j..6j + 2, then
    # departures from them in 6j + 3..6j + 5, so slot % 3 == 2 is a DC move.
    # A transition moves one component by one, so its key step names both.
    steps, slots = zip(*sorted(
        (s * int(space._strides[c]), 6 * (c // 3) + (0 if s > 0 else 3) + c % 3)
        for c, r in enumerate(space._radix) if r > 1 for s in (-1, 1)
    ))
    return np.array(slots)[np.searchsorted(steps, space.keys[cols] - space.keys[rows])]


def _cut_class(gen: Generator, keep: np.ndarray) -> Generator:
    # the generator of the states in keep, cut out of gen: a transition into
    # a cut state is dropped like one that leaves the lattice, and a state
    # that loses one has its outflow summed again over the rest in the order
    # build_generator adds them, so Q and unif equal a fresh build on the
    # kept states entry for entry (dropped sums in another order)
    q = gen.Q
    space = StateSpace(gen.space.counts[keep], gen.space.truncation)
    index = np.cumsum(keep) - 1
    rows = np.repeat(np.arange(len(keep)), np.diff(q.indptr))
    lost = keep[rows] & ~keep[q.indices]
    src, rate = rows[lost], q.data[lost]
    dc = _move_slots(gen.space, src, q.indices[lost]) % 3 == 2
    dropped = {
        cls: gen.dropped[cls][keep]
        + np.bincount(index[src[at]], weights=rate[at], minlength=len(space))
        for cls, at in (("sc", ~dc), ("dc", dc))
    }
    sub = q[keep][:, keep]
    # the entries of the rows that lost a transition, row by row: their
    # outflow is summed again in slot order into their diagonal entry
    hit = np.unique(index[src])
    lo, size = sub.indptr[hit], np.diff(sub.indptr)[hit]
    at = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
    row = np.repeat(np.arange(len(hit)), size)
    diag = sub.indices[at] == hit[row]
    row, at_move = row[~diag], at[~diag]
    order = np.lexsort((_move_slots(space, hit[row], sub.indices[at_move]), row))
    outflow = np.bincount(row[order], weights=sub.data[at_move[order]], minlength=len(hit))
    sub.data[at[diag]] = -outflow
    return Generator(
        Q=sub, unif=float((-sub.diagonal()).max(initial=0.0)), space=space, cfg=gen.cfg,
        traffic=gen.traffic, dropped=dropped,
    )
