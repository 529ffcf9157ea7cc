"""Domain types and closed-form formulas for a two-carrier processor-sharing cell.

The cell is served by two frequency carriers and divided into J areas with
area-dependent peak rates. Single-carrier (SC) flows occupy exactly one
carrier for their whole lifetime; dual-carrier (DC) flows are served by both
carriers at once, with their remaining volume split so that both carriers
finish at the same instant. Each carrier divides its capacity equally over
the users it currently serves (processor sharing), regardless of area.

Conventions used throughout the package:

* capacities in Mbit/s, flow volumes in Mbit, time in seconds,
  arrival rates in flows/s; no implicit unit scaling anywhere;
* area indices are 0-based in code (configuration files use 1-based keys);
* carrier peak rates are kept both as floats (numerics) and as exact
  rationals (routing-tie detection, which is an exact equality test);
* SC routing is one rule, :func:`sc_carrier1_share`, used by the Markov
  generator, the simulator and the validation suite alike;
* service rates are one rule, :func:`departure_rates`, used by the
  generator, the simulator and ``validate``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    ConfigError,
    InfeasibleTargetError,
    UnstableSystemError,
    UnsupportedGeometryError,
)

#: tolerance on exact-by-construction probability identities
PROB_TOL = 1e-12

CapacityLike = Union[str, int, float, Fraction]


def exact_ratio(value: CapacityLike) -> Fraction:
    """Exact rational reading of a capacity value.

    Strings are read as decimals or ``p/q``; floats go through their shortest
    decimal repr, so ``1.3`` means 13/10 and not the 53-bit binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigError(f"capacity must be numeric, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"capacity must be finite, got {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot read capacity {value!r}: {exc}") from None
    raise ConfigError(f"capacity must be str, int, float or Fraction, got {type(value)!r}")


class Policy(str, enum.Enum):
    """Routing discipline applied to arriving SC flows.

    DC flows are always volume-balanced over both carriers; the policy only
    decides which carrier an SC flow joins.
    """

    JFQ = "jfq"          # join the carrier offering the largest post-arrival rate
    JSQ = "jsq"          # join the carrier with fewer customers
    BERNOULLI = "bernoulli"  # state-blind, probability proportional to capacity


def _float_rate(exact: Fraction, given: CapacityLike) -> float:
    """Float of an exact peak rate; one that is not positive, or whose float
    overflows or rounds to 0, is refused."""
    try:
        rate = float(exact)
    except OverflowError:
        rate = math.inf
    if not 0.0 < rate < math.inf:
        raise ConfigError(
            f"carrier peak rates must be strictly positive and finite as floats, got {given!r}"
        )
    return rate


@dataclass(frozen=True)
class AreaSpec:
    """Peak rates and population weight of one area.

    ``c1``/``c2`` accept strings ("1.3", "13/10"), ints, floats or Fractions;
    they are normalized to floats with the exact rational kept alongside, and
    ``ratio_pair`` holds integers (a, b) with a/b == c1/c2 exactly.
    """

    c1: float
    c2: float
    q: float
    c1_exact: Fraction = field(init=False, repr=False)
    c2_exact: Fraction = field(init=False, repr=False)
    ratio_pair: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        e1 = exact_ratio(self.c1)
        e2 = exact_ratio(self.c2)
        c1, c2 = _float_rate(e1, self.c1), _float_rate(e2, self.c2)
        q = float(self.q)
        if not (0.0 <= q <= 1.0) or not math.isfinite(q):
            raise ConfigError(f"area probability must lie in [0, 1], got {q!r}")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c1_exact", e1)
        object.__setattr__(self, "c2_exact", e2)
        ratio = e1 / e2
        object.__setattr__(self, "ratio_pair", (ratio.numerator, ratio.denominator))

    @property
    def c_total(self) -> float:
        return self.c1 + self.c2

    @property
    def c_max(self) -> float:
        return max(self.c1, self.c2)

    @property
    def c_min(self) -> float:
        return min(self.c1, self.c2)


def ring_area_probabilities(radii: Sequence[float]) -> list[float]:
    """Area probabilities for a user uniformly distributed over a disc cell.

    ``radii`` are the outer radii of concentric rings, strictly increasing,
    the last one being the cell radius R. Ring j (with inner radius r_{j-1},
    r_0 = 0) gets probability (r_j^2 - r_{j-1}^2) / R^2.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ConfigError("at least one ring radius is required")
    if not all(map(math.isfinite, radii)):
        raise ConfigError(f"ring radii must be finite, got {radii}")
    if radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError(f"ring radii must be positive and strictly increasing, got {radii}")
    big_r_sq = radii[-1] ** 2
    qs = []
    prev_sq = 0.0
    for r in radii:
        qs.append((r * r - prev_sq) / big_r_sq)
        prev_sq = r * r
    return qs


@dataclass(frozen=True)
class CellConfig:
    """Per-area carrier peak rates and area probabilities q_j.

    The probabilities are all the model needs of the cell's geometry; a
    config file may state them as ring geometry instead, which the parser
    turns into q_j with :func:`ring_area_probabilities`.
    """

    areas: tuple[AreaSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "areas", tuple(self.areas))
        if not self.areas:
            raise ConfigError("a cell needs at least one area")
        total_q = math.fsum(a.q for a in self.areas)
        if abs(total_q - 1.0) > PROB_TOL:
            raise ConfigError(f"area probabilities must sum to 1, got {total_q!r}")

    @classmethod
    def single_area(cls, c1: CapacityLike, c2: CapacityLike) -> "CellConfig":
        return cls(areas=(AreaSpec(c1, c2, 1.0),))

    @property
    def n_areas(self) -> int:
        return len(self.areas)

    @property
    def edge(self) -> int:
        """Index of the outermost (cell-edge) area."""
        return len(self.areas) - 1


def _nudge(x: float, steps: int) -> float:
    target = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        x = math.nextafter(x, target)
    return x


def _exact_split(lam: float, phi: float) -> tuple[float, float]:
    """Split lam into (alpha, beta) with alpha ~ phi*lam and alpha + beta == lam.

    Round-to-nearest can leave phi*lam + (lam - phi*lam) one ulp off lam (a
    half-ulp tie resolved the wrong way), so alpha is allowed to move by a
    couple of ulps until an exactly complementary beta exists. For
    phi >= 0.5 the plain subtraction is already exact (Sterbenz).
    """
    if lam == 0.0:
        return 0.0, 0.0
    alpha0 = phi * lam
    for k in (0, -1, 1, -2, 2):
        alpha = _nudge(alpha0, k)
        if not (0.0 <= alpha <= lam):
            continue
        beta = lam - alpha
        for _ in range(4):
            s = alpha + beta
            if s == lam:
                break
            beta = math.nextafter(beta, -math.inf if s > lam else math.inf)
        if alpha + beta == lam and beta >= 0.0:
            return alpha, beta
    raise ConfigError(f"cannot split lambda={lam!r} exactly at phi={phi!r}")


@dataclass(frozen=True)
class TrafficMix:
    """Poisson flow arrivals split into SC and DC classes.

    ``phi`` is the SC fraction: SC flows arrive at rate ``phi * lambda_total``
    and DC flows at the complement, so the two class rates add up to
    ``lambda_total`` exactly. Flow volumes are exponential with mean ``sigma``.
    """

    lambda_total: float
    phi: float
    sigma: float
    #: SC arrival rate
    alpha: float = field(init=False, repr=False, compare=False)
    #: DC arrival rate; the exact complement of alpha
    beta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lambda_total < 0 or not math.isfinite(self.lambda_total):
            raise ConfigError(f"arrival rate must be >= 0, got {self.lambda_total!r}")
        if not (0.0 <= self.phi <= 1.0):
            raise ConfigError(f"SC fraction must lie in [0, 1], got {self.phi!r}")
        if self.sigma <= 0 or not math.isfinite(self.sigma):
            raise ConfigError(f"mean flow volume must be > 0, got {self.sigma!r}")
        alpha, beta = _exact_split(self.lambda_total, self.phi)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def area_rates(self, cfg: CellConfig, j: int) -> tuple[float, float]:
        """(SC, DC) arrival rates inside area j."""
        q = cfg.areas[j].q
        return self.alpha * q, self.beta * q

    @property
    def intensity(self) -> float:
        """Offered traffic volume per second, lambda_total * sigma (Mbit/s)."""
        return self.lambda_total * self.sigma


# ---------------------------------------------------------------------------
# load, drift, closed-form throughputs


def harmonic_capacity(cfg: CellConfig) -> float:
    """Pooled cell capacity: harmonic mean of per-area totals weighted by q.

    1 / c_bar = sum_j q_j / (c1_j + c2_j).
    """
    inv = math.fsum(a.q / a.c_total for a in cfg.areas)
    return 1.0 / inv


def offered_load(cfg: CellConfig, traffic: TrafficMix) -> float:
    """Offered load rho = lambda*sigma / c_bar, the fsum of q_j lambda sigma / (c1_j + c2_j)."""
    return math.fsum(traffic.intensity * a.q / a.c_total for a in cfg.areas)


def fluid_total_drift(cfg: CellConfig, traffic: TrafficMix) -> float:
    """Net drift of the total backlog volume for a single-area cell (Mbit/s).

    Summing the fluid equations for SC volume on each carrier and the DC
    volume gives lambda*sigma - c1 - c2: negative below the stability
    boundary, zero at it, positive beyond.
    """
    if cfg.n_areas != 1:
        raise UnsupportedGeometryError("the fluid drift argument applies to single-area cells only")
    return traffic.intensity - cfg.areas[0].c_total


def dc_only_throughput(cfg: CellConfig, traffic: TrafficMix, j: int) -> float:
    """Mean DC flow throughput in area j when the traffic is DC-only.

    With only DC flows, volume balancing makes the two carriers behave as one
    pooled server, so area j sees (c1_j + c2_j) * (1 - rho). This is the
    ideal-load-balancing reference the numerical solvers are checked against.
    """
    if traffic.phi != 0:
        raise ConfigError("closed form requires DC-only traffic (phi = 0)")
    rho = offered_load(cfg, traffic)
    if rho >= 1.0:
        raise UnstableSystemError(f"no stationary throughput at rho = {rho!r} >= 1")
    return cfg.areas[j].c_total * (1.0 - rho)


def mixed_mean_throughput(
    gamma_sc_j: float | None, gamma_dc_j: float | None, phi: float
) -> float | None:
    """Class-weighted mean throughput phi * gamma_SC + (1 - phi) * gamma_DC.

    At phi = 1 the mean is gamma_SC and at phi = 0 it is gamma_DC; the class
    absent there may be None. A class with positive weight and no value
    (None) gives None.
    """
    if not (0.0 <= phi <= 1.0):
        raise ConfigError(f"SC fraction must lie in [0, 1], got {phi!r}")
    if any(g is not None and g < 0 for g in (gamma_sc_j, gamma_dc_j)):
        raise ConfigError("throughputs must be non-negative")
    if phi == 1.0:
        return gamma_sc_j
    if phi == 0.0:
        return gamma_dc_j
    if gamma_sc_j is None or gamma_dc_j is None:
        return None
    return phi * gamma_sc_j + (1.0 - phi) * gamma_dc_j


def theta_approximation(cfg: CellConfig, phi: float, target_gamma_edge: float) -> float:
    """Sustainable traffic intensity for a mean-throughput target at the cell edge.

    Treating SC throughput as c_max*(1-rho), DC throughput as (c1+c2)*(1-rho)
    and mixing with weight phi gives

        theta = c_bar * (1 - target / ((1 - phi) * c_min + c_max))

    evaluated in the edge area. A target above the denominator is infeasible.

    The SC term c_max*(1-rho) treats fastest-queue routing as a dedicated
    server of the larger capacity, which is exact only in the limit
    rho -> 0. For carriers (1, 2) it is about 2-3% above the exact SC
    throughput at rho <= 0.2 and increasingly below it from rho ~ 0.3 on
    (about 7% at rho = 0.5, 21% at rho = 0.8), because fastest-queue routing
    pools both carriers as load grows; the exact throughput never exceeds the
    ideal-pooling bound (1 - rho) * (c_max + rho * c_min). Where the SC term
    is below the exact throughput, the theta returned is conservative.
    """
    if not (0.0 <= phi <= 1.0):
        raise ConfigError(f"SC fraction must lie in [0, 1], got {phi!r}")
    if target_gamma_edge < 0:
        raise ConfigError("target throughput must be >= 0")
    edge = cfg.areas[cfg.edge]
    c_bar = harmonic_capacity(cfg)
    cap = (1.0 - phi) * edge.c_min + edge.c_max
    if target_gamma_edge > cap:
        raise InfeasibleTargetError(
            f"target {target_gamma_edge!r} Mbit/s exceeds the zero-load edge limit {cap!r}"
        )
    return c_bar * (1.0 - target_gamma_edge / cap)


# ---------------------------------------------------------------------------
# SC routing


def sc_balance(policy: Policy, area: AreaSpec, n1, n2, m):
    """The two sides that state-aware SC routing compares in a state.

    ``n1``, ``n2`` and ``m`` are the cell totals of SC users on carrier 1, on
    carrier 2 and of DC users, as Python ints or numpy integer arrays.
    Fastest-queue compares the post-arrival per-user rates c1/(n1+m+1) and
    c2/(n2+m+1) as the exact integers lhs = a*(n2+m+1) and rhs = b*(n1+m+1)
    with a/b = c1/c2; shortest-queue compares lhs = n2+m with rhs = n1+m.
    Carrier 1 wins when lhs > rhs. Bernoulli routing is state-blind and has
    no balance: None.
    """
    if policy is Policy.JFQ:
        a, b = area.ratio_pair
        return a * (n2 + m + 1), b * (n1 + m + 1)
    if policy is Policy.JSQ:
        return n2 + m, n1 + m
    if policy is Policy.BERNOULLI:
        return None
    raise ConfigError(f"unknown routing policy {policy!r}")


def sc_carrier1_share(policy: Policy, area: AreaSpec, n1, n2, m):
    """Carrier 1's share of the SC arrivals of ``area`` in a state.

    Arguments are those of :func:`sc_balance` (the share is an array for
    array counts). Under fastest- and shortest-queue routing the side of the
    balance that wins gets share 1 or 0 and an exact tie gives 1/2. Bernoulli
    routing is state-blind and gives c1/(c1+c2).
    """
    balance = sc_balance(policy, area, n1, n2, m)
    if balance is None:
        return area.c1 / (area.c1 + area.c2)
    lhs, rhs = balance
    return (lhs > rhs) + 0.5 * (lhs == rhs)


# ---------------------------------------------------------------------------
# service rates


def departure_rates(area: AreaSpec, sigma: float, n1j, n2j, mj, n1, n2, m):
    """Rates at which ``area``'s SC flows on carrier 1, its SC flows on
    carrier 2 and its DC flows leave a state.

    ``n1j``, ``n2j`` and ``mj`` are the area's counts and ``n1``, ``n2`` and
    ``m`` the cell totals, as in :func:`sc_balance` (the rates are arrays
    for array counts); ``sigma`` is the mean flow volume. Carrier k serves
    its SC users and every DC user, so each gets c_k / (n_k + m) (processor
    sharing), and volume balancing gives a DC flow the sum of both carriers'
    rates. With exponential volumes the departure rate of a group is its
    count times its per-user rate over sigma: n1j c1 / ((n1 + m) sigma),
    n2j c2 / ((n2 + m) sigma) and mj (c1 / (n1 + m) + c2 / (n2 + m)) / sigma.
    A zero count gives 0.0 without dividing by zero: an empty carrier is
    counted as one user, which changes no rate of a flow present.
    """
    k1 = n1 + m
    k2 = n2 + m
    k1 = k1 + (k1 == 0)
    k2 = k2 + (k2 == 0)
    c1, c2 = area.c1, area.c2
    return n1j * c1 / (k1 * sigma), n2j * c2 / (k2 * sigma), mj * (c1 / k1 + c2 / k2) / sigma
