"""Command-line front end: config files, experiment runners, CSV datasets.

Config files are flat ``key = value`` text (``#`` comments allowed)::

    areas.1.c1 = 10        # carrier-1 peak rate of area 1 (Mbit/s)
    areas.1.c2 = 14
    areas.1.q  = 0.5       # or derive all q from geometry.radii = r1, r2, ...
    traffic.lambda = 2.0   # flow arrivals per second
    traffic.phi    = 0.5   # SC fraction
    traffic.sigma  = 1.0   # mean flow volume (Mbit)
    policy = jfq           # jfq | jsq | bernoulli
    seed = 0

Capacities may be decimal strings or ``p/q`` rationals and are kept exact.
Unknown, duplicate, or malformed keys are rejected with line numbers.

All CSV output uses 6 significant digits, ``.`` decimals, LF endings, UTF-8,
and carries ``# key=value`` header lines naming the configuration, policy,
evaluator, truncation, and seed, so every dataset is regenerable from its own
file. Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import spsolve

from . import capacity as capacity_mod
from .capacity import EXACT_MAX_STATES
from .ctmc import (
    DEFAULT_STATE_BUDGET,
    Truncation,
    build_generator,
    enumerate_states,
    solve_model,
    solve_stationary,
    throughputs_from_distribution,
)
from .errors import (
    CaflowError,
    ConfigError,
    InfeasibleTargetError,
    UnstableSystemError,
)
from .model import (
    AreaSpec,
    CellConfig,
    Policy,
    SystemState,
    TrafficMix,
    dc_aggregate_rate,
    harmonic_capacity,
    mixed_mean_throughput,
    offered_load,
    ring_area_probabilities,
    sc_carrier1_share,
    vb_split,
)
from .sim import CI_LEVEL, Stop, Warmup, simulate

WORKERS_ENV = "CAFLOW_WORKERS"

SIM_FALLBACK_COMPLETIONS = 120_000

FIG_RHO_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
FIG3_PHIS = (0.0, 0.5, 1.0)
FIG5_PHIS = (0.0, 0.1, 0.5, 1.0)
FIG6_LOADS = (0.2, 0.5, 0.8)
FIG6_PHIS = tuple(round(0.1 * k, 1) for k in range(11))


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class RunSpec:
    cfg: CellConfig
    traffic: TrafficMix
    policy: Policy = Policy.JFQ
    seed: int = 0


@dataclass(frozen=True)
class SweepGrid:
    """Load and mix axes of a sweep; points run in row-major (rho, phi) order."""

    rhos: tuple[float, ...]
    phis: tuple[float, ...]

    def __post_init__(self):
        if not self.rhos or not self.phis:
            raise ConfigError("sweep grids must be non-empty")
        if any(not (0.0 < r < 1.0) for r in self.rhos):
            raise ConfigError("sweep loads must lie strictly inside (0, 1)")
        if any(not (0.0 <= p <= 1.0) for p in self.phis):
            raise ConfigError("sweep SC fractions must lie in [0, 1]")

    def points(self):
        for rho in self.rhos:
            for phi in self.phis:
                yield rho, phi


_AREA_KEY = re.compile(r"^areas\.(\d+)\.(c1|c2|q)$")


# each config-value parser returns the value or raises ValueError with the
# text of the problem
def _number(lo=None, hi=None, positive=False):
    def parse(value):
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"not a number: {value!r}") from None
        if not math.isfinite(number):
            raise ValueError(f"must be finite, got {value}")
        if lo is not None and number < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        if hi is not None and number > hi:
            raise ValueError(f"must be <= {hi}, got {value}")
        if positive and number <= 0:
            raise ValueError(f"must be > 0, got {number}")
        return number

    return parse


def _policy(value):
    try:
        return Policy(value.lower())
    except ValueError:
        raise ValueError(f"must be one of jfq, jsq, bernoulli, got {value!r}") from None


def _integer(lo, what):
    def parse(value):
        try:
            number = int(value)
        except ValueError:
            number = lo - 1
        if number < lo:
            raise ValueError(f"must be a {what} integer, got {value!r}")
        return number

    return parse


_REQUIRED = object()
_probability = _number(lo=0.0, hi=1.0)

#: scalar keys in the order their problems are reported: (parser, default)
_SCALARS = {
    "traffic.lambda": (_number(lo=0.0), _REQUIRED),
    "traffic.phi": (_probability, _REQUIRED),
    "traffic.sigma": (_number(positive=True), _REQUIRED),
    "policy": (_policy, Policy.JFQ),
    "seed": (_integer(0, "non-negative"), 0),
}


def parse_config_text(text: str, source: str = "<config>") -> RunSpec:
    entries: dict[str | tuple[int, str], tuple[int, str]] = {}
    problems: list[tuple[int | None, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append((lineno, f"expected 'key = value', got {raw.strip()!r}"))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        area_key = _AREA_KEY.match(key)
        if not (area_key or key in _SCALARS or key == "geometry.radii"):
            problems.append((lineno, f"unknown key {key!r}"))
            continue
        # an area key is its parsed (index, field): areas.01.c1 is areas.1.c1
        slot = (int(area_key.group(1)), area_key.group(2)) if area_key else key
        if slot in entries:
            problems.append((lineno, f"duplicate key {key!r} (first set on line {entries[slot][0]})"))
            continue
        entries[slot] = (lineno, value)

    def parse(key, item, parser):
        try:
            return parser(item[1])
        except ValueError as exc:
            problems.append((item[0], f"{key}: {exc}"))
            return None

    # areas
    area_items: dict[int, dict[str, tuple[int, str]]] = {}
    for slot in list(entries):
        if isinstance(slot, tuple):
            idx, name = slot
            area_items.setdefault(idx, {})[name] = entries.pop(slot)
    radii_item = entries.pop("geometry.radii", None)
    radii = None
    if radii_item is not None:
        lineno, value = radii_item
        try:
            radii = tuple(float(part) for part in value.split(","))
        except ValueError:
            problems.append((lineno, f"geometry.radii: not a comma-separated number list: {value!r}"))

    areas = []
    if not area_items:
        problems.append((None, "no areas defined (need areas.1.c1, areas.1.c2, ...)"))
    else:
        if sorted(area_items) != list(range(1, len(area_items) + 1)):
            problems.append((None, f"area indices must be 1..{len(area_items)} without gaps"))
        ring_qs = None
        if radii is not None and len(radii) == len(area_items):
            try:
                ring_qs = ring_area_probabilities(radii)
            except ConfigError as exc:
                problems.append((radii_item[0], f"geometry.radii: {exc}"))
        for idx in sorted(area_items):
            spec = area_items[idx]
            missing = {"c1", "c2"} - set(spec)
            if missing:
                problems.append((None, f"area {idx}: missing {sorted(missing)}"))
                continue
            q_item = spec.get("q")
            if q_item is None and ring_qs is None:
                problems.append((None, f"area {idx}: needs q (or a full geometry.radii list)"))
                continue
            q = parse(f"areas.{idx}.q", q_item, _probability) if q_item else ring_qs[idx - 1]
            if q is None:
                continue
            try:
                areas.append(AreaSpec(spec["c1"][1], spec["c2"][1], q))
            except ConfigError as exc:
                problems.append((spec["c1"][0], f"area {idx}: {exc}"))

    values = {}
    for key, (parser, default) in _SCALARS.items():
        item = entries.pop(key, None)
        if item is not None:
            values[key] = parse(key, item, parser)
        elif default is _REQUIRED:
            problems.append((None, f"missing {key}"))
        else:
            values[key] = default

    cfg = None
    if areas and not problems:
        try:
            cfg = CellConfig(areas=tuple(areas), radii=radii)
        except ConfigError as exc:
            problems.append((None, str(exc)))

    if problems:
        lines = [
            (f"{source}:{lineno}: {msg}" if lineno else f"{source}: {msg}")
            for lineno, msg in problems
        ]
        raise ConfigError("invalid configuration:\n" + "\n".join(lines), diagnostics=problems)

    return RunSpec(
        cfg=cfg,
        traffic=TrafficMix(*(values[f"traffic.{key}"] for key in ("lambda", "phi", "sigma"))),
        policy=values["policy"],
        seed=values["seed"],
    )


def parse_config(path: str | Path) -> RunSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _format_exact(value: Fraction) -> str:
    """Exact text form: integer, terminating decimal, or p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = value.numerator * 10**digits // value.denominator
        text = f"{scaled:0{digits + 1}d}"
        return f"{text[:-digits]}.{text[-digits:]}" if digits else text
    return f"{value.numerator}/{value.denominator}"


def emit_config(spec: RunSpec) -> str:
    """Text form of a run spec; parses back to an equal spec."""
    lines = []
    for idx, area in enumerate(spec.cfg.areas, start=1):
        lines.append(f"areas.{idx}.c1 = {_format_exact(area.c1_exact)}")
        lines.append(f"areas.{idx}.c2 = {_format_exact(area.c2_exact)}")
        lines.append(f"areas.{idx}.q = {area.q!r}")
    if spec.cfg.radii is not None:
        lines.append("geometry.radii = " + ", ".join(repr(r) for r in spec.cfg.radii))
    lines.append(f"traffic.lambda = {spec.traffic.lambda_total!r}")
    lines.append(f"traffic.phi = {spec.traffic.phi!r}")
    lines.append(f"traffic.sigma = {spec.traffic.sigma!r}")
    lines.append(f"policy = {spec.policy.value}")
    lines.append(f"seed = {spec.seed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV emission


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


def write_csv(path: Path, meta: list[tuple[str, str]], columns: list[str], rows) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in meta:
                fh.write(f"# {key}={value}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return path


def _config_summary(cfg: CellConfig) -> str:
    parts = []
    for area in cfg.areas:
        parts.append(
            f"(c1={_format_exact(area.c1_exact)},c2={_format_exact(area.c2_exact)},q={area.q:g})"
        )
    return ";".join(parts)


def _meta(dataset, config, policy, evaluator, truncation, seed, *extra) -> list[tuple[str, str]]:
    """The ``# key=value`` header every dataset starts with, then ``extra`` pairs."""
    return [
        ("dataset", dataset),
        ("config", config),
        ("policy", policy),
        ("evaluator", evaluator),
        ("truncation", truncation),
        ("seed", str(seed)),
        *extra,
    ]


# ---------------------------------------------------------------------------
# runners


def _solve_columns(n_areas: int) -> list[str]:
    cols = ["policy", "lambda", "phi", "sigma", "rho"]
    for j in range(1, n_areas + 1):
        cols += [f"gamma_sc_{j}", f"gamma_dc_{j}", f"gamma_bar_{j}"]
    cols += ["blocking_sc", "blocking_dc", "residual", "states", "max_total", "method"]
    return cols


def _solve_row(spec_policy, traffic, rho, report) -> list:
    row = [spec_policy.value, traffic.lambda_total, traffic.phi, traffic.sigma, rho]
    for area in report.per_area:
        row += [area.gamma_sc, area.gamma_dc, area.gamma_bar]
    diag = report.diagnostics
    row += [diag.blocking_sc, diag.blocking_dc, diag.residual, diag.states,
            diag.max_total, diag.method]
    return row


def run_solve(spec: RunSpec, out_dir: Path) -> Path:
    report, _ = solve_model(spec.cfg, spec.traffic, spec.policy)
    rho = offered_load(spec.cfg, spec.traffic)
    meta = _meta(
        "solve", _config_summary(spec.cfg), spec.policy.value, "ctmc",
        f"max_total={report.diagnostics.max_total}", spec.seed,
    )
    return write_csv(
        out_dir / "solve.csv", meta, _solve_columns(spec.cfg.n_areas),
        [_solve_row(spec.policy, spec.traffic, rho, report)],
    )


def run_simulate(
    spec: RunSpec,
    out_dir: Path,
    *,
    completions: int | None = None,
    horizon: float | None = None,
    trace_limit: int = 0,
) -> Path:
    if completions is None and horizon is None:
        completions = 50_000
    report = simulate(
        spec.cfg,
        spec.traffic,
        spec.policy,
        stop=Stop(horizon=horizon, completions=completions),
        warmup=Warmup(),
        seed=spec.seed,
        collect_trace=trace_limit,
    )
    rho = offered_load(spec.cfg, spec.traffic)
    cols = ["policy", "lambda", "phi", "sigma", "rho", "seed"]
    row: list = [spec.policy.value, spec.traffic.lambda_total, spec.traffic.phi,
                 spec.traffic.sigma, rho, spec.seed]
    for kind in ("sc", "dc"):
        for j in range(spec.cfg.n_areas):
            est = report.estimates.get((kind, j))
            cols += [f"gamma_{kind}_{j + 1}", f"half_{kind}_{j + 1}", f"n_{kind}_{j + 1}"]
            if est is None:
                row += [None, None, 0]
            else:
                row += [est.gamma_hat, est.half_width, est.completions]
    cols += ["unstable", "slope", "t_stat", "events", "sim_time"]
    row += [report.trend.unstable, report.trend.slope, report.trend.t_stat,
            report.events, report.sim_time]
    meta = _meta(
        "simulate", _config_summary(spec.cfg), spec.policy.value, "sim", "none", spec.seed,
        ("ci_level", f"{CI_LEVEL:g}"),
    )
    path = write_csv(out_dir / "simulate.csv", meta, cols, [row])
    if trace_limit > 0:
        comps = [f"{name}_{j + 1}" for j in range(spec.cfg.n_areas) for name in ("n1", "n2", "m")]
        write_csv(
            out_dir / "simulate_trace.csv",
            meta + [("trace_limit", str(trace_limit))],
            ["time", "event", "area"] + comps,
            [[ev.time, ev.label, ev.area + 1, *ev.state_after] for ev in report.trace],
        )
    return path


def _sweep_worker(payload):
    cfg, sigma, policy, rho, phi = payload
    lam = rho * harmonic_capacity(cfg) / sigma
    traffic = TrafficMix(lam, phi, sigma)
    report, _ = solve_model(cfg, traffic, policy)
    return _solve_row(policy, traffic, rho, report)


def resolve_workers() -> int:
    value = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def run_sweep(
    spec: RunSpec,
    grid: SweepGrid,
    out_dir: Path,
    *,
    workers: int | None = None,
) -> Path:
    workers = resolve_workers() if workers is None else workers
    payloads = [
        (spec.cfg, spec.traffic.sigma, spec.policy, rho, phi) for rho, phi in grid.points()
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, payloads))
    else:
        rows = [_sweep_worker(p) for p in payloads]
    meta = _meta(
        "sweep", _config_summary(spec.cfg), spec.policy.value, "ctmc",
        "auto(start=heuristic)", spec.seed,
        ("grid_rhos", ",".join(f"{r:g}" for r in grid.rhos)),
        ("grid_phis", ",".join(f"{p:g}" for p in grid.phis)),
    )
    return write_csv(out_dir / "sweep.csv", meta, _solve_columns(spec.cfg.n_areas), rows)


CAPACITY_COLUMNS = [
    "scenario", "phi", "theta_star", "achieved_gamma_edge", "evaluator",
    "reference_theta", "rel_deviation", "note",
]


def _capacity_row(scenario: str, phi: float, result) -> list:
    return [
        scenario, phi, result.theta_star, result.achieved_gamma, result.query.evaluator,
        result.reference, result.deviation, result.note,
    ]


def run_capacity(
    out_dir: Path,
    *,
    scenario: str | None = None,
    spec: RunSpec | None = None,
    phi: float,
    target: float | None = None,
    evaluator: str = "auto",
    tolerance: float = 0.01,
    seed: int = 0,
) -> Path:
    """Capacity of a preset (simulator seed ``seed``) or of ``spec`` (its own seed)."""
    if scenario is not None:
        if spec is not None or target is not None:
            raise ConfigError("capacity takes --scenario or --config with --target, not both")
        result = capacity_mod.solve_preset(
            scenario, phi, evaluator=evaluator, seed=seed, rel_tol=tolerance
        )
        label = scenario
    else:
        if spec is None or target is None:
            raise ConfigError("capacity needs --scenario or both --config and --target")
        query = capacity_mod.CapacityQuery(
            cfg=spec.cfg, phi=phi, target_gamma=target, evaluator=evaluator,
            rel_tol=tolerance, sigma=spec.traffic.sigma, seed=spec.seed, policy=spec.policy,
        )
        result = capacity_mod.max_sustainable_intensity(query)
        label = "custom"
    query = result.query
    meta = _meta(
        "capacity", _config_summary(query.cfg), query.policy.value, query.evaluator, "auto",
        query.seed, ("theta_tolerance", f"{query.rel_tol:g}"),
    )
    return write_csv(
        out_dir / "capacity.csv", meta, CAPACITY_COLUMNS,
        [_capacity_row(label, phi, result)],
    )


# ---------------------------------------------------------------------------
# bundled datasets


def _gamma_point(cfg, phi, rho, policy, seed, stream):
    """(gamma_sc, gamma_dc, gamma_bar, evaluator) at one (rho, phi) point.

    Uses the exact solver when :func:`~caflow.capacity.auto_evaluator` picks
    it for the point's own traffic, and falls back to the simulator when it
    does not or when the solve within ``EXACT_MAX_STATES`` is flagged
    unreliable (blocking above the reliability gate).
    """
    lam = rho * harmonic_capacity(cfg)
    traffic = TrafficMix(lam, phi, 1.0)
    if capacity_mod.auto_evaluator(cfg, traffic, policy) == "ctmc":
        report, _ = solve_model(cfg, traffic, policy, max_states=EXACT_MAX_STATES)
        if report.diagnostics.reliable:
            return report.gamma_sc(0), report.gamma_dc(0), report.gamma_bar(0), "ctmc"
    rep = simulate(
        cfg, traffic, policy,
        stop=Stop(completions=SIM_FALLBACK_COMPLETIONS),
        warmup=Warmup(0.2, SIM_FALLBACK_COMPLETIONS // 10),
        seed=seed, stream=stream, n_batches=10,
    )
    gamma_sc = rep.estimates.get(("sc", 0))
    gamma_dc = rep.estimates.get(("dc", 0))
    gamma_sc = gamma_sc.gamma_hat if gamma_sc else None
    gamma_dc = gamma_dc.gamma_hat if gamma_dc else None
    return gamma_sc, gamma_dc, mixed_mean_throughput(gamma_sc, gamma_dc, phi), "sim"


_REPRO_TRUNCATION = f"auto(budget={EXACT_MAX_STATES} states)"


def _repro_fig2(seed):
    cfg = CellConfig.single_area(1, 1)
    rows = []
    for rho in FIG_RHO_GRID:
        traffic = TrafficMix(2.0 * rho, 1.0, 1.0)
        report, _ = solve_model(cfg, traffic, Policy.JFQ, max_states=EXACT_MAX_STATES)
        rows.append([rho, report.gamma_sc(0), 1.0 - rho])
    meta = _meta(
        "fig2", _config_summary(cfg), "jsq", "ctmc", _REPRO_TRUNCATION, seed,
        ("note", "shortest-queue curve computed as the equal-capacity fastest-queue "
                 "solve (identical generators); reference is one PS server of rate 1"),
    )
    return meta, ["rho", "gamma_sc_jsq", "gamma_ps_ref"], rows


def _repro_mixed(figure, cfg, points, seed, load_column="rho"):
    """Per-class throughputs at each (load, phi) point, one simulator stream each."""
    rows = []
    for stream, (rho, phi) in enumerate(points):
        gamma_sc, gamma_dc, gamma_bar, used = _gamma_point(cfg, phi, rho, Policy.JFQ, seed, stream)
        rows.append([rho, phi, gamma_sc, gamma_dc, gamma_bar, used])
    meta = _meta(
        figure, _config_summary(cfg), "jfq", "ctmc+sim-fallback", _REPRO_TRUNCATION, seed
    )
    return meta, [load_column, "phi", "gamma_sc", "gamma_dc", "gamma_bar", "evaluator"], rows


def _repro_fig4(seed):
    cfg = CellConfig.single_area(1, 2)
    rows = []
    for rho in FIG_RHO_GRID:
        traffic = TrafficMix(3.0 * rho, 1.0, 1.0)
        jfq, _ = solve_model(cfg, traffic, Policy.JFQ, max_states=EXACT_MAX_STATES)
        jsq, _ = solve_model(cfg, traffic, Policy.JSQ, max_states=EXACT_MAX_STATES)
        rows.append([rho, jfq.gamma_sc(0), jsq.gamma_sc(0), 2.0 * (1.0 - rho)])
    meta = _meta(
        "fig4", _config_summary(cfg), "jfq,jsq", "ctmc", _REPRO_TRUNCATION, seed,
        ("note", "reference is one PS server of the larger capacity"),
    )
    return meta, ["rho", "gamma_sc_jfq", "gamma_sc_jsq", "gamma_ps_c2_ref"], rows


def _repro_table1(seed):
    rows = []
    for name in ("db-hsdpa", "dc-hsdpa", "lte"):
        for phi in capacity_mod.PRESET_PHI_GRID:
            result = capacity_mod.solve_preset(name, phi, seed=seed)
            rows.append(_capacity_row(name, phi, result))
    cfgs = "; ".join(
        f"{name}: {_config_summary(capacity_mod.scenario_presets(name)[0])}"
        for name in ("db-hsdpa", "dc-hsdpa", "lte")
    )
    meta = _meta(
        "table1", cfgs, "jfq", "ctmc for single-class mixes, sim for mixed traffic",
        f"auto(budget={DEFAULT_STATE_BUDGET} states)", seed,
        ("note", "edge capacities are exact tenths of the center; reference values "
                 "are reported for comparison, not asserted"),
    )
    return meta, CAPACITY_COLUMNS, rows


# the mixed-figure grids are read when a figure is built, not at import
_REPRO_BUILDERS = {
    "fig2": _repro_fig2,
    "fig3": lambda seed: _repro_mixed(
        "fig3", CellConfig.single_area(1, 1),
        [(rho, phi) for phi in FIG3_PHIS for rho in FIG_RHO_GRID], seed,
    ),
    "fig4": _repro_fig4,
    "fig5": lambda seed: _repro_mixed(
        "fig5", CellConfig.single_area(1, "1.3"),
        [(rho, phi) for phi in FIG5_PHIS for rho in FIG_RHO_GRID], seed,
    ),
    "fig6": lambda seed: _repro_mixed(
        "fig6", CellConfig.single_area(1, 2),
        [(load, phi) for load in FIG6_LOADS for phi in FIG6_PHIS], seed, load_column="load",
    ),
    "table1": _repro_table1,
}
FIGURES = tuple(_REPRO_BUILDERS)


def run_reproduce(figure: str, out_dir: Path, seed: int = 0) -> Path:
    if figure not in _REPRO_BUILDERS:
        raise ConfigError(f"unknown figure {figure!r}; valid: {', '.join(FIGURES)}")
    meta, columns, rows = _REPRO_BUILDERS[figure](seed)
    return write_csv(out_dir / f"{figure}.csv", meta, columns, rows)


# ---------------------------------------------------------------------------
# validation suite


class CheckFailed(Exception):
    pass


def _default_generator():
    cfg = CellConfig.single_area(1, 2)
    traffic = TrafficMix(1.5, 0.5, 1.0)
    return build_generator(cfg, traffic, Truncation(max_total=12))


def _check_generator_row_sums():
    gen = _default_generator()
    sums = np.abs(np.asarray(gen.Q.sum(axis=1)).ravel())
    bound = 1e-10 * max(1.0, gen.unif)
    if sums.max() > bound:
        raise CheckFailed(f"max |row sum| = {sums.max():.3e} exceeds {bound:.3e}")
    coo = gen.Q.tocoo()
    off = coo.row != coo.col
    src = gen.space.counts[coo.row[off]].astype(np.int64)
    dst = gen.space.counts[coo.col[off]].astype(np.int64)
    if np.abs(dst - src).sum(axis=1).max(initial=0) != 1:
        raise CheckFailed("an off-diagonal entry links states that are not unit neighbors")
    if coo.data[off].min(initial=0.0) < 0:
        raise CheckFailed("negative off-diagonal rate")
    return f"{gen.Q.shape[0]} states, max |row sum| {sums.max():.2e}"


def _check_stationary_solution():
    gen = _default_generator()
    dist = solve_stationary(gen)
    if dist.pi.min() < 0:
        raise CheckFailed("negative stationary probability")
    if abs(dist.pi.sum() - 1.0) > 1e-10:
        raise CheckFailed(f"pi sums to {dist.pi.sum()!r}")
    # the same reduced system (pi_0 = 1, the empty state's equation dropped),
    # solved by sparse LU instead of the preconditioned iteration
    qt = gen.Q.T.tocsc()
    direct = np.concatenate(([1.0], spsolve(qt[1:, 1:], -qt[1:, 0].toarray().ravel())))
    deviation = float(np.abs(dist.pi - direct / direct.sum()).max())
    if not deviation <= 1e-12:
        raise CheckFailed(f"pi deviates from a direct solve by {deviation:.3e} (max abs)")
    return (
        f"residual {dist.residual:.2e}, sum deviation {abs(dist.pi.sum() - 1.0):.2e}, "
        f"direct-solve deviation {deviation:.2e}"
    )


def _check_jfq_jsq_identity():
    cfg = CellConfig.single_area("1.7", "1.7")
    traffic = TrafficMix(2.0, 0.6, 1.0)
    gen_a = build_generator(cfg, traffic, Truncation(max_total=10), Policy.JFQ)
    gen_b = build_generator(cfg, traffic, Truncation(max_total=10), Policy.JSQ)
    diff = (gen_a.Q != gen_b.Q).nnz
    if diff:
        raise CheckFailed(f"{diff} entries differ between JFQ and JSQ generators")
    return f"identical matrices with {gen_a.Q.nnz} entries"


def _check_routing_scale_invariance():
    capacities = [(1, 2), ("1.3", "2.6"), (Fraction(3, 7), Fraction(5, 7)), (10, 14)]
    scales = [2, Fraction(3, 2), Fraction(7, 5), 10]
    checked = 0
    for c1, c2 in capacities:
        base_cfg = CellConfig.single_area(c1, c2)
        for lam in scales:
            cfg = CellConfig.single_area(
                base_cfg.areas[0].c1_exact * lam, base_cfg.areas[0].c2_exact * lam
            )
            for n1 in range(5):
                for n2 in range(5):
                    for m in range(3):
                        base = sc_carrier1_share(Policy.JFQ, base_cfg.areas[0], n1, n2, m)
                        if sc_carrier1_share(Policy.JFQ, cfg.areas[0], n1, n2, m) != base:
                            raise CheckFailed(
                                f"scaling by {lam} changed the route in state {(n1, n2, m)}"
                            )
                        checked += 1
    return f"{checked} routing decisions invariant under capacity scaling"


def _check_jfq_joins_fastest():
    # (c1, c2), state (n1, n2, m), carrier 1's share: the faster carrier wins,
    # and post-arrival rates 1/1 and 2/2 tie
    cases = [((1, 2), (0, 0, 0), 0.0), ((2, 1), (0, 0, 0), 1.0), ((1, 2), (0, 1, 0), 0.5)]
    for (c1, c2), state, expected in cases:
        share = sc_carrier1_share(Policy.JFQ, CellConfig.single_area(c1, c2).areas[0], *state)
        if share != expected:
            raise CheckFailed(
                f"carrier 1 gets share {share} on (c1, c2) = {(c1, c2)} in state {state}, "
                f"expected {expected}"
            )
    return f"{len(cases)} routing decisions join the faster carrier or split a tie"


def _check_band_truncation():
    # fastest-queue routing keeps the carriers near balance, so solve_model
    # cuts the lattice to a band of the imbalance; against the full lattice
    # at the same population cap the answer must stay within 1e-6
    cfg = CellConfig.single_area(1, 2)
    traffic = TrafficMix(2.1, 0.5, 1.0)  # rho = 0.7
    report, _ = solve_model(cfg, traffic, Policy.JFQ)
    diag = report.diagnostics
    if diag.band is None:
        raise CheckFailed("the solve cut no band")
    if diag.blocking_max > 1e-8:
        raise CheckFailed(f"dropped mass {diag.blocking_max:.3e} exceeds 1e-8")
    space = enumerate_states(cfg, Truncation(diag.max_total), traffic=traffic)
    full = throughputs_from_distribution(
        solve_stationary(build_generator(cfg, traffic, space, Policy.JFQ))
    )
    worst = max(
        abs(report.gamma_sc(0) / full.gamma_sc(0) - 1.0),
        abs(report.gamma_dc(0) / full.gamma_dc(0) - 1.0),
    )
    if not worst <= 1e-6:
        raise CheckFailed(f"band gamma deviates from the full lattice by {worst:.3e} (relative)")
    return (
        f"{diag.states} of {len(space)} states (band {diag.band}), dropped mass "
        f"{diag.blocking_max:.2e}, gamma within {worst:.1e} of the full lattice"
    )


def _check_vb_conservation():
    worst = 0.0
    for c1, c2 in [(1, 2), ("1.3", "0.7"), (Fraction(5, 3), Fraction(7, 11))]:
        cfg = CellConfig.single_area(c1, c2)
        for n1 in range(4):
            for n2 in range(4):
                for m in range(1, 4):
                    state = SystemState((n1, n2, m))
                    for dt in (1e-3, 0.25, 2.0):
                        s1, s2 = vb_split(state, 0, cfg, dt)
                        total = dc_aggregate_rate(state, 0, cfg) * dt
                        worst = max(worst, abs(s1 + s2 - total) / max(total, 1e-30))
    if worst > 1e-12:
        raise CheckFailed(f"volume split misses the aggregate by {worst:.3e} (relative)")
    return f"worst relative imbalance {worst:.2e}"


def _check_csv_determinism():
    spec = parse_config_text(
        "areas.1.c1 = 1\nareas.1.c2 = 2\nareas.1.q = 1\n"
        "traffic.lambda = 1.5\ntraffic.phi = 0.5\ntraffic.sigma = 1\nseed = 3\n"
    )
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("a", "b"):
            path = run_solve(spec, Path(tmp) / sub)
            outputs.append(path.read_bytes())
    if outputs[0] != outputs[1]:
        raise CheckFailed("two identical solve runs produced different bytes")
    round_trip = parse_config_text(emit_config(spec))
    if round_trip != spec:
        raise CheckFailed("config round-trip changed the parsed settings")
    return f"byte-identical output ({len(outputs[0])} bytes), config round-trip exact"


VALIDATION_CHECKS = [
    ("generator-row-sums", _check_generator_row_sums),
    ("stationary-solution", _check_stationary_solution),
    ("jfq-jsq-identity", _check_jfq_jsq_identity),
    ("routing-scale-invariance", _check_routing_scale_invariance),
    ("jfq-joins-fastest", _check_jfq_joins_fastest),
    ("band-truncation", _check_band_truncation),
    ("vb-conservation", _check_vb_conservation),
    ("csv-determinism", _check_csv_determinism),
]


def run_validate() -> int:
    """Run the structural invariant suite; exit code 0 iff every check passes."""
    failed = 0
    for name, check in VALIDATION_CHECKS:
        started = time.monotonic()
        try:
            detail = check()
            status = "PASS"
        except CheckFailed as exc:
            status, detail = "FAIL", str(exc)
            failed += 1
        except CaflowError as exc:
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
            failed += 1
        elapsed = time.monotonic() - started
        print(f"[{status}] {name} ({elapsed:.2f}s): {detail}")
    print(f"{'all checks passed' if not failed else f'{failed} check(s) FAILED'}")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caflow",
        description="flow-level performance toolkit for two-carrier cells",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_solve = sub.add_parser("solve", help="stationary solve of one configuration")
    add_common(p_solve)

    p_sim = sub.add_parser("simulate", help="event-driven simulation of one configuration")
    add_common(p_sim)
    p_sim.add_argument("--completions", type=int, default=None)
    p_sim.add_argument("--horizon", type=float, default=None, help="simulated seconds")
    p_sim.add_argument("--trace-limit", type=int, default=0,
                       help="also dump up to N events as a trace CSV")

    p_sweep = sub.add_parser("sweep", help="solve over a grid of loads and mixes")
    add_common(p_sweep)
    p_sweep.add_argument("--rhos", required=True,
                         help="comma-separated loads in (0,1), e.g. 0.1,0.2,0.5")
    p_sweep.add_argument("--phis", default=None,
                         help="comma-separated SC fractions (default: the config phi)")

    p_cap = sub.add_parser("capacity", help="invert an edge-throughput target")
    p_cap.add_argument("--scenario", choices=sorted(capacity_mod.REFERENCE_THETA),
                       default=None)
    p_cap.add_argument("--config", default=None)
    p_cap.add_argument("--target", type=float, default=None,
                       help="edge mean-throughput target (Mbit/s); presets bundle one")
    p_cap.add_argument("--phi", type=float, required=True)
    p_cap.add_argument("--evaluator", choices=capacity_mod.EVALUATORS,
                       default="auto")
    p_cap.add_argument("--tolerance", type=float, default=0.01,
                       help="relative tolerance on theta")
    p_cap.add_argument("--out", default="out")
    p_cap.add_argument("--seed", type=int, default=None,
                       help="simulator seed (default: the config seed, 0 for presets)")

    p_repro = sub.add_parser("reproduce", help="emit a bundled study dataset")
    p_repro.add_argument("figure", choices=FIGURES)
    p_repro.add_argument("--out", default="out")
    p_repro.add_argument("--seed", type=int, default=0)

    sub.add_parser("validate", help="run the structural invariant suite")

    return parser


def _non_negative_flag(flag: str, value: int) -> int:
    # the config's rule for ``seed``, applied to a command-line flag
    try:
        return _integer(0, "non-negative")(value)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _number_list(flag: str, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag}: not a comma-separated number list: {text!r}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return run_validate()
        if args.seed is not None:
            _non_negative_flag("--seed", args.seed)

        if args.command == "capacity":
            spec = parse_config(args.config) if args.config else None
            if spec is not None and args.seed is not None:
                spec = replace(spec, seed=args.seed)
            path = run_capacity(
                Path(args.out),
                scenario=args.scenario,
                spec=spec,
                phi=args.phi,
                target=args.target,
                evaluator=args.evaluator,
                tolerance=args.tolerance,
                seed=args.seed or 0,
            )
            print(path)
            return 0

        if args.command == "reproduce":
            path = run_reproduce(args.figure, Path(args.out), seed=args.seed)
            print(path)
            return 0

        spec = parse_config(args.config)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        out_dir = Path(args.out)
        if args.command == "solve":
            path = run_solve(spec, out_dir)
        elif args.command == "simulate":
            path = run_simulate(
                spec, out_dir,
                completions=args.completions, horizon=args.horizon,
                trace_limit=_non_negative_flag("--trace-limit", args.trace_limit),
            )
        else:
            rhos = _number_list("--rhos", args.rhos)
            phis = _number_list("--phis", args.phis) if args.phis else (spec.traffic.phi,)
            path = run_sweep(spec, SweepGrid(rhos=rhos, phis=phis), out_dir)
        print(path)
        return 0
    except (ConfigError, InfeasibleTargetError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except UnstableSystemError as exc:
        print(f"{exc}; `caflow simulate` samples an overloaded cell", file=sys.stderr)
        return 2
    except CaflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
