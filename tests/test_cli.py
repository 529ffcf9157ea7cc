from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caflow.cli as cli
from caflow.cli import (
    RunSpec,
    SweepGrid,
    emit_config,
    main,
    parse_config_text,
    run_reproduce,
    run_validate,
)
from caflow.errors import (
    ConfigError,
    ConvergenceError,
    EmptyCarrierError,
    StateSpaceTooLargeError,
)
from caflow.model import CellConfig, Policy, TrafficMix


MINIMAL = (
    "areas.1.c1 = 1\n"
    "areas.1.c2 = 1\n"
    "areas.1.q = 1\n"
    "traffic.lambda = 1.0\n"
    "traffic.phi = 0.5\n"
    "traffic.sigma = 1\n"
)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- parsing -------------------------------------------------------------------


def test_parse_minimal_config():
    spec = parse_config_text(MINIMAL)
    assert spec.cfg.n_areas == 1
    assert spec.traffic.phi == 0.5
    assert spec.policy is Policy.JFQ
    assert spec.seed == 0


def test_parse_accepts_comments_and_policy():
    spec = parse_config_text(MINIMAL + "policy = jsq  # baseline\nseed = 9\n")
    assert spec.policy is Policy.JSQ
    assert spec.seed == 9


def test_parse_exact_capacities():
    spec = parse_config_text(MINIMAL.replace("areas.1.c2 = 1", "areas.1.c2 = 1.4"))
    assert spec.cfg.areas[0].c2_exact == Fraction(7, 5)


def test_parse_radii_derive_q():
    text = (
        "areas.1.c1 = 10\nareas.1.c2 = 10\n"
        "areas.2.c1 = 1\nareas.2.c2 = 1\n"
        "geometry.radii = 300, 600\n"
        "traffic.lambda = 1\ntraffic.phi = 0\ntraffic.sigma = 1\n"
    )
    spec = parse_config_text(text)
    assert spec.cfg.areas[0].q == 0.25
    assert spec.cfg.radii == (300.0, 600.0)


def test_parse_rejects_bad_q_sum():
    text = MINIMAL.replace("areas.1.q = 1", "areas.1.q = 0.9")
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config_text(text)


def test_parse_rejects_phi_out_of_range():
    with pytest.raises(ConfigError, match="traffic.phi"):
        parse_config_text(MINIMAL.replace("traffic.phi = 0.5", "traffic.phi = 1.5"))


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match=r":7: unknown key 'traffic.lamda'"):
        parse_config_text(MINIMAL + "traffic.lamda = 2\n")


def test_parse_rejects_duplicates_and_gaps():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(MINIMAL + "traffic.phi = 0.2\n")
    text = MINIMAL + "areas.3.c1 = 1\nareas.3.c2 = 1\nareas.3.q = 0\n"
    with pytest.raises(ConfigError, match="without gaps"):
        parse_config_text(text)


def test_parse_rejects_a_far_area_index_as_a_gap():
    # the gap check compares the indices with 1..(number of areas), so a far
    # index costs nothing to reject
    text = MINIMAL + "areas.1000000000000.c1 = 1\nareas.1000000000000.c2 = 1\n"
    with pytest.raises(ConfigError, match="area indices must be 1..2 without gaps"):
        parse_config_text(text)


@pytest.mark.parametrize("alias", ["areas.01.c1", "areas.\u0661.c1"])
def test_main_rejects_an_area_key_set_twice_under_two_spellings(tmp_path, capsys, alias):
    # 01 and the Arabic-Indic digit one both parse to area 1
    cfg = write_cfg(tmp_path, MINIMAL + f"{alias} = 5\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"invalid configuration:\n{cfg}:7: duplicate key {alias!r} (first set on line 1)\n"
    )


def test_parse_reports_all_problems():
    bad = "areas.1.c1 = 0\nnonsense line\ntraffic.phi = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    message = str(err.value)
    assert "expected 'key = value'" in message
    assert "missing traffic.lambda" in message


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("traffic.lambda = 1.0", "traffic.lambda = -1", (4, "traffic.lambda: must be >= 0.0, got -1")),
        ("traffic.phi = 0.5", "traffic.phi = 1.5", (5, "traffic.phi: must be <= 1.0, got 1.5")),
        ("traffic.sigma = 1", "traffic.sigma = 0", (6, "traffic.sigma: must be > 0, got 0.0")),
        ("traffic.sigma = 1", "traffic.sigma = x", (6, "traffic.sigma: not a number: 'x'")),
        ("", "policy = fifo", (7, "policy: must be one of jfq, jsq, bernoulli, got 'fifo'")),
        ("", "seed = -1", (7, "seed: must be a non-negative integer, got '-1'")),
        # the solver sizes the truncation itself: the key is refused whatever
        # its value
        ("", "ctmc.max_total = 0", (7, "unknown key 'ctmc.max_total'")),
        ("", "ctmc.max_total = x", (7, "unknown key 'ctmc.max_total'")),
        ("traffic.lambda = 1.0\n", "", (None, "missing traffic.lambda")),
        ("traffic.lambda = 1.0", "traffic.lambda = inf", (4, "traffic.lambda: must be finite, got inf")),
        ("traffic.lambda = 1.0", "traffic.lambda = nan", (4, "traffic.lambda: must be finite, got nan")),
        ("traffic.sigma = 1", "traffic.sigma = inf", (6, "traffic.sigma: must be finite, got inf")),
        ("traffic.phi = 0.5", "traffic.phi = nan", (5, "traffic.phi: must be finite, got nan")),
    ],
)
def test_parse_scalar_key_diagnostics(old, new, expected):
    # the exact (line, text) entry of each scalar key's problem
    text = MINIMAL.replace(old, new) if old else MINIMAL + new + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.diagnostics == [expected]


def test_config_round_trip_is_exact():
    spec = RunSpec(
        cfg=CellConfig(
            areas=(
                cli.AreaSpec("10", "14", 0.25),
                cli.AreaSpec("1/3", "1.4", 0.75),
            )
        ),
        traffic=TrafficMix(2.7182818, 0.31830988, 1.5),
        policy=Policy.BERNOULLI,
        seed=12345,
    )
    again = parse_config_text(emit_config(spec))
    assert again == spec
    # exact rationals survive the text form
    assert again.cfg.areas[1].c1_exact == Fraction(1, 3)


_CAPACITY = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10**6)


@settings(max_examples=100)
@given(st.lists(st.tuples(_CAPACITY, _CAPACITY), min_size=1, max_size=3))
def test_config_round_trip_on_random_exact_capacities(capacities):
    # includes non-terminating decimals such as 1/3, which print as p/q
    areas = tuple(cli.AreaSpec(c1, c2, 1.0 / len(capacities)) for c1, c2 in capacities)
    spec = RunSpec(cfg=CellConfig(areas=areas), traffic=TrafficMix(1.0, 0.5, 1.0))
    again = parse_config_text(emit_config(spec))
    assert again == spec
    assert [(a.c1_exact, a.c2_exact) for a in again.cfg.areas] == capacities


def test_format_exact_rendering():
    assert cli._format_exact(Fraction(14)) == "14"
    assert cli._format_exact(Fraction(7, 5)) == "1.4"
    assert cli._format_exact(Fraction(13, 10)) == "1.3"
    assert cli._format_exact(Fraction(1, 3)) == "1/3"
    assert cli._format_exact(Fraction(3, 8)) == "0.375"


# --- runners through main() -------------------------------------------------------


def test_main_solve_writes_deterministic_csv(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + "seed = 5\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "solve.csv").read_bytes()
    b = (tmp_path / "b" / "solve.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()
    assert header[0] == "# dataset=solve"
    assert any(line.startswith("# seed=5") for line in header)


def test_main_rejects_bad_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("areas.1.q = 1", "areas.1.q = 0.9"))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "sum to 1" in capsys.readouterr().err


def test_main_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a solve that cannot reach its tolerance is a numerical failure (exit 2),
    # not a config error
    def fail(*_args, **_kwargs):
        raise ConvergenceError("stationary solve failed to reach tol=1e-10")

    monkeypatch.setattr(cli, "solve_model", fail)
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "numerical failure: stationary solve failed to reach tol=1e-10\n"
    )
    assert not (tmp_path / "solve.csv").exists()


def test_main_any_caflow_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def fail(*_args, **_kwargs):
        raise EmptyCarrierError("no user on carrier 1")

    monkeypatch.setattr(cli, "solve_model", fail)
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "numerical failure: no user on carrier 1\n"


def test_main_reports_an_output_directory_it_cannot_write(tmp_path, capsys):
    # --out names an existing file: one line naming the path, exit 1
    cfg = write_cfg(tmp_path, MINIMAL)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {taken / 'solve.csv'}: ")
    assert err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == ""


def test_main_solve_refuses_an_overloaded_cell(tmp_path, capsys):
    # rho = 1.1 has no stationary regime: exit 2 at once, naming rho and the
    # simulator, and no CSV
    cfg = write_cfg(tmp_path, MINIMAL.replace("traffic.lambda = 1.0", "traffic.lambda = 2.2"))
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rho = 1.1" in err and "caflow simulate" in err
    assert not (tmp_path / "solve.csv").exists()


@pytest.mark.parametrize("flag", ["--rhos", "--phis"])
def test_main_sweep_rejects_a_non_numeric_list(tmp_path, capsys, flag):
    cfg = write_cfg(tmp_path, MINIMAL)
    args = {"--rhos": "0.2", "--phis": "0.5", flag: "0.1,abc"}
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path),
               *(item for pair in args.items() for item in pair)])
    assert rc == 1
    assert capsys.readouterr().err == f"{flag}: not a comma-separated number list: '0.1,abc'\n"


def test_main_simulate_emits_estimates_and_trace(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main([
        "simulate", "--config", str(cfg), "--out", str(tmp_path),
        "--completions", "3000", "--trace-limit", "40",
    ])
    assert rc == 0
    body = (tmp_path / "simulate.csv").read_text().splitlines()
    assert body[-2].split(",")[0] == "policy"
    trace = (tmp_path / "simulate_trace.csv").read_text().splitlines()
    assert trace[-1].split(",")[1] in {"T1", "T2", "T3", "T4", "T5", "T6"}
    assert len(trace) > 20


def test_main_simulate_rejects_a_negative_trace_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("the run started"))
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--trace-limit", "-5"])
    assert rc == 1
    assert capsys.readouterr().err == "--trace-limit: must be a non-negative integer, got -5\n"
    assert not (tmp_path / "simulate.csv").exists()


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_main_simulate_refuses_a_horizon_it_never_reaches(tmp_path, capsys, monkeypatch, horizon):
    # with no completion target such a run would never stop; it is refused
    # before any event is simulated
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("the run started"))
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--horizon", horizon])
    assert rc == 1
    assert capsys.readouterr().err == f"horizon must be finite and > 0, got {float(horizon)!r}\n"
    assert not (tmp_path / "simulate.csv").exists()


def test_main_sweep_orders_rows(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main([
        "sweep", "--config", str(cfg), "--out", str(tmp_path),
        "--rhos", "0.2,0.4", "--phis", "0,1",
    ])
    assert rc == 0
    rows = [
        line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    assert [(r[4], r[2]) for r in rows] == [
        ("0.2", "0"), ("0.2", "1"), ("0.4", "0"), ("0.4", "1")
    ]


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, MINIMAL.replace("areas.1.c2 = 1", "areas.1.c2 = 2"))
    grid = ["--rhos", "0.3,0.6", "--phis", "0,0.5,1"]
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "par"), *grid]) == 0
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "ser"), *grid]) == 0
    assert (tmp_path / "par" / "sweep.csv").read_bytes() == \
        (tmp_path / "ser" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("value, workers", [("3", 3), ("0", 1), ("two", 1), ("1.5", 1)])
def test_resolve_workers_reads_a_positive_integer_or_falls_back_to_one(
    monkeypatch, value, workers
):
    monkeypatch.setenv(cli.WORKERS_ENV, value)
    assert cli.resolve_workers() == workers


def test_sweep_grid_validation():
    with pytest.raises(ConfigError):
        SweepGrid(rhos=(), phis=(0.5,))
    with pytest.raises(ConfigError):
        SweepGrid(rhos=(1.2,), phis=(0.5,))
    with pytest.raises(ConfigError):
        SweepGrid(rhos=(0.5,), phis=(1.5,))


def test_main_capacity_custom_config(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL.replace("traffic.phi = 0.5", "traffic.phi = 0"))
    rc = main([
        "capacity", "--config", str(cfg), "--phi", "0", "--target", "0.4",
        "--evaluator", "ctmc", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "capacity.csv").read_text().splitlines()
    row = lines[-1].split(",")
    assert row[0] == "custom"
    assert float(row[2]) == pytest.approx(1.6, rel=0.02)


def test_main_capacity_needs_target_or_scenario(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["capacity", "--config", str(cfg), "--phi", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    assert "target" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--target", "0.5"], ["--config", "{cfg}"],
                                   ["--config", "{cfg}", "--target", "0.5"]])
def test_main_capacity_scenario_takes_no_target_or_config(tmp_path, capsys, monkeypatch, flags):
    # a preset bundles its own cell and target, so a mix of the two forms is refused
    monkeypatch.setattr(cli.capacity_mod, "solve_preset", lambda *a, **k: pytest.fail("ran"))
    cfg = str(write_cfg(tmp_path, MINIMAL))
    argv = ["capacity", "--scenario", "dc-hsdpa", "--phi", "1", "--out", str(tmp_path)]
    assert main(argv + [flag.format(cfg=cfg) for flag in flags]) == 1
    assert "--scenario or --config with --target, not both" in capsys.readouterr().err
    assert not (tmp_path / "capacity.csv").exists()


def test_main_capacity_infeasible_target_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    rc = main(["capacity", "--config", str(cfg), "--phi", "0.5", "--target", "100",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "exceeds the zero-load edge throughput" in err
    assert "Traceback" not in err
    assert not (tmp_path / "capacity.csv").exists()


@pytest.mark.parametrize("phi", ["0.9999", "0.0001"])
def test_main_capacity_probe_without_an_edge_estimate_exits_2(tmp_path, capsys, phi):
    # one class is so rare at the edge that no doubling gives it an estimate
    rc = main(["capacity", "--scenario", "dc-hsdpa", "--phi", phi, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: simulator probe at theta=")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_main_capacity_header_names_the_policy_used(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL.replace("areas.1.c2 = 1", "areas.1.c2 = 2")
                    + "policy = jsq\n")
    rc = main(["capacity", "--config", str(cfg), "--phi", "1", "--target", "1",
               "--evaluator", "ctmc", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "capacity.csv").read_text().splitlines()
    assert "# policy=jsq" in lines
    assert "# policy=jfq" not in lines


def test_main_capacity_approx_needs_fastest_queue_routing(tmp_path, capsys):
    # the closed form models JFQ; with no SC flows (phi = 0) routing is moot
    cfg = write_cfg(tmp_path, MINIMAL.replace("areas.1.c2 = 1", "areas.1.c2 = 2")
                    + "policy = jsq\n")
    argv = ["capacity", "--config", str(cfg), "--target", "1", "--evaluator", "approx",
            "--out", str(tmp_path)]
    assert main(argv + ["--phi", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "approx evaluator models fastest-queue (jfq) routing" in err
    assert "got policy jsq" in err
    assert not (tmp_path / "capacity.csv").exists()
    assert main(argv + ["--phi", "0"]) == 0


def test_main_capacity_config_seed_is_the_default_and_seed_overrides_it(tmp_path):
    cfg = str(write_cfg(tmp_path, MINIMAL + "seed = 7\n"))
    argv = ["capacity", "--config", cfg, "--phi", "0", "--target", "1",
            "--evaluator", "approx"]
    assert main(argv + ["--out", str(tmp_path / "own")]) == 0
    assert "# seed=7" in (tmp_path / "own" / "capacity.csv").read_text().splitlines()
    assert main(argv + ["--seed", "3", "--out", str(tmp_path / "flag")]) == 0
    assert "# seed=3" in (tmp_path / "flag" / "capacity.csv").read_text().splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--config", "{cfg}"],
        ["simulate", "--config", "{cfg}", "--completions", "100"],
        ["sweep", "--config", "{cfg}", "--rhos", "0.5"],
        ["capacity", "--config", "{cfg}", "--phi", "0", "--target", "0.4"],
        ["capacity", "--scenario", "dc-hsdpa", "--phi", "0.5"],
        ["reproduce", "fig3"],
    ],
    ids=["solve", "simulate", "sweep", "capacity-config", "capacity-scenario", "reproduce"],
)
def test_main_rejects_a_negative_seed_flag(tmp_path, capsys, argv):
    # the config's rule for ``seed`` holds for the flag that overrides it
    cfg = str(write_cfg(tmp_path, MINIMAL))
    out = tmp_path / "out"
    argv = [arg.format(cfg=cfg) for arg in argv] + ["--seed", "-1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "--seed: must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--target", "nan"], "target throughput must be finite"),
        (["--target", "1", "--tolerance", "nan"], "tolerance must be finite"),
        (["--target", "1", "--tolerance", "0"], "tolerance must be finite and > 0"),
        (["--target", "1", "--phi", "1.5"], "SC fraction must lie in [0, 1]"),
    ],
)
def test_main_capacity_rejects_outside_input(tmp_path, capsys, flags, message):
    cfg = write_cfg(tmp_path, MINIMAL)
    argv = ["capacity", "--config", str(cfg), "--phi", "0.5", *flags, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "capacity.csv").exists()


def test_main_capacity_preset_rejects_a_fraction_above_one(tmp_path, capsys):
    argv = ["capacity", "--scenario", "dc-hsdpa", "--phi", "1.5", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "SC fraction must lie in [0, 1]" in err
    assert "zero-load" not in err


def test_main_solve_on_too_many_areas_points_to_simulate(tmp_path, capsys):
    # seven mixed areas need 21 lattice axes, past the int64 state index
    text = "".join(
        f"areas.{j}.c1 = 1\nareas.{j}.c2 = 1\nareas.{j}.q = {0.25 if j == 1 else 0.125}\n"
        for j in range(1, 8)
    ) + "traffic.lambda = 1.0\ntraffic.phi = 0.5\ntraffic.sigma = 1\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "too many areas for the exact lattice index" in err
    assert "caflow simulate" in err


def test_every_dataset_starts_with_the_six_headers(tmp_path, monkeypatch):
    # README: each file names dataset, config, policy, evaluator, truncation
    # and seed, in that order, before anything else
    monkeypatch.setattr(cli, "FIG_RHO_GRID", (0.5,))
    cfg = str(write_cfg(tmp_path, MINIMAL))
    runs = {
        "solve.csv": ["solve", "--config", cfg],
        "simulate.csv": ["simulate", "--config", cfg, "--completions", "500"],
        "sweep.csv": ["sweep", "--config", cfg, "--rhos", "0.5"],
        "capacity.csv": ["capacity", "--config", cfg, "--phi", "0", "--target", "1",
                         "--evaluator", "approx"],
        "fig2.csv": ["reproduce", "fig2"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / name).read_text().splitlines()
        keys = [line[2:].split("=", 1)[0] for line in lines[:6]]
        assert keys == ["dataset", "config", "policy", "evaluator", "truncation", "seed"], name


# --- reproduce ----------------------------------------------------------------------


def test_reproduce_fig2_columns_and_anchors(tmp_path):
    path = run_reproduce("fig2", tmp_path, seed=0)
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    for key in ("config=", "policy=", "evaluator=", "truncation=", "seed=0"):
        assert any(key in l for l in meta), f"missing {key} header"
    table = [l.split(",") for l in lines if not l.startswith("#")]
    assert table[0] == ["rho", "gamma_sc_jsq", "gamma_ps_ref"]
    first = table[1]
    assert float(first[0]) == 0.05
    # single SC user gets the full rate of one carrier as load vanishes
    assert float(first[1]) == pytest.approx(1.0, rel=0.02)
    for row in table[1:]:
        assert float(row[1]) >= float(row[2]) - 1e-9


def test_reproduce_unknown_figure():
    with pytest.raises(ConfigError, match="fig6"):
        run_reproduce("fig7", Path("unused"))


def test_reproduce_mixed_figures_smoke(tmp_path, monkeypatch):
    # coarse grids keep this a plumbing test; rho = 0.9 with mixed traffic
    # exercises the simulator fallback
    monkeypatch.setattr(cli, "FIG_RHO_GRID", (0.3, 0.9))
    monkeypatch.setattr(cli, "FIG3_PHIS", (0.0, 0.5))
    monkeypatch.setattr(cli, "FIG5_PHIS", (0.5, 1.0))
    monkeypatch.setattr(cli, "FIG6_LOADS", (0.3,))
    monkeypatch.setattr(cli, "FIG6_PHIS", (0.0, 0.5, 1.0))
    monkeypatch.setattr(cli, "SIM_FALLBACK_COMPLETIONS", 20_000)
    for figure, expected_cols in (
        ("fig3", ["rho", "phi", "gamma_sc", "gamma_dc", "gamma_bar", "evaluator"]),
        ("fig4", ["rho", "gamma_sc_jfq", "gamma_sc_jsq", "gamma_ps_c2_ref"]),
        ("fig5", ["rho", "phi", "gamma_sc", "gamma_dc", "gamma_bar", "evaluator"]),
        ("fig6", ["load", "phi", "gamma_sc", "gamma_dc", "gamma_bar", "evaluator"]),
    ):
        path = run_reproduce(figure, tmp_path, seed=1)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",") == expected_cols
        assert len(lines) > 1
    fig3 = [l.split(",") for l in (tmp_path / "fig3.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    used = {row[-1] for row in fig3}
    assert used == {"ctmc", "sim"}
    for row in fig3:
        rho, phi, gamma_dc, evaluator = float(row[0]), float(row[1]), row[3], row[-1]
        if phi == 0.0 and evaluator == "ctmc":
            # DC-only rows follow the pooled-capacity closed form
            assert float(gamma_dc) == pytest.approx(2.0 * (1.0 - rho), rel=0.01)


# --- validate ------------------------------------------------------------------------


def test_run_validate_passes(capsys):
    assert run_validate() == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(cli.VALIDATION_CHECKS)
    assert "FAIL" not in out


def test_run_validate_detects_corrupted_generator(capsys, monkeypatch):
    from dataclasses import replace

    default = cli._default_generator

    def corrupted():
        gen = default()
        bad = gen.Q.tolil()
        bad[0, 0] = 1.0  # break the zero row-sum invariant
        return replace(gen, Q=bad.tocsr())

    monkeypatch.setattr(cli, "_default_generator", corrupted)
    assert run_validate() == 3
    out = capsys.readouterr().out
    assert "[FAIL] generator-row-sums" in out


def test_run_validate_detects_a_stationary_law_off_the_direct_solve(capsys, monkeypatch):
    from dataclasses import replace

    solve = cli.solve_stationary

    def shifted(gen):
        # still non-negative and summing to one, but 1e-9 off the balance law
        dist = solve(gen)
        pi = dist.pi.copy()
        pi[0] -= 1e-9
        pi[1] += 1e-9
        return replace(dist, pi=pi)

    monkeypatch.setattr(cli, "solve_stationary", shifted)
    assert run_validate() == 3
    out = capsys.readouterr().out
    assert "[FAIL] stationary-solution" in out
    assert "deviates from a direct solve by 1.000e-09" in out
    assert out.count("[FAIL]") == 1


def test_run_validate_detects_jfq_joining_the_slower_carrier(capsys, monkeypatch):
    rule = cli.sc_carrier1_share

    def swapped(policy, area, n1, n2, m):
        if policy is not Policy.JFQ:
            return rule(policy, area, n1, n2, m)
        b, a = area.ratio_pair  # a/b = c2/c1: the slower carrier looks faster
        lhs, rhs = a * (n2 + m + 1), b * (n1 + m + 1)
        return (lhs > rhs) + 0.5 * (lhs == rhs)

    monkeypatch.setattr(cli, "sc_carrier1_share", swapped)
    assert run_validate() == 3
    out = capsys.readouterr().out
    assert "[FAIL] jfq-joins-fastest" in out
    assert out.count("[FAIL]") == 1


def test_run_validate_reports_skips(capsys, monkeypatch):
    def tiny_budget_factory():
        raise StateSpaceTooLargeError("budget exceeded for this check")

    monkeypatch.setattr(cli, "_default_generator", tiny_budget_factory)
    rc = run_validate()
    out = capsys.readouterr().out
    # a caflow error from the generator fails both checks that use it
    assert "[FAIL] generator-row-sums" in out
    assert "[FAIL] stationary-solution" in out
    assert rc == 3
