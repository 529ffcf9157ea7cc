"""What a fresh interpreter loads: the package imports scipy only where a solve
or an interval runs. These run in subprocesses, since the test modules
themselves import scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import caflow

SRC = str(Path(caflow.__file__).resolve().parents[1])

LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def fresh(code: str):
    # the last line that ``code`` prints, read as JSON, from a new interpreter
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_importing_the_package_loads_no_scipy():
    code = "import caflow, caflow.ctmc, caflow.sim, caflow.capacity, caflow.cli\n" + LOADED
    assert fresh(code) == []


def test_simulate_and_an_approx_query_load_no_scipy_sparse():
    code = (
        "from caflow.capacity import CapacityQuery, max_sustainable_intensity\n"
        "from caflow.model import CellConfig, TrafficMix\n"
        "from caflow.sim import Stop, simulate\n"
        "cfg = CellConfig.single_area(1, 2)\n"
        "rep = simulate(cfg, TrafficMix(1.5, 0.5, 1.0), stop=Stop(completions=2000))\n"
        "assert any(e.half_width is not None for e in rep.estimates.values())\n"
        "max_sustainable_intensity(CapacityQuery(cfg, 0.5, 0.5, evaluator='approx'))\n"
        + LOADED
    )
    loaded = fresh(code)
    assert "scipy.special" in loaded  # the simulator's intervals ran
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


def test_forking_callers_import_what_their_children_run(tmp_path):
    # the look-ahead's helpers compute intervals and a sweep's workers solve;
    # each caller imports that before its first child starts. The pool is
    # swapped for one that records what is loaded when it opens
    code = (
        "import concurrent.futures\n"
        "from pathlib import Path\n"
        "from caflow import capacity, cli\n"
        "from caflow.model import CellConfig, Policy, TrafficMix\n"
        "seen = {}\n"
        "class Pool:\n"
        "    def __init__(self, max_workers):\n"
        "        seen['sweep'] = {'scipy.sparse.linalg', 'scipy.sparse.csgraph'} <= set(sys.modules)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    def map(self, fn, items):\n"
        "        return map(fn, items)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "capacity._LookAhead(None)\n"
        "seen['look-ahead'] = 'scipy.special' in sys.modules\n"
        "spec = cli.RunSpec(CellConfig.single_area(1, 2), TrafficMix(1.0, 0.5, 1.0), Policy.JFQ)\n"
        f"cli.run_sweep(spec, cli.SweepGrid((0.3,), (0.5,)), Path({str(tmp_path)!r}), workers=2)\n"
        "print(json.dumps(seen))"
    )
    assert fresh(code) == {"look-ahead": True, "sweep": True}


def test_a_solve_scopes_every_blas_build_mapped_after_it():
    # the scope reads the mapped builds on its first entry, before the solve
    # imports its sparse linear algebra, so it must import that first
    code = (
        "from caflow import ctmc\n"
        "from caflow.model import CellConfig, Policy, TrafficMix\n"
        "ctmc.solve_model(CellConfig.single_area(1, 2), TrafficMix(2.1, 0.5, 1.0), Policy.JFQ)\n"
        "print(json.dumps([len(ctmc._openblas_builds()),"
        " len(ctmc._openblas_builds.__wrapped__())]))"
    )
    scoped, mapped = fresh(code)
    assert scoped == mapped
