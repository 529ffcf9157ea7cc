"""caflow benchmark: one workload per run, timed end to end or traced per layer.

Run from the root of a caflow checkout:

    python3 perfbench/run.py --workload sc-sweep --seed 1 --seconds 15 --trace 0

A run times ``setup_s`` as the median import time of caflow and its
numpy/scipy stack over two fresh child processes and this process. It then
runs whole rounds of the workload's operations, at least one, and starts
another only while the run would stay within ``--seconds``. Every round's
answers are checked after the timed section; a failed check makes the run
exit with code 1. The last line of standard output is one JSON object:

* ``--trace 0``: ``setup_s``, ``wall_s`` and ``cpu_s`` (medians over the
  rounds), and ``peak_rss_mib``, this process's peak resident memory up to
  the end of the first round (later rounds add heap fragmentation, and how
  many run depends on the machine's speed).

No workload has a random input (see ``workloads``); ``--seed`` is accepted
and recorded with the outputs.
* ``--trace 1``: the per-layer metrics of ``tracer.PER_LAYER`` per round,
  with ``trace.overhead_s`` the time spent in the recorder itself. The spans
  go to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_CHILDREN = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}

IMPORT_CAFLOW = """\
import time
t0 = time.perf_counter()
import caflow, caflow.ctmc, caflow.sim, caflow.capacity, caflow.cli
print(time.perf_counter() - t0)
"""


def _import_in_child() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CAFLOW], check=True, capture_output=True,
        text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _import_here() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import caflow, caflow.ctmc, caflow.sim, caflow.capacity, caflow.cli  # noqa: E401,F401
    return time.perf_counter() - t0


def _blas_threads() -> dict[str, int]:
    """OpenBLAS thread count of the numpy and scipy builds loaded here."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.with_name(pkg.__name__ + ".libs")
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    found[pkg.__name__] = int(fn())
                    break
    return found


def _machine(nproc: int) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads()}


@dataclass
class Round:
    wall: float
    cpu: float
    attempted: int
    failed: int
    answers: dict
    peak_mib: float  # peak resident memory of the process so far


def _round(workload, out_dir: Path) -> Round:
    operations = workload.operations(out_dir)
    wall = cpu = 0.0
    failed = 0
    answers = {}
    for op in operations:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            answers[op.key] = op.call()
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += op.size
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Round(wall, cpu, sum(op.size for op in operations), failed, answers, peak_mib)


def _rounds(workload, seconds: float, out_dir: Path) -> list[Round]:
    """Whole rounds, at least one; another starts only if it fits in ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(_round(workload, out_dir / f"round{len(rounds)}"))
        if time.perf_counter() - start + rounds[-1].wall > seconds:
            return rounds


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "caflow" / "__init__.py").is_file():
        print(f"perfbench: no caflow sources at {SRC}; run from a caflow checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    setup = [_import_in_child() for _ in range(SETUP_CHILDREN)]
    setup.append(_import_here())

    import tracer
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; valid: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    machine = _machine(nproc)
    print("# machine: " + json.dumps(machine))

    if args.trace:
        with tracer.Tracer() as rec:
            rounds = _rounds(workload, args.seconds, run_dir)
        layers = tracer.per_layer_metrics(rec.spans(), len(rounds), rec.overhead_s / len(rounds))
        metrics = _metric_block(layers, {k: u for k, (u, _) in tracer.PER_LAYER.items()})
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "spans.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "machine": machine,
             "rounds": len(rounds), "round_wall_s": [r.wall for r in rounds],
             "spans": rec.spans()}) + "\n", encoding="utf-8")
    else:
        rounds = _rounds(workload, args.seconds, run_dir)
        metrics = _metric_block({
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall for r in rounds),
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "peak_rss_mib": rounds[0].peak_mib,
        }, END_TO_END)

    failures = []
    for r in rounds:
        failures += workload.check(r.answers)
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(f"# rounds: {len(rounds)}, round wall s: "
          + ", ".join(f"{r.wall:.3f}" for r in rounds))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
