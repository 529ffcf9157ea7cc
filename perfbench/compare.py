"""Run two sets of benchmark runs and compare them.

From the root of a checkout:

    python3 perfbench/compare.py --runs 10                 # two sets, this checkout
    python3 perfbench/compare.py --runs 10 --against ../parent   # this vs parent

Both sets run every workload of BENCHMARK.json on seeds 1 to ``--runs``, in
alternating order; without ``--against`` both are this checkout, with it set
A is this checkout and set B the other one. For every workload and end-to-end
metric it prints each set's median and quartile spread ((Q3 - Q1) / median),
and whether B's median is worse than A's by more than the bound in
BENCHMARK.json. Each set's spread must stay within the bound too, and both
sets must fail the same share of operations. Exits with code 1 if any of
that does not hold.
The raw results go to ``perfbench/.out/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable if c == "python3" else c for c in command]
    out = subprocess.run(
        argv + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {root} exited {out.returncode}:\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--against", type=Path, help="root of a second checkout (set B)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots = {"A": ROOT, "B": args.against.resolve() if args.against else ROOT}
    seeds = list(range(1, args.runs + 1))

    results = {}
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        runs = {"A": [], "B": []}
        for i, seed in enumerate(seeds):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                result = _run(roots[side], bench["command"], name, seed, bench["run_seconds"])
                runs[side].append(result)
                print(f"{name} {side} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        results[name] = runs
        shares = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for side, rs in runs.items()}
        correct = all(r["correct"] for rs in runs.values() for r in rs)
        print(f"\n{name}: failed share A {shares['A']:.6g}, B {shares['B']:.6g}, "
              f"all correct: {correct}")
        ok &= shares["A"] == shares["B"] and correct
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            stats = {side: _summary([r["metrics"][key]["value"] for r in rs])
                     for side, rs in runs.items()}
            (med_a, spread_a), (med_b, spread_b) = stats["A"], stats["B"]
            change = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                change = -change
            steady = max(spread_a, spread_b) <= bound
            verdict = "ok" if steady and change <= bound else "FAIL"
            ok &= verdict == "ok"
            print(f"  {key:14s} A {med_a:10.4f} (spread {spread_a:6.3f})  "
                  f"B {med_b:10.4f} (spread {spread_b:6.3f})  "
                  f"B worse by {change:+7.3f} / bound {bound}  {verdict}")

    out = HERE / ".out" / "compare.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "roots": {k: str(v) for k, v in roots.items()},
                               "results": results}, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
