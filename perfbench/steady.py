"""Steadiness of the benchmark: run workloads repeatedly and report spreads.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--trace 0|1]

Each run is a fresh ``run.py`` process with its own seed (1, 2, ..., runs)
and the run length from BENCHMARK.json.  For every
metric of every workload the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median, next to the metric's bound, and then the
share of failed operations.  The raw results go to
``perfbench/out/steady-<workload>-trace<t>.json``.
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
OUT = HERE / "out"
RUN_TIMEOUT_S = 900  # the first run in a fresh checkout may be slow


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else float("nan"))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    status = 0
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{name} seed {seed}: exit {done.returncode}")
                status = 1
                continue
            results.append({"seed": seed, **json.loads(done.stdout.strip().splitlines()[-1])})
        (OUT / f"steady-{name}-trace{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")
        if len(results) < 2:
            continue
        print(f"{name}: {len(results)} runs")
        for metric, meta in results[0]["metrics"].items():
            med, q1, q3, sp = spread([r["metrics"][metric]["value"] for r in results])
            bound = bounds.get(metric)
            note = "" if bound is None else f"  bound {bound:.3f}  {'ok' if sp <= bound else 'OVER'}"
            print(f"  {metric:48s} {med:14.6g} {meta['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f}{note}")
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"  failed share {sorted(shares)}  attempted {[r['attempted'] for r in results]}  correct {correct}")
    return status


if __name__ == "__main__":
    sys.exit(main())
