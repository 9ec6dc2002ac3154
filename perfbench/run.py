"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``.  Every round runs in a fresh child
process, as a command-line call would: the child imports liftforge, builds
the inputs from the seed, runs one round and hands its outputs back.  Rounds
follow one another until ``--seconds`` have passed, and the figures are
medians over them:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (import plus input
  building, sampled by every round child and by set-up-only children run
  between rounds), ``wall_s`` (one round) and ``peak_rss_mib`` (the child's
  peak resident set after its round).
* ``--trace 1``: the per-layer metrics.  Untraced and traced rounds
  alternate; each traced child wraps the public functions before its
  set-up.  ``trace.overhead_s`` is the median traced round minus the median
  untraced one.  The spans are written to ``perfbench/out/``.

The outputs of the first round are checked in this process after the
timing, and every later round must give equal outputs; a failed check
counts as a failed operation.  Exits 2 without a result when
the checkout holds no program.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # a child's set-up counts from here: before liftforge is imported

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES_PER_ROUND = 2  # set-up-only children after each untraced round, spread over the run
CHILD_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "round"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import liftforge and the workloads from this checkout, or exit 2."""
    if not (SRC / "liftforge" / "__init__.py").is_file():
        print(f"no liftforge package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import liftforge

    if Path(liftforge.__file__).resolve().parent != (SRC / "liftforge").resolve():
        print(f"liftforge was imported from {liftforge.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def child(args, wl) -> int:
    """One fresh process: set up, then (for "round") run one round and write
    the timings and outputs to stdout as a pickle."""
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    inp = wl.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.child == "setup":
        print(repr(setup_s))
        return 0
    if tracer is not None:
        tracer.pass_id = "round"
    t = time.perf_counter()
    output = wl.run(inp)
    wall_s = time.perf_counter() - t
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    payload = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mib": rss_mib, "output": output}
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        payload["layers"] = layer_metrics(tracer)
        payload["spans"] = tracer.to_json()
    sys.stdout.buffer.write(pickle.dumps(payload))
    return 0


def spawn(args, mode: str, trace: int) -> bytes:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", str(trace), "--child", mode]
    done = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise SystemExit(f"{mode} child of {args.workload} exited with {done.returncode}")
    return done.stdout


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_program()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child:
        return child(args, wl)

    plain, traced, setup = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        # children write only what this process asked for: a pickle of their round
        plain.append(pickle.loads(spawn(args, "round", 0)))
        if args.trace:
            traced.append(pickle.loads(spawn(args, "round", 1)))
        else:
            setup.append(plain[-1]["setup_s"])
            setup += [float(spawn(args, "setup", 0).split()[-1]) for _ in range(SETUP_PROBES_PER_ROUND)]

    if args.trace:
        wall = statistics.median(r["wall_s"] for r in plain)
        metrics = {name: (statistics.median(r["layers"][name][0] for r in traced), unit)
                   for name, (_, unit) in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced) - wall, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in plain), "MiB"),
        }

    rounds = plain + traced
    first = rounds[0]["output"]
    failed = wl.check(wl.setup(args.seed), first)
    for r in rounds[1:]:
        if r["output"] != first:  # the inputs are the same, so the outputs must be too
            print(f"{args.workload}: check failed: a round gave other outputs than the first", file=sys.stderr)
            failed += wl.ops_per_round
    result = {
        "correct": failed == 0,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    per_round = [
        {"traced": i >= len(plain), **{k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mib")}}
        for i, r in enumerate(rounds)
    ]
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "rounds": per_round}, indent=1) + "\n")
    if traced:
        (OUT / f"{stem}-spans.json").write_text(json.dumps([r["spans"] for r in traced]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
