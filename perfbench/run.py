#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload cora-tf --seed 1 --seconds 20 --trace 0

Rounds of the workload (see pipeline.py) repeat until --seconds have
passed and at least two rounds are done; a round is never cut. Each
end-to-end time is the median over the rounds. The last line
of standard output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics from the spans with --trace 1. Results
and traces are also written under perfbench/results/.
"""

import os

# One process and one thread: walk and SGNS run with workers=1, and the
# BLAS pool is pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pipeline  # noqa: E402
from tracing import Tracer  # noqa: E402

# A run's times are medians over at least this many rounds.
MIN_ROUNDS = 2

RESULTS = HERE / "results"
WORK = HERE / "work"


def make_inputs(wl: pipeline.Workload, seed: int, scratch: Path) -> Path:
    """Input directory of the workload; anything generated is written by a
    child process before timing starts."""
    script = [sys.executable, str(HERE / "inputs.py")]
    if wl.er is not None:
        out = scratch / "inputs"
        subprocess.run(script + ["er", str(out), str(seed), *map(str, wl.er)], check=True)
        return out
    shipped = ROOT / "data" / wl.dataset
    if (shipped / "edges.txt").exists():
        return shipped
    subprocess.run(script + ["dataset", str(WORK / "data"), wl.dataset], check=True)
    return WORK / "data" / wl.dataset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = pipeline.WORKLOADS[args.workload]

    scratch = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        inp = pipeline.Inputs.from_dir(make_inputs(wl, args.seed, scratch))
        tracer = Tracer(enabled=bool(args.trace))
        rec = pipeline.Recorder(tracer)
        rounds = []
        t0 = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
            before = rec.attempted
            try:
                with tracer.span("round"):
                    rounds.append(pipeline.run_round(wl, inp, args.seed, rec, scratch))
            except Exception:
                traceback.print_exc()
                rec.failed += pipeline.OPS_PER_ROUND - (rec.attempted - before)
                rec.attempted = before + pipeline.OPS_PER_ROUND
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not rounds:
        print(f"{wl.name}: no round completed", file=sys.stderr)
        return 1

    for problem in rec.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    e2e = pipeline.end_to_end(rounds)
    metrics = pipeline.per_layer(tracer, inp.facts) if args.trace else e2e
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-s{args.seed}-t{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".trace.json"))
    result = {
        "correct": not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as f:
        json.dump({**result, "rounds": rounds,
                   "end_to_end": {k: v for k, (v, _) in e2e.items()}}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
