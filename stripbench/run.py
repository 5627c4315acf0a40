"""Benchmark of the stripflow experiment: assemble, compute the gap, step
the strip and fit the decay, on the workloads named in BENCHMARK.json.

    python3 stripbench/run.py --workload linear-h64 --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; the package is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output is
a JSON object holding the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run. Earlier lines print the
environment and every metric with its unit. Result files, trajectories
and spans go to ``.stripbench/`` in the tree.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stripflow" / "__init__.py").is_file():
        print(f"no stripflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # BLAS threads are fixed before numpy loads: at most two, and never
    # more than the processors this process may run on.
    blas_threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = bench.WORKLOADS[args.workload]
    out_dir = ROOT / ".stripbench"
    out_dir.mkdir(exist_ok=True)
    env = bench.environment(ROOT, blas_threads)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics, tally = bench.measure_traced(w, args.seed, args.seconds, out_dir)
        samples = None
    else:
        metrics, samples, tally = bench.measure(w, args.seed, args.seconds, out_dir)
    units = {m["name"]: m["unit"] for m in listed}
    if not args.trace:
        units.update(bench.STAGE_METRICS, failed_frac="1")
    bench.report(w, metrics, samples, tally, env,
                 out_dir / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", units)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
