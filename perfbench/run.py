"""Benchmark of the annealosc package: one workload per run.

    python3 perfbench/run.py --workload sweep-d2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/` of
that checkout.  A run sets up (imports, inputs from the seed, warm-up),
computes the reference values for its checks, then repeats rounds of the
workload's operations until another round would overrun --seconds.  Every
operation's output is checked after it returns, outside the timed region.
The last line of standard output is a JSON object with keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics from wrappers around the layers with --trace 1.  See README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread per process, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def _import_package():
    src = ROOT / "src"
    if not (src / "annealosc" / "__init__.py").is_file():
        sys.exit(f"error: no annealosc package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import annealosc
    if Path(annealosc.__file__).resolve().parent != src / "annealosc":
        sys.exit(f"error: imported annealosc from {annealosc.__file__}, not {src}")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # waited-for child, here the CLI's pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-d2", "cli-tridiag", "analysis-scan"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    _import_package()
    import tracing
    import workloads
    import_s = time.perf_counter() - _T0

    out = HERE / "out"
    # fixed-width name: the CLI's config snapshot records its output path,
    # so cli.bytes_written must not depend on the number of digits of a pid
    work = out / f"{args.workload}-{args.seed}-{os.getpid():08d}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.prepare()
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)
        wl.reference()

        tracer = None
        if args.trace:
            tracer, untrace = tracing.install(work)

        attempted = failed = 0
        correct = True
        reported = set()
        op_times, round_times = [], []
        ops = wl.ops()
        t_start = time.perf_counter()
        while True:
            round_s = 0.0
            for op in ops:
                attempted += 1
                t = time.perf_counter()
                try:
                    result = op.run()
                    raised = None
                except Exception:
                    raised = traceback.format_exc()
                # a raising operation's time counts too, so that a failure
                # cannot make a run look faster
                dt = time.perf_counter() - t
                op_times.append(dt)
                round_s += dt
                if raised:
                    failed += 1
                    correct = False
                    print(f"FAILED {op.label}:\n{raised}", file=sys.stderr)
                    continue
                errors = op.check(result)
                if errors:
                    failed += 1
                    fault = op.known_fault(result) if op.known_fault else ""
                    correct = correct and bool(fault)
                    if fault and op.label in reported:
                        continue
                    reported.add(op.label)
                    tag = f"KNOWN FAULT ({fault})" if fault else "CHECK"
                    print("\n".join(f"{tag} {e}" for e in errors), file=sys.stderr)
            round_times.append(round_s)
            if time.perf_counter() - t_start + round_s > args.seconds:
                break

        rounds = len(round_times)
        if tracer is not None:
            untrace()
            tracer.merge_workers()
            tracer.write(out / f"trace-{args.workload}-seed{args.seed}.npz")
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in tracer.metrics(rounds, wl.pool_workers).items()}
        else:
            metrics = {
                "wall_s": {"value": statistics.median(round_times), "unit": "s"},
                "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }
        print(f"# {args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds, "
              f"{attempted} operations, round wall median "
              f"{statistics.median(round_times):.4f} s, set-up {setup_s:.4f} s "
              f"(imports {import_s:.4f} s, set-ups "
              f"{', '.join(f'{x:.4f}' for x in setups)} s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
