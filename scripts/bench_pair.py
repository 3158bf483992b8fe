#!/usr/bin/env python3
"""Paired benchmark runs of the working tree against a base revision.

    python3 scripts/bench_pair.py --workload cli-tridiag --pairs 10 --label lattice

Exports the base revision (default HEAD~) with `git archive` into a
temporary directory and runs `perfbench/run.py` there and in the working
tree, in pairs whose order alternates, with the same seed within a pair and
the run length of BENCHMARK.json.  Writes BENCH_<label>.json at the
repository root: for every end-to-end metric, each side's median and
quartiles, every run's value and in how many pairs the working tree was
better; then the correctness of every run and a note on the machine.  On
stderr it then prints each metric's two medians, their relative change and
the pairs won, and warns when a run was incorrect or had failed operations.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def summary(xs: list) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--base", default="HEAD~")
    ap.add_argument("--pairs", type=int, default=10, help="at least 2")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"base": [], "change": []}
    base, head = (git("rev-parse", "--short", rev).decode().strip() for rev in (args.base, "HEAD"))
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=git("archive", base), check=True)
        trees = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            for side in ("base", "change")[::1 if i % 2 == 0 else -1]:
                sides[side].append(run(trees[side], args.workload, args.seed + i, seconds))
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{s} wall_s {sides[s][-1]['metrics']['wall_s']['value']:.4f}" for s in sides),
                file=sys.stderr, flush=True)
    metrics = {}
    for name, sense in better.items():
        runs = {s: [r["metrics"][name]["value"] for r in sides[s]] for s in sides}
        wins = sum((c < b) if sense == "lower" else (c > b)
                   for b, c in zip(runs["base"], runs["change"]))
        metrics[name] = {"unit": sides["base"][0]["metrics"][name]["unit"], "better": sense,
                         "base": summary(runs["base"]), "change": summary(runs["change"]),
                         "change_won": wins, "pairs": args.pairs, "runs": runs}
    cpuinfo = Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").exists() else ""
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                if ln.startswith("model name")), platform.machine())
    report = {
        "workload": args.workload, "base": base, "change": f"working tree at {head}",
        "seconds": seconds, "seeds": [args.seed, args.seed + args.pairs - 1], "metrics": metrics,
        "all_correct": all(r["correct"] and not r["failed"] for s in sides.values() for r in s),
        "machine": {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"), "blas_threads": 1,
                    "platform": platform.platform(),
                    "note": "alternating pairs, one run at a time, on a shared machine"}}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    for name, m in metrics.items():
        b, c = m["base"]["median"], m["change"]["median"]
        rel = f"{(c - b) / b:+.1%}" if b else "n/a"
        print(f"{name}: base {b:.4g} -> change {c:.4g} {m['unit']} ({rel}), "
              f"change better in {m['change_won']}/{m['pairs']} pairs", file=sys.stderr)
    if not report["all_correct"]:
        print("warning: a run was incorrect or had failed operations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
