#!/usr/bin/env python3
"""Run every figure recipe into per-figure subdirectories.

Usage:
    python scripts/run_all_figures.py --out results --threads 4

Figures 4, 6, 7 and 9 run large direct sweeps: one run each at --threads 1
(Python 3.11, 2 vCPUs, one BLAS thread) took fig4 20.1 s, fig6 20.0 s,
fig7 42.7 s and fig9 10.2 s; every other figure finishes in under a second.
--threads spreads a recipe's sub-configs over worker processes, so it can
shorten only fig3, fig4 and fig10, the recipes with more than one.
"""

import argparse
import sys
import time

from annealosc.cli import FIGURES, main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output root directory")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    for name in FIGURES:
        t0 = time.perf_counter()
        rc = cli_main(["--figure", name, "--out", f"{args.out}/{name}",
                       "--threads", str(args.threads)])
        print(f"{name}: exit {rc} ({time.perf_counter() - t0:.1f} s)")
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
