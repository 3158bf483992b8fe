#!/usr/bin/env python3
"""Run every figure recipe into per-figure subdirectories.

Usage:
    python scripts/run_all_figures.py --out results --threads 4

Figures 4, 6, 7 and 9 run large direct sweeps (20 s to a minute each on 2
cores with --threads 2); everything else finishes in seconds.
"""

import argparse
import sys
import time

from annealosc.cli import main as cli_main

FIGURES = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"]


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
