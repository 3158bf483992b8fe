#!/usr/bin/env python3
"""Bring the golden outputs in tests/golden/ that tests/test_golden.py
checks up to date, and print the largest relative change of each file.

Only a file that is new ("new") or whose values moved is written; a file
whose values are all unchanged keeps its old stamp lines, so the files
that moved stand out in the diff.  A file that is no longer produced is
deleted ("deleted").

Usage:
    PYTHONPATH=src python scripts/update_golden.py

Run it only after a change that is meant to move the outputs, and say in
the change by how much they moved.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the test module's import path, as tests/conftest.py sets it
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "perfbench"))

import test_golden  # noqa: E402


def sync(fresh: Path, golden: Path) -> dict[str, str]:
    """Copy each file under fresh that is not under golden or whose values
    moved, delete each file under golden that fresh lacks (and the
    directories that leaves empty), and leave the rest as they are.
    Returns each file's largest relative change, "new" or "deleted"."""
    table = {}
    for name, change in test_golden.largest_changes(fresh, golden).items():
        src, dst = fresh / name, golden / name
        if not src.is_file():
            dst.unlink()
            table[name] = "deleted"
            continue
        table[name] = "new" if not dst.is_file() else format(change, ".3g")
        if change > 0:
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst)
    for d in sorted((p for p in golden.rglob("*") if p.is_dir()), reverse=True):
        if not any(d.iterdir()):
            d.rmdir()
    return table


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "golden"
        test_golden.write_outputs(fresh)
        for name, label in sync(fresh, test_golden.GOLDEN).items():
            print(f"{name}: {label}")
    print(f"updated {test_golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
