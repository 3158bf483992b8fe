#!/usr/bin/env python3
"""Rewrite the golden outputs in tests/golden/ that tests/test_golden.py
checks, and print the largest relative change of each file ("new" for a
file that was not there).

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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "golden"
        test_golden.write_outputs(fresh)
        if test_golden.GOLDEN.is_dir():
            for name, change in test_golden.largest_changes(
                    fresh, test_golden.GOLDEN).items():
                new = not (test_golden.GOLDEN / name).is_file()
                print(f"{name}: {'new' if new else format(change, '.3g')}")
            shutil.rmtree(test_golden.GOLDEN)
        shutil.copytree(fresh, test_golden.GOLDEN)
    print(f"wrote {test_golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
