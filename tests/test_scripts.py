import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_quick_demo_runs():
    # the scripts use only the public API, so a removal from it shows here
    assert runpy.run_path(str(SCRIPTS / "quick_demo.py"))["main"]() == 0
