import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_quick_demo_runs():
    # the scripts use only the public API, so a removal from it shows here
    assert runpy.run_path(str(SCRIPTS / "quick_demo.py"))["main"]() == 0


def _bench_pair():
    return runpy.run_path(str(SCRIPTS / "bench_pair.py"))


# base runs with a 2 % interquartile range about a median of 1
_TIGHT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]


def test_bench_pair_verdicts():
    verdict = _bench_pair()["verdict"]
    assert verdict(_TIGHT, [0.8] * 10, "lower", 0.25) == "gain"
    # 8 of 10 pairs won is no gain, however large the difference
    assert verdict(_TIGHT, [0.8] * 8 + [1.1] * 2, "lower", 0.25) == "within bound"
    # ties count for neither side
    assert verdict(_TIGHT, _TIGHT, "lower", 0.25) == "within bound"
    assert verdict(_TIGHT, [1.3] * 10, "lower", 0.25) == "regression"
    assert verdict(_TIGHT, [1.2] * 10, "lower", 0.25) == "within bound"
    assert verdict(_TIGHT, [0.7] * 10, "higher", 0.25) == "regression"
    assert verdict(_TIGHT, [1.2] * 10, "higher", 0.25) == "gain"
    # a base spread wider than the bound cannot show the bound
    wide = [1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0]
    assert verdict(wide, [1.4] * 10, "lower", 0.25) == "unresolved"
    # ... unless every change run reads better than every base run; these
    # medians differ by less than the base IQR, so that is no gain either
    assert verdict(wide, [0.95] * 10, "lower", 0.25) == "within bound"


def test_bench_pair_wins():
    wins = _bench_pair()["wins"]
    assert wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1
