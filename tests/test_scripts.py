import runpy
from pathlib import Path

import pytest

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


def test_bench_pair_reports_a_failed_run(tmp_path):
    # a run that exits non-zero ends the script with its side, seed, exit
    # code and stderr, not a CalledProcessError without them
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('marker-7f3a', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(SystemExit) as exc:
        _bench_pair()["run"](tmp_path, "base", "cli-tridiag", 5, 1.0)
    message = str(exc.value.code)
    assert "marker-7f3a" in message
    assert message.startswith("base run with seed 5 exited 3")


def test_update_golden_writes_only_new_or_moved_files(tmp_path):
    sync = runpy.run_path(str(SCRIPTS / "update_golden.py"))["sync"]
    fresh, golden = tmp_path / "fresh", tmp_path / "golden"
    files = {  # name: (fresh content, golden content), None for absent
        "same.csv": ("# version=0.2\ntau,p\n20,0.5\n", "# version=0.1\ntau,p\n20,0.5\n"),
        "fig/moved.json": ('{"version": "0.2", "p": 0.25}', '{"version": "0.1", "p": 0.5}'),
        "added.csv": ("# version=0.2\ntau,p\n30,0.1\n", None),
        "gone/old.csv": (None, "# version=0.1\ntau,p\n40,0.2\n"),
    }
    for name, texts in files.items():
        for root, text in zip((fresh, golden), texts):
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text)
    assert sync(fresh, golden) == {"added.csv": "new", "fig/moved.json": "0.5",
                                   "gone/old.csv": "deleted", "same.csv": "0"}
    # the unchanged file keeps its old stamp; the others match fresh
    assert (golden / "same.csv").read_text() == files["same.csv"][1]
    for name in ("fig/moved.json", "added.csv"):
        assert (golden / name).read_text() == files[name][0]
    assert not (golden / "gone").exists()
    # a missing golden directory is written whole
    assert set(sync(fresh, tmp_path / "none").values()) == {"new"}
    assert (tmp_path / "none" / "same.csv").read_text() == files["same.csv"][0]
