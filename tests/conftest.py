import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# perfbench/reference.py, the independent dense reference the tests check
# the package against, is imported as `reference`
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from annealosc import ModelSpec, build_model, gap_trace, locate_crossing


@pytest.fixture(scope="session")
def nobarrier1():
    return build_model(ModelSpec(kind="nobarrier", n=1, mu=1.0))


@pytest.fixture(scope="session")
def nobarrier1_trace(nobarrier1):
    return gap_trace(nobarrier1, n_points=401)


@pytest.fixture(scope="session")
def barrier84():
    return build_model(ModelSpec(kind="barrier", n=84, mu=1.0, alpha=0.3, beta=0.5))


@pytest.fixture(scope="session")
def barrier84_trace(barrier84):
    return gap_trace(barrier84, n_points=201)


@pytest.fixture(scope="session")
def barrier84_crossing(barrier84_trace):
    return locate_crossing(barrier84_trace)


@pytest.fixture(scope="session")
def cubic30():
    return build_model(ModelSpec(kind="cubic", n=30))


@pytest.fixture(scope="session")
def cubic30_trace(cubic30):
    return gap_trace(cubic30, n_points=201)


@pytest.fixture(scope="session")
def grover64():
    return build_model(ModelSpec(kind="grover", big_n=64, big_m=1))
