import os
from pathlib import Path

import pytest

from graphloops import LoopAlgebra, builtin_graph, perron_frobenius

# pytest finds the package through `pythonpath` in pyproject.toml; the CLI
# subprocesses the tests start find it through PYTHONPATH
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def _alg(name):
    g = builtin_graph(name)
    return LoopAlgebra(g, perron_frobenius(g))


@pytest.fixture(scope="session")
def a2():
    return _alg("a2")


@pytest.fixture(scope="session")
def a3():
    return _alg("a3")


@pytest.fixture(scope="session")
def s4():
    return _alg("s4")


@pytest.fixture(scope="session")
def test_algebras(a2, a3, s4):
    return {"a2": a2, "a3": a3, "s4": s4}
