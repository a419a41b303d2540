import os
from pathlib import Path

import pytest

import invorbit as iv

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_env():
    """Environment for `python -m invorbit` subprocesses, with src/ importable."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}


def make_pair(t, s, t_label="custom", s_label="custom"):
    """Assemble a MapPair from two (forward, preimage) tuples."""
    return iv.MapPair(t[0], s[0], t[1], s[1], t_label, s_label)


@pytest.fixture
def sqrt_square():
    return iv.sqrt_square_space()


@pytest.fixture
def two_point():
    return iv.two_point_sigma_space()


@pytest.fixture
def nine_identity():
    """T: x -> 9x against S = identity."""
    return make_pair(iv.linear_map(9.0), iv.identity_map(), "linear", "identity")


@pytest.fixture
def quadruple_pair():
    """T = S: x -> 4x."""
    f, p = iv.linear_map(4.0)
    return iv.MapPair(f, f, p, p, "linear", "linear")


@pytest.fixture
def identity_pair():
    f, p = iv.identity_map()
    return iv.MapPair(f, f, p, p, "identity", "identity")
