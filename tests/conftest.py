import math
import os
from pathlib import Path

import pytest

import invorbit as iv
from invorbit.spaces import table_admitted_k_values

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cli_env():
    """Environment for `python -m invorbit` subprocesses, with src/ importable."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}


@pytest.fixture
def split_traces(monkeypatch):
    """Have `write_trace_csv` fork its second process for a trace of one
    computed row or more, as it does from TRACE_SPLIT_ROWS on when two
    CPUs are usable.  Returns the list of the pids it forks."""
    if not hasattr(os, "fork"):
        pytest.skip("the two-process trace writer needs os.fork")
    from invorbit import report

    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(report, "TRACE_SPLIT_ROWS", 1)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


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


class _TaggedFloat(float):
    """A float that carries a tag beside its value."""

    def __new__(cls, value, tag):
        point = super().__new__(cls, value)
        point.tag = tag
        return point


@pytest.fixture
def tagged_float():
    """A float subclass whose instances carry state: two of equal value may
    be different points to a distance that reads their `tag`."""
    return _TaggedFloat


@pytest.fixture
def edge_values():
    """Distances at the edges of the slack tests: nan, infinities, signed
    zeros, subnormals, negatives, and neighbours one ulp apart."""
    return (
        math.nan,
        math.inf,
        -math.inf,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        2.2250738585072014e-308,
        1.0,
        1.0 + 2**-52,
        1.5,
        2.0,
        -1.0,
        1e308,
    )


@pytest.fixture
def admission_as():
    """The K that per-K `check_axioms` passes on the table `rows` as a
    space of `kind`, read from the b-metric-like admission of the sweep: a
    metric-like space is a b-metric-like one at K = 1, and a b-metric one
    is a b-metric-like one without a D1 violation.  A partial metric has
    no such reading."""

    def read(rows, k_values, kind):
        if kind is iv.SpaceKind.METRIC_LIKE:
            return list(k_values) if table_admitted_k_values(rows, [1.0]) else []
        if kind is iv.SpaceKind.B_METRIC:
            labels = tuple(range(len(rows)))
            space = iv.Space(iv.FiniteCarrier(labels), lambda x, y: rows[x][y], 1.0, kind)
            report = iv.check_axioms(space, iv.Exhaustive())
            if any(v.axiom_id == "D1" for v in report.violations):
                return []
        return table_admitted_k_values(rows, k_values)

    return read
