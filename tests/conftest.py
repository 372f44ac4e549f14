import math

import numpy as np
import pytest

import qwalk1d.engine as engine
from qwalk1d.coin import hadamard_coin, make_qubit


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def hadamard():
    return hadamard_coin()


@pytest.fixture
def symmetric_qubit():
    return make_qubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))


@pytest.fixture
def right_qubit():
    return make_qubit(0.0, 1.0)


@pytest.fixture
def left_qubit():
    return make_qubit(1.0, 0.0)


@pytest.fixture
def times_of_cells():
    """Distinct times whose ``n + 1`` sum to ``cells``: the 50 times up to the
    time cap, then one small time for the rest."""

    def times(cells):
        top = list(range(engine.LAW_TIME_CAP - 49, engine.LAW_TIME_CAP + 1))
        return top + [cells - sum(n + 1 for n in top) - 1]

    return times


@pytest.fixture
def fieldless_sweeps(monkeypatch):
    """``engine.sweep`` made to fail on the first field it yields, so that a
    sweep must be refused before it forms one."""
    true_sweep = engine.sweep

    def no_field(field):
        raise AssertionError("a refused sweep must form no field")

    monkeypatch.setattr(engine, "sweep", lambda *args: map(no_field, true_sweep(*args)))


@pytest.fixture
def uniform_laws(monkeypatch):
    """``engine.distribution`` replaced by a uniform law of the same time, which
    is quick to build even at the time cap."""
    monkeypatch.setattr(
        engine, "distribution", lambda coin, qubit, n: engine.Distribution(n=n, probs=np.full(n + 1, 1.0 / (n + 1)))
    )
