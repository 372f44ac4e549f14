import math

import numpy as np
import pytest

from qwalk1d.coin import Coin, Letter, hadamard_coin, letter_matrix, make_qubit, random_qubit, random_unitary_coin, validate_coin
from qwalk1d.engine import (
    dense_step_matrix,
    dense_unitary_check,
    distribution,
    evolve,
    initial_field,
    laws,
    step,
)
from qwalk1d.errors import CapExceededError
from qwalk1d.paths import StepCount, path_sum


def test_initial_field(symmetric_qubit):
    field = initial_field(symmetric_qubit)
    assert field.n == 0
    np.testing.assert_allclose(field.amplitude(0), symmetric_qubit.vector)
    assert field.total_probability() == pytest.approx(1.0, abs=1e-14)


def test_single_step_splits_by_letters(rng):
    coin = random_unitary_coin(rng)
    qubit = random_qubit(rng)
    field = step(coin, initial_field(qubit))
    p = letter_matrix(coin, Letter.P)
    q = letter_matrix(coin, Letter.Q)
    np.testing.assert_allclose(field.amplitude(-1), p @ qubit.vector, atol=1e-14)
    np.testing.assert_allclose(field.amplitude(1), q @ qubit.vector, atol=1e-14)


def test_two_steps_center_is_interference_term(rng):
    coin = random_unitary_coin(rng)
    qubit = random_qubit(rng)
    field = evolve(coin, qubit, 2)
    p = letter_matrix(coin, Letter.P)
    q = letter_matrix(coin, Letter.Q)
    np.testing.assert_allclose(field.amplitude(0), (p @ q + q @ p) @ qubit.vector, atol=1e-13)


def test_probability_preserved(rng):
    coin = random_unitary_coin(rng)
    qubit = random_qubit(rng)
    for n in (1, 7, 40):
        assert distribution(coin, qubit, n).total() == pytest.approx(1.0, abs=1e-10)


def test_time_zero_distribution(symmetric_qubit):
    dist = distribution(hadamard_coin(), symmetric_qubit, 0)
    assert list(dist.positions) == [0]
    assert dist.probability(0) == pytest.approx(1.0, abs=1e-15)


def test_hadamard_symmetric_n4(symmetric_qubit):
    dist = distribution(hadamard_coin(), symmetric_qubit, 4)
    expected = {-4: 1 / 16, -2: 6 / 16, 0: 2 / 16, 2: 6 / 16, 4: 1 / 16}
    for k, p in expected.items():
        assert dist.probability(k) == pytest.approx(p, abs=1e-12)


def test_b_zero_coin_ballistic():
    coin = validate_coin([[1, 0], [0, 1]])
    qubit = make_qubit(0.6, 0.8j)
    dist = distribution(coin, qubit, 5)
    assert dist.probability(-5) == pytest.approx(0.36, abs=1e-12)
    assert dist.probability(5) == pytest.approx(0.64, abs=1e-12)
    assert sum(abs(dist.probability(k)) for k in (-3, -1, 1, 3)) < 1e-15


def test_parity_positions_are_zero(rng):
    coin = random_unitary_coin(rng)
    qubit = random_qubit(rng)
    dist = distribution(coin, qubit, 7)
    for k in range(-7, 8, 2):
        assert dist.probability(k + 1) == 0.0


def test_matches_path_sums(rng):
    for _ in range(5):
        coin = random_unitary_coin(rng)
        qubit = random_qubit(rng)
        for n in range(1, 13):
            dist = distribution(coin, qubit, n)
            for k in dist.positions:
                sc = StepCount.from_time_position(n, int(k))
                amp = path_sum(coin, sc) @ qubit.vector
                assert abs(dist.probability(int(k)) - np.linalg.norm(amp) ** 2) < 1e-10


def test_laws_yield_each_distinct_time_once_in_order(rng):
    coin, qubit = random_unitary_coin(rng), random_qubit(rng)
    out = list(laws(coin, qubit, [5, 2, 5]))
    assert [dist.n for dist in out] == [2, 5]
    for dist in out:
        assert np.array_equal(dist.probs, distribution(coin, qubit, dist.n).probs)
    assert list(laws(coin, qubit, [])) == []


def test_distribution_sums_match_direct_numpy_sums(rng):
    dist = distribution(random_unitary_coin(rng), random_qubit(rng), 30)
    ks = dist.positions.astype(float)
    for xi in (-2.5, 0.0, 0.7, math.pi):
        direct = complex(np.sum(np.exp(1j * xi * ks) * dist.probs))
        assert abs(dist.characteristic_function(xi) - direct) < 1e-14
    for m in (1, 2, 3, 6):
        assert dist.moment(m) == pytest.approx(float(np.dot(ks**m, dist.probs)), rel=1e-13, abs=1e-13)
    assert dist.mean() == dist.moment(1)


def test_dense_matrix_is_unitary(rng):
    assert dense_unitary_check(hadamard_coin(), 2) < 1e-14
    assert dense_unitary_check(random_unitary_coin(rng), 5) < 1e-13


def test_dense_check_flags_perturbed_coin():
    coin = hadamard_coin()
    broken = Coin(a=coin.a * 1.01, b=coin.b, c=coin.c, d=coin.d, delta=coin.delta)
    assert dense_unitary_check(broken, 3) > 1e-3


def test_dense_cap():
    with pytest.raises(CapExceededError):
        dense_step_matrix(hadamard_coin(), 65)


def test_dense_evolution_matches_banded(rng):
    half_width = 6
    coin = random_unitary_coin(rng)
    qubit = random_qubit(rng)
    u = dense_step_matrix(coin, half_width)
    cells = 2 * half_width + 1
    psi = np.zeros(2 * cells, dtype=complex)
    psi[2 * half_width : 2 * half_width + 2] = qubit.vector  # origin cell
    field = initial_field(qubit)
    for _ in range(half_width):
        psi = u @ psi
        field = step(coin, field)
        for k in range(-field.n, field.n + 1):
            cell = k + half_width
            np.testing.assert_allclose(
                psi[2 * cell : 2 * cell + 2], field.amplitude(k), atol=1e-12
            )
