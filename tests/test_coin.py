import math

import numpy as np
import pytest

from qwalk1d.coin import (
    BRANCH_A_ZERO,
    BRANCH_B_ZERO,
    BRANCH_GENERIC,
    Letter,
    Qubit,
    basis_decompose,
    coin_from_angles,
    hadamard_coin,
    letter_matrix,
    letter_product,
    make_qubit,
    random_qubit,
    random_unitary_coin,
    validate_coin,
)
from qwalk1d.errors import DegenerateCoinError, NotUnitaryError

LETTERS = (Letter.P, Letter.Q, Letter.R, Letter.S)


def test_validate_hadamard():
    s = 1.0 / math.sqrt(2.0)
    coin = validate_coin([[s, s], [s, -s]])
    assert coin.branch == BRANCH_GENERIC
    assert coin.delta == pytest.approx(-1.0, abs=1e-12)


def test_validate_identity_is_b_zero_branch():
    coin = validate_coin([[1, 0], [0, 1]])
    assert coin.branch == BRANCH_B_ZERO


def test_validate_antidiagonal_is_a_zero_branch():
    coin = validate_coin([[0, 1], [1, 0]])
    assert coin.branch == BRANCH_A_ZERO


def test_validate_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        validate_coin([[1, 1], [1, 1]])


def test_validate_rejects_non_finite():
    with pytest.raises(NotUnitaryError):
        validate_coin([[math.inf, 0], [0, 1]])


@pytest.mark.parametrize("entry", [math.nan, 1e200, complex(0.0, -1e200)])
def test_validate_rejects_out_of_range_entries(entry):
    # squaring 1e200 overflows a float; the range check comes first
    with pytest.raises(NotUnitaryError):
        validate_coin([[entry, 0], [0, 1]])


def test_make_qubit_huge_and_non_finite_amplitudes():
    q = make_qubit(1e308, 1e308j)
    assert (q.alpha, q.beta) == pytest.approx((1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)))
    for alpha in (math.nan, math.inf, complex(1.0, math.nan)):
        with pytest.raises(ValueError):
            make_qubit(alpha, 1.0)


def test_qubit_normalization_enforced():
    with pytest.raises(ValueError):
        Qubit(alpha=1.0, beta=1.0)
    q = make_qubit(1.0, 1.0)
    assert abs(q.alpha) == pytest.approx(1.0 / math.sqrt(2.0))


def test_letter_matrices_hadamard():
    coin = hadamard_coin()
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(letter_matrix(coin, Letter.P), [[s, s], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(letter_matrix(coin, Letter.S), [[0, 0], [s, s]], atol=1e-15)


def test_letters_sum_to_coin(rng):
    for _ in range(10):
        coin = random_unitary_coin(rng)
        total = letter_matrix(coin, Letter.P) + letter_matrix(coin, Letter.Q)
        np.testing.assert_allclose(total, coin.matrix, atol=1e-15)


def test_product_table_examples():
    coin = random_unitary_coin(np.random.default_rng(5))
    assert letter_product(coin, Letter.P, Letter.Q) == (coin.b, Letter.R)
    assert letter_product(coin, Letter.P, Letter.P) == (coin.a, Letter.P)
    assert letter_product(coin, Letter.Q, Letter.Q) == (coin.d, Letter.Q)


def test_product_table_closure_random_coins(rng):
    for _ in range(100):
        coin = random_unitary_coin(rng, corner_margin=0.0)
        for x in LETTERS:
            for y in LETTERS:
                scalar, letter = letter_product(coin, x, y)
                lhs = letter_matrix(coin, x) @ letter_matrix(coin, y)
                rhs = scalar * letter_matrix(coin, letter)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_projector_relations(rng):
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    for _ in range(25):
        coin = random_unitary_coin(rng, corner_margin=0.0)
        p = letter_matrix(coin, Letter.P)
        q = letter_matrix(coin, Letter.Q)
        np.testing.assert_allclose(p @ p.conj().T + q @ q.conj().T, eye, atol=1e-12)
        np.testing.assert_allclose(p.conj().T @ p + q.conj().T @ q, eye, atol=1e-12)
        for m in (p @ q.conj().T, q @ p.conj().T, q.conj().T @ p, p.conj().T @ q):
            np.testing.assert_allclose(m, zero, atol=1e-12)


def test_basis_orthonormal(rng):
    coin = random_unitary_coin(rng)
    for x in LETTERS:
        coords = basis_decompose(coin, letter_matrix(coin, x))
        expected = [1.0 if y == x else 0.0 for y in LETTERS]
        np.testing.assert_allclose(coords, expected, atol=1e-12)


def test_decompose_coin_is_p_plus_q(rng):
    coin = random_unitary_coin(rng)
    coords = basis_decompose(coin, coin.matrix)
    np.testing.assert_allclose(coords, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_decompose_round_trip_random_matrices(rng):
    for _ in range(25):
        coin = random_unitary_coin(rng)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        p, q, r, s = basis_decompose(coin, m)
        rebuilt = (
            p * letter_matrix(coin, Letter.P)
            + q * letter_matrix(coin, Letter.Q)
            + r * letter_matrix(coin, Letter.R)
            + s * letter_matrix(coin, Letter.S)
        )
        assert np.max(np.abs(rebuilt - m)) < 1e-10


def test_decompose_path_sum_matrix():
    from qwalk1d.paths import StepCount, path_sum_exhaustive

    coin = hadamard_coin()
    word_sum = path_sum_exhaustive(coin, StepCount(l=3, m=1))
    p, q, r, s = basis_decompose(coin, word_sum)
    a, b, c = coin.a, coin.b, coin.c
    np.testing.assert_allclose(
        [p, q, r, s], [2 * a * b * c, 0.0, a * a * b, a * a * c], atol=1e-12
    )


def test_decompose_refuses_degenerate_coin():
    coin = validate_coin([[1, 0], [0, 1]])
    with pytest.raises(DegenerateCoinError):
        basis_decompose(coin, np.eye(2))


def test_coin_from_angles_exactly_unitary(rng):
    for _ in range(50):
        theta, pa, pb, pd = rng.uniform(0, 2 * math.pi, size=4)
        coin = coin_from_angles(theta, pa, pb, pd)
        u = coin.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-15


def test_random_qubit_normalized(rng):
    for _ in range(20):
        q = random_qubit(rng)
        assert abs(q.alpha) ** 2 + abs(q.beta) ** 2 == pytest.approx(1.0, abs=1e-14)
