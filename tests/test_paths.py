import cmath
import math
from itertools import combinations

import numpy as np
import pytest

import qwalk1d.paths as paths
from qwalk1d.coin import (
    Letter,
    coin_from_angles,
    hadamard_coin,
    letter_matrix,
    random_qubit,
    random_unitary_coin,
    validate_coin,
)
from qwalk1d.engine import evolve
from qwalk1d.errors import CapExceededError, DegenerateCoinError, ParityViolationError
from qwalk1d.paths import (
    StepCount,
    closed_form_coefficients,
    cluster_count,
    path_sum,
    path_sum_coefficients,
    path_sum_exhaustive,
)


def brute_force_sum(coin, l, m):
    """Independent re-enumeration: place the l left-letters by index choice."""
    p = letter_matrix(coin, Letter.P)
    q = letter_matrix(coin, Letter.Q)
    n = l + m
    total = np.zeros((2, 2), dtype=complex)
    for left_slots in combinations(range(n), l):
        word = np.eye(2, dtype=complex)
        for j in range(n):
            word = word @ (p if j in left_slots else q)
        total += word
    return total


class TestStepCount:
    def test_derived_fields(self):
        sc = StepCount(l=3, m=1)
        assert (sc.n, sc.k) == (4, -2)

    def test_from_time_position(self):
        assert StepCount.from_time_position(4, -2) == StepCount(l=3, m=1)

    def test_parity_guard(self):
        with pytest.raises(ParityViolationError):
            StepCount.from_time_position(4, 1)
        with pytest.raises(ParityViolationError):
            StepCount.from_time_position(4, 6)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            StepCount(l=-1, m=2)


class TestClusterCount:
    def test_small_cases(self):
        assert cluster_count(1, 3, 1) == 2
        assert cluster_count(1, 2, 2) == 1
        assert cluster_count(1, 1, 1) == 0

    def test_matches_direct_composition_count(self):
        def compositions(total, parts):
            if parts == 0:
                return 1 if total == 0 else 0
            if total < parts:
                return 0
            return math.comb(total - 1, parts - 1)

        for gamma in range(1, 8):
            for l in range(0, 11):
                for m in range(0, 11):
                    expected = compositions(l, gamma + 1) * compositions(m, gamma)
                    assert cluster_count(gamma, l, m) == expected

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            cluster_count(0, 3, 3)


class TestExhaustive:
    def test_matches_independent_enumeration(self, rng):
        coins = [
            random_unitary_coin(rng),
            random_unitary_coin(rng),
            hadamard_coin(),
            validate_coin([[0, 1], [1, 0]]),
            validate_coin([[1j, 0], [0, cmath.exp(0.3j)]]),
        ]
        for coin in coins:
            for n in range(11):
                for l in range(n + 1):
                    got = path_sum_exhaustive(coin, StepCount(l=l, m=n - l))
                    np.testing.assert_allclose(got, brute_force_sum(coin, l, n - l), rtol=0, atol=1e-14)

    def test_pure_left_word(self, rng):
        coin = random_unitary_coin(rng)
        got = path_sum_exhaustive(coin, StepCount(l=4, m=0))
        np.testing.assert_allclose(got, coin.a**3 * letter_matrix(coin, Letter.P), atol=1e-13)

    def test_single_right_word(self, rng):
        coin = random_unitary_coin(rng)
        got = path_sum_exhaustive(coin, StepCount(l=0, m=1))
        np.testing.assert_allclose(got, letter_matrix(coin, Letter.Q), atol=1e-15)

    def test_returns_a_fresh_array(self):
        sc = StepCount(l=3, m=2)
        first = path_sum_exhaustive(hadamard_coin(), sc)
        assert first.flags.writeable
        expected = first.copy()
        first[:] = 7.0
        np.testing.assert_array_equal(path_sum_exhaustive(hadamard_coin(), sc), expected)

    def test_cap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(paths, "_exact_word_sums", lambda *args: calls.append(args))
        with pytest.raises(CapExceededError):
            path_sum_exhaustive(hadamard_coin(), StepCount(l=8, m=8))
        assert calls == []


class TestPathSumsByTime:
    def test_rows_are_the_per_entry_sums_bit_for_bit(self, rng):
        coins = [hadamard_coin(), random_unitary_coin(rng), random_unitary_coin(rng),
                 validate_coin([[0, 1], [1, 0]]), validate_coin([[1j, 0], [0, cmath.exp(0.3j)]])]
        for coin in coins:
            ls, ms, exhaustive, closed = paths.path_sums_by_time(coin, 10)
            assert list(zip(ls.tolist(), ms.tolist())) == [
                (l, n - l) for n in range(1, 11) for l in ([0, n] if coin.is_degenerate else range(n + 1))]
            for j, (l, m) in enumerate(zip(ls.tolist(), ms.tolist())):
                sc = StepCount(l=l, m=m)
                assert exhaustive[j].tobytes() == path_sum_exhaustive(coin, sc).tobytes()
                assert closed[j].tobytes() == path_sum(coin, sc).tobytes()

    def test_refuses_an_empty_pass(self):
        with pytest.raises(ValueError):
            paths.path_sums_by_time(hadamard_coin(), 0)


class TestCoefficients:
    def test_hadamard_3_1(self):
        coin = hadamard_coin()
        coeffs = path_sum_coefficients(coin, StepCount(l=3, m=1))
        a, b, c = coin.a, coin.b, coin.c
        assert coeffs.p == pytest.approx(2 * a * b * c, abs=1e-14)
        assert coeffs.q == 0
        assert coeffs.r == pytest.approx(a * a * b, abs=1e-14)
        assert coeffs.s == pytest.approx(a * a * c, abs=1e-14)

    def test_2_2_coefficients(self, rng):
        coin = random_unitary_coin(rng)
        a, b, c, d = coin.a, coin.b, coin.c, coin.d
        coeffs = path_sum_coefficients(coin, StepCount(l=2, m=2))
        assert coeffs.p == pytest.approx(b * c * d, abs=1e-14)
        assert coeffs.q == pytest.approx(a * b * c, abs=1e-14)
        assert coeffs.r == pytest.approx(b * (a * d + b * c), abs=1e-14)
        assert coeffs.s == pytest.approx(c * (a * d + b * c), abs=1e-14)

    def test_pure_right_run(self, rng):
        coin = random_unitary_coin(rng)
        coeffs = path_sum_coefficients(coin, StepCount(l=0, m=4))
        assert coeffs.q == pytest.approx(coin.d**3, abs=1e-14)
        assert coeffs.p == coeffs.r == coeffs.s == 0

    @pytest.mark.parametrize("l", [0, 20, paths.BINOMIAL_SUM_CAP + 1])
    def test_cap(self, monkeypatch, l):
        def no_sums(*args):
            raise AssertionError("a refused pair must form no sum")

        monkeypatch.setattr(paths, "_binomial_integers", no_sums)
        with pytest.raises(CapExceededError, match="binomial sums capped"):
            path_sum_coefficients(hadamard_coin(), StepCount(l=l, m=paths.BINOMIAL_SUM_CAP + 1 - l))

    def test_degenerate_mixed_word_refused(self):
        coin = validate_coin([[1, 0], [0, 1]])
        with pytest.raises(DegenerateCoinError):
            path_sum_coefficients(coin, StepCount(l=2, m=2))
        with pytest.raises(DegenerateCoinError):
            closed_form_coefficients(coin, StepCount(l=2, m=2))


class TestMaterialize:
    def test_matches_the_four_letter_sum(self, rng):
        coins = [hadamard_coin()] + [random_unitary_coin(rng) for _ in range(20)]
        for coin in coins:
            p, q, r, s = rng.normal(size=4) + 1j * rng.normal(size=4)
            got = paths.PqrsMatrix(p=p, q=q, r=r, s=s, coin=coin).materialize()
            expected = (
                p * letter_matrix(coin, Letter.P)
                + q * letter_matrix(coin, Letter.Q)
                + r * letter_matrix(coin, Letter.R)
                + s * letter_matrix(coin, Letter.S)
            )
            # Each entry is a sum of two complex products, which may cancel: the
            # two routes round differently (numpy's array loops may fuse a
            # multiply-add), so they agree to a few ulps of the sum of absolute
            # terms, not of the entry.
            scale = np.abs([[p, r], [s, q]]) @ np.abs([[coin.a, coin.b], [coin.c, coin.d]])
            assert got.dtype == np.complex128
            assert np.all(np.abs(got - expected) <= 4 * np.finfo(float).eps * scale)


class TestClosedForm:
    def test_pure_branches(self, rng):
        coin = random_unitary_coin(rng)
        np.testing.assert_allclose(
            path_sum(coin, StepCount(l=5, m=0)),
            coin.a**4 * letter_matrix(coin, Letter.P),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            path_sum(coin, StepCount(l=0, m=3)),
            (coin.delta * coin.a.conjugate()) ** 2 * letter_matrix(coin, Letter.Q),
            atol=1e-13,
        )

    def test_matches_enumeration(self, rng):
        # |a|^2 ~ 0.01 and ~ 0.99 besides Hadamard and random coins; every
        # l + m <= 14 against the word enumeration
        coins = [hadamard_coin(), coin_from_angles(1.4706, 2.0, 0.1, 0.5), coin_from_angles(0.1002, 5.0, 3.0, 1.0)]
        for coin in coins + [random_unitary_coin(rng) for _ in range(5)]:
            ls, ms, exhaustive, closed = paths.path_sums_by_time(coin, 14)
            coefficients = np.array([path_sum_coefficients(coin, StepCount(l=l, m=m)).materialize()
                                     for l, m in zip(ls.tolist(), ms.tolist())])
            assert np.max(np.abs(closed - exhaustive)) < 1e-14
            assert np.max(np.abs(coefficients - exhaustive)) < 1e-14

    def test_p_coefficient_index_shift(self, rng):
        # The gamma-shifted single-sum p coordinate equals the direct p sum.
        for _ in range(5):
            coin = random_unitary_coin(rng)
            for l in range(2, 9):
                for m in range(1, 9):
                    sc = StepCount(l=l, m=m)
                    direct = path_sum_coefficients(coin, sc).p
                    shifted = closed_form_coefficients(coin, sc).p
                    assert abs(direct - shifted) < 1e-12

    def test_unitarity_through_path_sum(self, rng):
        for _ in range(5):
            coin = random_unitary_coin(rng)
            qubit = random_qubit(rng)
            for n in range(1, 13):
                total = math.fsum(
                    float(np.linalg.norm(path_sum(coin, StepCount(l=l, m=n - l)) @ qubit.vector) ** 2)
                    for l in range(n + 1)
                )
                assert total == pytest.approx(1.0, abs=1e-10)


def worst_amplitude_gap(coin, qubit, n, positions=None):
    """Largest ``|Xi(l, m) phi - psi_n(m - l)|`` against the engine's amplitudes."""
    field = evolve(coin, qubit, n)
    return max(
        float(np.max(np.abs(path_sum(coin, StepCount.from_time_position(n, int(k))) @ qubit.vector
                            - field.amplitude(int(k)))))
        for k in (field.positions if positions is None else positions)
    )


class TestClosedFormAgainstEngine:
    @pytest.mark.parametrize("n", [100, 200, 1000])
    def test_hadamard(self, rng, n):
        assert worst_amplitude_gap(hadamard_coin(), random_qubit(rng), n) <= 1e-12

    # theta = 1.4706 gives |a|^2 ~ 0.01, theta = 0.1002 gives |a|^2 ~ 0.99
    @pytest.mark.parametrize("theta", [1.4706, 0.1002])
    @pytest.mark.parametrize("n", [400, 1000])
    def test_extreme_coins(self, rng, theta, n):
        coin = coin_from_angles(theta, *rng.uniform(0.0, 2.0 * math.pi, 3))
        assert worst_amplitude_gap(coin, random_qubit(rng), n) <= 1e-12

    def test_no_overflow_at_n_2000(self, rng):
        coin = coin_from_angles(1.4706, *rng.uniform(0.0, 2.0 * math.pi, 3))
        positions = [-2000, -1998, -1000, -2, 0, 2, 1000, 1998, 2000]
        assert worst_amplitude_gap(coin, random_qubit(rng), 2000, positions) <= 1e-12
