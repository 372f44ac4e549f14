import cmath
import math

import numpy as np
import pytest

import qwalk1d.analytic as analytic
import qwalk1d.special as special
from qwalk1d.analytic import law
from qwalk1d.coin import (
    coin_from_angles,
    hadamard_coin,
    make_qubit,
    random_qubit,
    random_unitary_coin,
    real_coin,
    state_terms,
    validate_coin,
)
from qwalk1d.engine import LAW_TIME_CAP, distribution
from qwalk1d.errors import CapExceededError
from qwalk1d.paths import StepCount, path_sum
from qwalk1d.special import rho_value


def worst_engine_gap(coin, qubit, n):
    closed = law(coin, qubit, n)
    dist = distribution(coin, qubit, n)
    return max(abs(closed.probability(int(k)) - dist.probability(int(k))) for k in dist.positions)


def direct_characteristic(dist, xi):
    ks = dist.positions.astype(float)
    return complex(np.sum(np.exp(1j * xi * ks) * np.asarray(dist.probs)))


class TestStateTerms:
    def test_cross_is_real_combination(self, rng):
        for _ in range(20):
            coin, qubit = random_unitary_coin(rng), random_qubit(rng)
            weight_gap, cross = state_terms(coin, qubit)
            z = coin.a * qubit.alpha * (coin.b * qubit.beta).conjugate()
            assert cross == pytest.approx((z + z.conjugate()).real, abs=1e-15)
            assert weight_gap == pytest.approx(abs(qubit.alpha) ** 2 - abs(qubit.beta) ** 2, abs=1e-15)
            mu = (coin.abs_a_sq - coin.abs_b_sq) * weight_gap + 2.0 * cross
            assert -1.0 - 1e-12 <= mu <= 1.0 + 1e-12


class TestPositionProbability:
    def test_hadamard_symmetric_n4(self, hadamard, symmetric_qubit):
        dist = law(hadamard, symmetric_qubit, 4)
        assert dist.probability(2) == pytest.approx(6 / 16, abs=1e-12)
        assert dist.probability(-2) == pytest.approx(6 / 16, abs=1e-12)
        assert dist.probability(0) == pytest.approx(2 / 16, abs=1e-12)
        assert dist.probability(4) == pytest.approx(1 / 16, abs=1e-12)

    def test_extreme_position_closed_form(self, rng):
        for _ in range(10):
            coin = random_unitary_coin(rng)
            qubit = random_qubit(rng)
            n = int(rng.integers(1, 12))
            a2, b2 = coin.abs_a_sq, coin.abs_b_sq
            wa, wb = abs(qubit.alpha) ** 2, abs(qubit.beta) ** 2
            expected = a2 ** (n - 1) * (b2 * wa + a2 * wb - state_terms(coin, qubit)[1])
            assert law(coin, qubit, n).probability(n) == pytest.approx(expected, abs=1e-13)

    def test_matches_engine(self, rng):
        worst = 0.0
        for _ in range(5):
            coin = random_unitary_coin(rng)
            qubit = random_qubit(rng)
            for n in (1, 2, 5, 9):
                worst = max(worst, worst_engine_gap(coin, qubit, n))
        assert worst < 1e-10

    def test_sums_to_one(self, rng):
        for _ in range(5):
            coin, qubit = random_unitary_coin(rng), random_qubit(rng)
            for n in (3, 8, 12):
                total = math.fsum(law(coin, qubit, n).probability(k) for k in range(-n, n + 1, 2))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_unreachable_positions_are_zero(self, hadamard, symmetric_qubit):
        dist = law(hadamard, symmetric_qubit, 4)
        assert [dist.probability(k) for k in (-5, -3, 3, 6)] == [0.0] * 4

    def test_degenerate_coin_atoms(self):
        qubit = make_qubit(0.6, 0.8j)
        b_zero, a_zero = validate_coin([[1, 0], [0, 1]]), validate_coin([[0, 1], [1, 0]])
        wa, wb = abs(qubit.alpha) ** 2, abs(qubit.beta) ** 2
        assert law(b_zero, qubit, 4).probs.tolist() == [wa, 0.0, 0.0, 0.0, wb]
        assert [law(a_zero, qubit, 5).probability(k) for k in (-3, -1, 1, 3)] == [0.0, wb, wa, 0.0]
        assert [law(a_zero, qubit, 4).probability(k) for k in (-2, 0, 2)] == [0.0, 1.0, 0.0]
        assert law(b_zero, qubit, 0).probability(0) == law(a_zero, qubit, 0).probability(0) == 1.0


class TestLaw:
    def test_probs_are_read_only(self, hadamard, symmetric_qubit):
        dist = law(hadamard, symmetric_qubit, 6)
        assert dist.n == 6
        with pytest.raises(ValueError):
            dist.probs[0] = 0.5
        assert dist.probability(-6) == dist.probs[0]
        assert law(hadamard, symmetric_qubit, 6) is dist

    def test_refusals(self, hadamard, symmetric_qubit):
        for coin in (hadamard, validate_coin([[1, 0], [0, 1]]), validate_coin([[0, 1], [1, 0]])):
            with pytest.raises(ValueError):
                law(coin, symmetric_qubit, -1)
            assert law(coin, symmetric_qubit, 0).probs.tolist() == [1.0]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 161])
    def test_is_the_squared_path_sum_at_every_position(self, rng, n):
        for coin in [hadamard_coin()] + [random_unitary_coin(rng) for _ in range(5)]:
            qubit = random_qubit(rng)
            probs = law(coin, qubit, n).probs
            amps = np.array([path_sum(coin, StepCount(l=n - m, m=m)) @ qubit.vector for m in range(n + 1)])
            assert np.max(np.abs(probs - np.sum(np.abs(amps) ** 2, axis=1))) <= 1e-14

    def test_time_cap(self, hadamard, symmetric_qubit, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("an over-cap law must be refused before any work")

        monkeypatch.setattr(analytic, "_jacobi_table", no_kernel)
        for coin in (hadamard, validate_coin([[1, 0], [0, 1]]), validate_coin([[0, 1], [1, 0]])):
            with pytest.raises(CapExceededError):
                law(coin, symmetric_qubit, LAW_TIME_CAP + 1)

    def test_degenerate_coins_match_engine(self, rng):
        coins = [
            validate_coin([[1, 0], [0, 1]]),
            validate_coin([[0, 1], [1, 0]]),
            validate_coin([[0, 1j], [1j, 0]]),
            validate_coin([[cmath.exp(0.4j), 0], [0, cmath.exp(-1.7j)]]),
            validate_coin([[0, cmath.exp(0.9j)], [cmath.exp(2.2j), 0]]),
        ]
        for coin in coins:
            qubit = random_qubit(rng)
            for n in [*range(65), 1000, 2001]:
                gap = np.max(np.abs(law(coin, qubit, n).probs - distribution(coin, qubit, n).probs))
                assert gap <= 1e-12, (coin.branch, n, gap)


class TestCharacteristicFunction:
    def test_at_zero_is_one(self, rng):
        for _ in range(10):
            dist = law(random_unitary_coin(rng), random_qubit(rng), 7)
            assert dist.characteristic_function(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_b_zero_branch(self, left_qubit):
        dist = law(validate_coin([[1, 0], [0, 1]]), left_qubit, 3)
        for xi in (0.3, -1.1, 2.7):
            expected = complex(math.cos(3 * xi), -math.sin(3 * xi))
            assert dist.characteristic_function(xi) == pytest.approx(expected, abs=1e-14)

    def test_a_zero_branch(self, rng):
        coin = validate_coin([[0, 1], [1, 0]])
        qubit = random_qubit(rng)
        gap = abs(qubit.alpha) ** 2 - abs(qubit.beta) ** 2
        xi = 0.9
        assert law(coin, qubit, 6).characteristic_function(xi) == 1.0 + 0.0j
        expected = complex(math.cos(xi), gap * math.sin(xi))
        assert law(coin, qubit, 7).characteristic_function(xi) == pytest.approx(expected, abs=1e-14)

    def test_hadamard_symmetric_n4_cosine_series(self, hadamard, symmetric_qubit):
        dist = law(hadamard, symmetric_qubit, 4)
        for xi in np.linspace(-3.0, 3.0, 7):
            expected = 0.125 + 0.75 * math.cos(2 * xi) + 0.125 * math.cos(4 * xi)
            got = dist.characteristic_function(xi)
            assert got.real == pytest.approx(expected, abs=1e-12)
            assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_sum(self, rng):
        worst = 0.0
        for _ in range(5):
            coin = random_unitary_coin(rng)
            qubit = random_qubit(rng)
            for n in (1, 4, 9, 12):
                dist = distribution(coin, qubit, n)
                for xi in np.linspace(-math.pi, math.pi, 20, endpoint=False):
                    diff = abs(law(coin, qubit, n).characteristic_function(xi) - direct_characteristic(dist, xi))
                    worst = max(worst, diff)
        assert worst < 1e-9

    def test_conjugate_symmetry(self, rng):
        dist = law(random_unitary_coin(rng), random_qubit(rng), 9)
        for xi in (0.2, 1.4, 2.9):
            lhs = dist.characteristic_function(-xi)
            rhs = dist.characteristic_function(xi).conjugate()
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_central_probability_is_state_independent(self, rng):
        for _ in range(3):
            coin = random_unitary_coin(rng)
            qubits = [random_qubit(rng) for _ in range(10)]
            for n in (2, 6, 10):
                central = [law(coin, qubit, n).probability(0) for qubit in qubits]
                assert max(central) - min(central) < 1e-15
                for qubit, value in zip(qubits, central):
                    engine_value = distribution(coin, qubit, n).probability(0)
                    assert value == pytest.approx(engine_value, abs=1e-11)


class TestMoments:
    def test_hadamard_symmetric_n4_variance(self, hadamard, symmetric_qubit):
        assert law(hadamard, symmetric_qubit, 4).moment(2) == pytest.approx(5.0, abs=1e-12)

    def test_b_zero_branch(self, rng):
        coin = validate_coin([[1, 0], [0, 1]])
        qubit = random_qubit(rng)
        gap = abs(qubit.beta) ** 2 - abs(qubit.alpha) ** 2
        # relative to n^m: the atoms' masses add to 1 only to rounding
        for n, m in [(3, 2), (5, 4), (7, 6)]:
            assert abs(law(coin, qubit, n).moment(m) - n**m) / max(1, n**m) <= 1e-15
        for n, m in [(3, 1), (5, 3)]:
            assert abs(law(coin, qubit, n).moment(m) - n**m * gap) / max(1, n**m) <= 1e-15

    def test_a_zero_branch_parity_table(self, rng):
        coin = validate_coin([[0, 1], [1, 0]])
        qubit = random_qubit(rng)
        gap = abs(qubit.alpha) ** 2 - abs(qubit.beta) ** 2
        for n in (2, 4, 6):
            for m in (1, 2, 3):
                assert law(coin, qubit, n).moment(m) == 0.0
        # relative to max(1, n^m): the atoms' masses add to 1 only to rounding
        for n in (3, 5):
            assert abs(law(coin, qubit, n).moment(1) - gap) / n <= 1e-15
            assert abs(law(coin, qubit, n).moment(2) - 1.0) / n**2 <= 1e-15

    def test_matches_direct_sums(self, rng):
        worst = 0.0
        for _ in range(5):
            coin = random_unitary_coin(rng)
            qubit = random_qubit(rng)
            for n in (1, 5, 12):
                dist = distribution(coin, qubit, n)
                for m in (1, 2, 3, 4):
                    worst = max(worst, abs(law(coin, qubit, n).moment(m) - dist.moment(m)))
        assert worst < 1e-8

    def test_even_moments_ignore_initial_state(self, rng):
        coin = random_unitary_coin(rng)
        for n in (4, 9):
            for m in (2, 4):
                values = [law(coin, random_qubit(rng), n).moment(m) for _ in range(10)]
                assert max(values) - min(values) < 1e-9


def real_twin(coin, qubit):
    """The real coin ``[[s, t], [t, -s]]`` with the coin's ``|a|^2``, and a qubit whose
    ``weight_gap`` and ``cross`` on it are those of ``qubit`` on ``coin`` (to rounding)."""
    weight_gap, cross = state_terms(coin, qubit)
    twin = real_coin(abs(coin.a))
    alpha, beta = math.sqrt((1.0 + weight_gap) / 2.0), math.sqrt((1.0 - weight_gap) / 2.0)
    cosine = cross / (2.0 * twin.a.real * twin.b.real * alpha * beta)
    return twin, make_qubit(alpha, beta * cmath.exp(1j * math.acos(min(1.0, max(-1.0, cosine)))))


class TestDependenceClaim:
    """The law depends on the coin and the state only through ``|a|^2`` and
    ``state_terms``: the closed form, which reads nothing else, meets the
    engine, which steps the whole complex coin, on a real coin and another
    qubit with the same ``|a|^2``, ``weight_gap`` and ``cross``."""

    @pytest.mark.parametrize("n", [7, 160, 2001])
    def test_complex_law_is_the_real_twins_engine_law(self, rng, n):
        for _ in range(5):
            coin, qubit = random_unitary_coin(rng), random_qubit(rng)
            twin, twin_qubit = real_twin(coin, qubit)
            assert twin.abs_a_sq == coin.abs_a_sq
            assert state_terms(twin, twin_qubit) == pytest.approx(state_terms(coin, qubit), abs=1e-15)
            gap = np.max(np.abs(law(coin, qubit, n).probs - distribution(twin, twin_qubit, n).probs))
            assert gap <= 1e-12, gap


class TestSymmetricClass:
    """With ``weight_gap = cross = 0`` the two basis states weigh the same and
    the interference profile drops out, so the law is mirror-symmetric bit for
    bit, and the sums of its mirror pairs cancel exactly."""

    @pytest.mark.parametrize("n", [7, 160, 2001])
    def test_law_and_its_odd_sums_are_exactly_symmetric(self, hadamard, symmetric_qubit, n):
        xis = np.linspace(-math.pi, math.pi, 33)
        for coin in (hadamard, real_coin(0.3)):
            assert state_terms(coin, symmetric_qubit) == (0.0, 0.0)
            dist = law(coin, symmetric_qubit, n)
            assert dist.probs.tobytes() == dist.probs[::-1].tobytes()
            # orders 1 and 3 only: numpy's float power is not odd bit for bit at
            # every higher order, so those rows do not cancel exactly
            odd = dist.moment([1, 3])
            assert odd.tolist() == [0.0, 0.0] and not np.signbit(odd).any()
            assert dist.mean() == 0.0
            imag = dist.characteristic_function(xis).imag
            assert (imag == 0.0).all() and not np.signbit(imag).any()


class TestJacobiKernel:
    def test_kernel_matches_exact_jacobi_values(self, rng):
        # rho_value sums the terminating 2F1 exactly.
        a2_values = [0.01, 0.5, 0.99] + [random_unitary_coin(rng).abs_a_sq for _ in range(2)]
        for a2 in a2_values:
            for n in range(2, 61):
                table = special._scaled_jacobi(n, a2)
                assert table.shape == (2, n // 2)
                for kk in range(1, n // 2 + 1):
                    for i in (0, 1):
                        expected = rho_value(n, kk, i, a2) * math.sqrt(a2) ** (n - 2 * kk)
                        assert table[i, kk - 1] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_kernel_at_the_smallest_times(self, n):
        # n = 2, 3 have the one cluster count kk = 1, of degree 0: P_0 = 1,
        # so both rows hold |a|^(n-2); n = 0, 1 have no mixed word at all.
        for a2 in (0.01, 0.5, 0.99):
            table = special._scaled_jacobi(n, a2)
            assert table.shape == (2, n // 2)
            for i in (0, 1):
                assert table[i] == pytest.approx([math.sqrt(a2) ** (n - 2)] * (n // 2), rel=1e-15)

    @pytest.mark.parametrize("n", [1000, 2000, 2001])
    def test_kernel_matches_exact_jacobi_values_at_large_n(self, n):
        # |a|^2 = 0.01 is left out: there rho_value itself leaves the float
        # range (OverflowError) at these n.
        kks = sorted({1, 2, 17, n // 8, n // 4, n // 3, n // 2 - 1, n // 2})
        for a2 in (0.3, 0.5, 0.7, 0.99):
            table = special._scaled_jacobi(n, a2)
            for kk in kks:
                for i in (0, 1):
                    expected = rho_value(n, kk, i, a2) * math.sqrt(a2) ** (n - 2 * kk)
                    assert table[i, kk - 1] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_kernel_matches_mpmath_at_the_cap(self):
        # At |a|^2 = 0.01 and n = 20000, |a|^(n-2) is about 1e-20000, so the
        # scaling decides the accuracy: taken through exp of its logarithm in
        # double, the entries at kk = n/2 were about 6e-12 off (relative).
        mpmath = pytest.importorskip("mpmath")
        n, a2 = 20000, 0.01
        table = special._scaled_jacobi(n, a2)
        for i in (0, 1):  # kk = n/2, where the mpmath series is shortest
            with mpmath.workdps(30):
                exact = mpmath.jacobi(n // 2 - 1, i, 0, 2 * mpmath.mpf(a2) - 1)
            assert table[i, -1] == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [4, 8, 60, 1000, 2000, 20000])
    def test_hadamard_zero_entries(self, n):
        # At |a|^2 = 1/2 and kk = n/2 the entry is the Legendre value
        # P_(n/2-1)(0), exactly zero for odd degree: the recurrence reaches it
        # by cancellation, so it is near zero, not zero.
        assert special._scaled_jacobi(n, 0.5)[0, n // 2 - 1] == pytest.approx(0.0, abs=1e-14)

    def test_small_amplitude_coin_against_engine(self, rng):
        # |a| ~ 0.12: summed term by term, the alternating sums would cancel
        # about 11 digits at n = 14.
        coin = coin_from_angles(1.45, 0.3, 1.1, 2.0)
        qubit = random_qubit(rng)
        assert np.max(np.abs(law(coin, qubit, 14).probs - distribution(coin, qubit, 14).probs)) <= 1e-12

    @pytest.mark.parametrize("n", [40, 56, 60, 61, 62, 200, 1000])
    def test_hadamard_against_engine(self, hadamard, symmetric_qubit, n):
        assert worst_engine_gap(hadamard, symmetric_qubit, n) <= 1e-12

    @pytest.mark.parametrize("theta", [1.4706, 1.3, 0.9, 0.2])
    @pytest.mark.parametrize("n", [61, 200, 1000])
    def test_random_coins_against_engine(self, rng, theta, n):
        # theta = 1.4706 gives |a|^2 = cos(theta)^2 ~ 0.01.
        coin = coin_from_angles(theta, *rng.uniform(0.0, 2.0 * math.pi, 3))
        assert worst_engine_gap(coin, random_qubit(rng), n) <= 1e-12

    @pytest.mark.parametrize("n", [1000, 2000, 5000, 20000])
    def test_law_against_engine_at_large_n(self, rng, n):
        # |a|^2 ~ 0.01 runs the power-of-two scaling: rho_value itself overflows
        # there, and at n = 20000 |a|^(n-2) is about 1e-20000.
        coins = [hadamard_coin()] + [
            coin_from_angles(theta, *rng.uniform(0.0, 2.0 * math.pi, 3)) for theta in (1.4706, 0.1002)
        ]
        for coin in coins:
            qubit = random_qubit(rng)
            closed = law(coin, qubit, n).probs
            assert np.max(np.abs(closed - distribution(coin, qubit, n).probs)) <= 1e-12

    @pytest.mark.xfail(strict=True, reason="for small |a| the profile difference d2 = e0 - m t1 "
                       "cancels its leading term (FOUND in CHANGES.md)")
    def test_law_against_engine_at_small_abs_a(self, rng):
        # measured 3.3e-11 (|a| = 1e-3), 9.9e-11 (1e-5) and 1.8e-11 (1e-7) off
        # both engine routes, which agree with each other
        n = 2000
        for abs_a in (1e-3, 1e-5, 1e-7):
            coin = coin_from_angles(math.acos(abs_a), *rng.uniform(0.0, 2.0 * math.pi, 3))
            qubit = random_qubit(rng)
            closed = law(coin, qubit, n).probs
            assert np.max(np.abs(closed - distribution(coin, qubit, n).probs)) <= 1e-12

