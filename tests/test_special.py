import math
import sys
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import qwalk1d.special as special
from qwalk1d.coin import hadamard_coin, random_unitary_coin, real_coin, validate_coin
from qwalk1d.errors import CapExceededError, DegenerateCoinError, NonConvergentError, PoleAtCError
from qwalk1d.special import (
    hyp2f1,
    jacobi_p,
    jacobi_sum_identity,
    pfaff_residual,
    rho_value,
)

# Termination-safe Pfaff grid: either the series terminates (first parameter a
# non-positive integer, valid for any z) or both series converge (|z| < 1/2
# keeps |z/(z-1)| < 1).
PFAFF_TERMINATING = [
    (a, b, c, z)
    for a in (-5.0, -3.0, -1.0)
    for b in (0.5, 2.0, 4.5)
    for c in (1.5, 3.0, 5.25)
    for z in (-0.75, -0.2, 0.3, 0.7)
]
PFAFF_CONVERGENT = [
    (a, b, c, z)
    for a in (0.25, 0.5, 1.5)
    for b in (0.5, 1.0)
    for c in (1.75, 3.5)
    for z in (-0.4, 0.15, 0.45)
]


def fraction_hyp2f1(a, b, c, z, stop):
    """Terminating 2F1 summed term by term in ``Fraction`` arithmetic."""
    af, bf, cf, zf = Fraction(a), Fraction(b), Fraction(c), Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for j in range(stop):
        term *= (af + j) * (bf + j) * zf
        term /= (cf + j) * (j + 1)
        total += term
    return float(total)


def fraction_sum_lhs(coin, n, k, i):
    """The binomial sum of ``jacobi_sum_identity`` in ``Fraction`` arithmetic."""
    ratio = -Fraction(coin.abs_b_sq) / Fraction(coin.abs_a_sq)
    total = Fraction(0)
    power = Fraction(1)
    for g in range(1, k + 1):
        w = power * math.comb(k - 1, g - 1) * math.comb(n - k - 1, g - 1)
        total += w / g if i == 1 else w
        power *= ratio
    return float(total)


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(3.7, -2.2, 1.9, 0.0) == 1.0

    def test_geometric_like_closed_form(self):
        assert abs(hyp2f1(0.5, 1.0, 1.0, 0.5) - math.sqrt(2.0)) < 1e-14
        for z in np.arange(0.1, 1.0, 0.1):
            assert abs(hyp2f1(0.5, 1.0, 1.0, float(z)) - (1.0 - z) ** -0.5) < 1e-12

    def test_two_term_series(self):
        for z in (-0.7, 0.2, 0.9):
            assert hyp2f1(-1.0, 3.0, 2.0, z) == pytest.approx(1.0 - 1.5 * z, abs=1e-15)

    def test_terminating_beats_unit_disc(self):
        # terminating series are polynomials, fine at |z| > 1
        assert hyp2f1(-2.0, 1.0, 1.0, 3.0) == pytest.approx((1.0 - 3.0) ** 2, abs=1e-12)

    def test_divergent_argument_rejected(self):
        for z in (1.5, -1.0):
            with pytest.raises(NonConvergentError):
                hyp2f1(0.5, 1.0, 2.0, z)

    def test_pole_at_c(self):
        with pytest.raises(PoleAtCError):
            hyp2f1(0.5, 1.0, -2.0, 0.3)
        with pytest.raises(PoleAtCError):
            hyp2f1(-5.0, 1.0, -2.0, 0.3)

    @pytest.mark.parametrize("position", range(4))
    def test_nan_argument_refused(self, position):
        # unrefused, a NaN z ran the whole 10^6-term loop into NonConvergentError
        for base in ((0.5, 1.0, 2.0, 0.3), (-2.0, 1.0, 1.0, 0.3)):
            args = list(base)
            args[position] = math.nan
            with pytest.raises(ValueError, match="finite"):
                hyp2f1(*args)

    @pytest.mark.parametrize("position", range(4))
    def test_infinite_argument_refused(self, position):
        # unrefused, an infinite argument of a terminating series raised
        # OverflowError from as_integer_ratio
        for value in (math.inf, -math.inf):
            args = [-2.0, 1.0, 1.0, 0.3]
            args[position] = value
            with pytest.raises(ValueError, match="finite"):
                hyp2f1(*args)

    def test_pole_avoided_when_terminating_first(self):
        # series stops (a = -2) before the pole of c = -5 is reached
        value = hyp2f1(-2.0, 1.0, -5.0, 0.4)
        expected = 1.0 + (-2.0) * 1.0 / (-5.0) * 0.4 + ((-2.0) * (-1.0) * 1.0 * 2.0) / ((-5.0) * (-4.0) * 2.0) * 0.16
        assert value == pytest.approx(expected, abs=1e-14)


def ending(ends, stop, other=2.5):
    """``(a, b)`` whose series ends after term ``stop``: ``a``, ``b`` or both
    non-positive integers (the other one of both ends later)."""
    return {"a": (-float(stop), other), "b": (other, -float(stop)),
            "both": (-float(stop), -float(stop + 3))}[ends]


@pytest.mark.parametrize("ends", ["a", "b", "both"])
class TestHyp2f1Refusals:
    """The refusals of a terminating series, whichever upper parameter ends it."""

    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_argument_refused(self, ends, position):
        for value in (math.nan, math.inf, -math.inf):
            args = [*ending(ends, 2), 1.0, 0.3]
            args[position] = value
            with pytest.raises(ValueError, match="finite"):
                hyp2f1(*args)

    @pytest.mark.parametrize("stop, c", [(3, -2.0), (5, -2.0), (1, 0.0), (6, -5.0)])
    def test_pole_reached_first(self, ends, stop, c):
        with pytest.raises(PoleAtCError, match=f"c = {c} hits a pole"):
            hyp2f1(*ending(ends, stop), c, 0.3)

    @pytest.mark.parametrize("stop, c", [(2, -2.0), (2, -5.0), (0, 0.0), (5, -5.0)])
    def test_series_ending_before_the_pole_is_summed(self, ends, stop, c):
        # the last term, stop, divides by (c + stop - 1), which is not 0 for stop <= -c
        args = (*ending(ends, stop), c, 0.4)
        assert hyp2f1(*args) == fraction_hyp2f1(*args, stop)

    def test_polynomial_is_summed_past_the_unit_disc(self, ends):
        # |z| >= 1 is summed when the series ends; a series that never ends
        # does not converge there
        args = (*ending(ends, 3), 1.5, -4.0)
        assert hyp2f1(*args) == fraction_hyp2f1(*args, 3)
        with pytest.raises(NonConvergentError, match="does not converge"):
            hyp2f1(0.5, 2.5, 1.5, -4.0)

    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_term_cap(self, ends, c):
        with pytest.raises(CapExceededError, match="10001 terms exceeds the cap"):
            hyp2f1(*ending(ends, 10_000), c, 0.3)
        assert hyp2f1(*ending(ends, 9), c, 0.3) == fraction_hyp2f1(*ending(ends, 9), c, 0.3, 9)

    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_bit_cap(self, ends, c):
        with pytest.raises(CapExceededError, match="over the cap of 830000"):
            hyp2f1(*ending(ends, 2000), c, 1e-300)


class TestExactSeries:
    """The integer-fraction sums equal the ``Fraction`` sums bit for bit."""

    def test_terminating_hyp2f1_matches_fraction_sum(self, rng):
        for _ in range(60):
            stop = int(rng.integers(0, 81))
            b = float(rng.uniform(-6.0, 40.0))
            c = float(rng.uniform(0.1, 12.0))
            z = float(rng.uniform(-3.0, 0.99))
            for zz in (z, z / (z - 1.0)):
                for args in ((-float(stop), b, c, zz), (b, -float(stop), c, zz)):
                    assert hyp2f1(*args) == fraction_hyp2f1(*args, stop)

    def test_family_hyp2f1_matches_fraction_sum(self, rng, monkeypatch):
        # both upper parameters non-positive integers and c in {1, 2}: the
        # recurrence route, which the continuous draws above never reach
        def no_series(*args):
            raise AssertionError("the family must not be summed as a series")

        monkeypatch.setattr(special, "_terminating_sum", no_series)
        monkeypatch.setattr(special, "_family_state", None)
        draws = [(int(m), int(big_m), float(z)) for m, big_m, z in zip(
            rng.integers(0, 41, 30), rng.integers(0, 41, 30), rng.uniform(-3.0, 0.99, 30))]
        draws += [(0, 0, 0.3), (0, 17, -1.7), (17, 0, 0.4), (5, 9, 0.0), (9, 5, -0.0)]
        for m, big_m, z in draws:
            for c in (1.0, 2.0):
                for zz in (z, z / (z - 1.0), 0.0):
                    for args in ((-float(m), -float(big_m), c, zz), (-float(big_m), -float(m), c, zz)):
                        assert hyp2f1(*args) == fraction_hyp2f1(*args, min(m, big_m)), args

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_family_hyp2f1_matches_fraction_sum_in_any_order(self, rng, monkeypatch, order):
        monkeypatch.setattr(special, "_family_state", None)
        for n, z in ((40, 0.3), (41, 0.3 / (0.3 - 1.0)), (40, -2.5)):
            ks = list(range(1, n // 2 + 1))
            if order == "descending":
                ks.reverse()
            elif order == "shuffled":
                rng.shuffle(ks)
            for k in ks:
                for i in (0, 1):
                    args = (-(k - 1.0), -(n - k - 1.0), 1.0 + i, z)
                    assert hyp2f1(*args) == fraction_hyp2f1(*args, k - 1), (n, k, i)

    @pytest.mark.parametrize(
        "args",
        [(-10000.0, -10001.0, 1.0, 0.5), (-2000.0, -2500.0, 2.0, 1e-300)],
        ids=["terms", "bits"],
    )
    def test_family_hyp2f1_is_capped_before_any_step(self, monkeypatch, args):
        def no_work(*args):
            raise AssertionError("an over-cap family call must be refused before any step")

        with pytest.raises(CapExceededError) as series:
            special._terminating_sum.__wrapped__(*args, int(-max(args[:2])))
        monkeypatch.setattr(special, "_lhs_step", no_work)
        monkeypatch.setattr(special, "_family_state", None)
        with pytest.raises(CapExceededError) as family:
            hyp2f1(*args)
        assert str(family.value) == str(series.value)
        assert special._family_state is None

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_sum_identity_lhs_matches_fraction_sum(self, rng, order):
        coins = [hadamard_coin(), validate_coin([[1, 0], [0, 1]]), real_coin(0.1), real_coin(math.sqrt(0.99))]
        coins += [random_unitary_coin(rng) for _ in range(3)]
        for coin in coins:
            for n in (20, 21, 40, 60, 61):
                ks = list(range(1, n // 2 + 1))
                if order == "descending":
                    ks.reverse()
                elif order == "shuffled":
                    rng.shuffle(ks)
                for k in ks:
                    for i in (0, 1):
                        lhs, _ = jacobi_sum_identity(coin, n, k, i)
                        assert lhs == fraction_sum_lhs(coin, n, k, i), (n, k, i)

    def test_sum_identity_lhs_matches_exact_series_at_large_n(self, rng):
        # the series it replaced, summed exactly: Fraction is too slow at n = 400
        n = 400
        for coin in (hadamard_coin(), random_unitary_coin(rng)):
            (bn, bd), (an, ad) = coin.abs_b_sq.as_integer_ratio(), coin.abs_a_sq.as_integer_ratio()
            ratio = Fraction(-bn * ad, bd * an)
            for k in range(1, n // 2 + 1):
                for i in (0, 1):
                    lhs, _ = jacobi_sum_identity(coin, n, k, i)
                    series = special._terminating_sum.__wrapped__(-(k - 1.0), -(n - k - 1.0), 1.0 + i, ratio, k - 1)
                    assert lhs == series, (k, i)

    def test_pfaff_residual_matches_exact_series_at_large_n(self, rng):
        # its right side by the recurrence, against the series summed exactly
        n = 400
        for coin in (hadamard_coin(), random_unitary_coin(rng)):
            z = (1.0 - (2.0 * coin.abs_a_sq - 1.0)) / 2.0
            for k in range(1, n // 2 + 1):
                for i in (0, 1):
                    a, b, c = -(k - 1.0), n - k + i + 0.0, i + 1.0
                    series = special._terminating_sum.__wrapped__(a, c - b, c, z / (z - 1.0), k - 1)
                    expected = abs(hyp2f1(a, b, c, z) - (1.0 - z) ** (-a) * series)
                    assert pfaff_residual(a, b, c, z) == expected, (k, i)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((hadamard_coin(), 20002, 10001, 0), "exceeds the cap"),
            # |b|^2 = 4e-24 puts 131 bits in the ratio's denominator
            ((validate_coin([[1, 2e-12], [-2e-12, 1]]), 10800, 5400, 1), "bits"),
        ],
        ids=["terms", "bits"],
    )
    def test_sum_identity_lhs_is_capped_before_it_is_summed(self, monkeypatch, args, match):
        def no_work(*args):
            raise AssertionError("an over-cap left side must be refused before any binomial or step")

        monkeypatch.setattr(special, "comb", no_work)
        monkeypatch.setattr(special, "_lhs_step", no_work)
        with pytest.raises(CapExceededError, match=match):
            jacobi_sum_identity(*args)

    def test_terminating_series_capped_at_ten_thousand_terms(self):
        assert hyp2f1(-9999.0, 1.0, 1.0, 0.0) == 1.0
        with pytest.raises(CapExceededError):
            hyp2f1(1.0, -10000.0, 1.0, 0.0)
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            hyp2f1(-10**6, 1.0, 1.0, 0.5)
        assert time.perf_counter() - start < 0.1


    @pytest.mark.parametrize("z", [1e-300, 5e-324])
    def test_terminating_series_capped_by_integer_size(self, z):
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            hyp2f1(-2000.0, 2.5, 1.5, z)
        assert time.perf_counter() - start < 0.1


class TestSumRecurrence:
    """The kept state of the identity's left side: reused by a call at the same
    ``n`` and coin moduli and a ``k`` no smaller, restarted by any other.  The
    family route of :func:`hyp2f1` keeps its own."""

    @pytest.fixture(autouse=True)
    def no_state(self, monkeypatch):
        monkeypatch.setattr(special, "_lhs_state", None)
        monkeypatch.setattr(special, "_family_state", None)

    @pytest.fixture
    def steps(self, monkeypatch):
        taken = []
        true_step = special._lhs_step

        def counting(n, p, q, k, prev, cur):
            taken.append((n, k))
            return true_step(n, p, q, k, prev, cur)

        monkeypatch.setattr(special, "_lhs_step", counting)
        return taken

    def test_ascending_sweep_takes_one_step_per_k(self, rng, steps):
        coin, n = random_unitary_coin(rng), 60
        for k in range(1, n // 2 + 1):
            for i in (0, 1):
                jacobi_sum_identity(coin, n, k, i)
                # never restarted: the steps so far are exactly those from 1 to k
                assert steps == [(n, kk) for kk in range(1, k)]
        assert len(steps) == 29

    @pytest.mark.parametrize("n", [20, 21, 60, 61])
    def test_interleaved_sweep_restarts_neither_state(self, rng, steps, n):
        # the benchmark's sweep: the identity, then the Pfaff residual, per (k, i)
        coin = random_unitary_coin(rng)
        z = (1.0 - (2.0 * coin.abs_a_sq - 1.0)) / 2.0
        for k in range(1, n // 2 + 1):
            for i in (0, 1):
                jacobi_sum_identity(coin, n, k, i)
                pfaff_residual(-(k - 1), n - k + i, i + 1.0, z)
        # one step per k on each state, the identity's first
        assert steps == [(n, kk) for kk in range(1, n // 2) for _ in range(2)]
        assert special._lhs_state[1] == special._family_state[1] == n // 2

    def test_state_keeps_one_entry(self, rng):
        coin = hadamard_coin()
        jacobi_sum_identity(random_unitary_coin(rng), 40, 12, 0)
        jacobi_sum_identity(coin, 30, 5, 1)
        key, k, p, q = special._lhs_state[:4]
        assert (key, k) == ((30, coin.abs_b_sq, coin.abs_a_sq), 5)
        assert Fraction(p, q) == -Fraction(coin.abs_b_sq) / Fraction(coin.abs_a_sq)

    def test_interleaved_coins_restart(self, rng, steps):
        coins = [random_unitary_coin(rng), real_coin(0.1)]
        n = 21
        for k in range(1, n // 2 + 1):
            for coin in coins:
                for i in (0, 1):
                    lhs, _ = jacobi_sum_identity(coin, n, k, i)
                    assert lhs == fraction_sum_lhs(coin, n, k, i), (k, i)
        # each coin's i = 0 call restarts from k = 1, and its i = 1 call reuses the state
        assert len(steps) == 2 * sum(range(n // 2))

    def test_interleaved_times_restart(self, rng, steps):
        coin = random_unitary_coin(rng)
        for k in range(1, 11):
            for n in (20, 33):
                for i in (0, 1):
                    lhs, _ = jacobi_sum_identity(coin, n, k, i)
                    assert lhs == fraction_sum_lhs(coin, n, k, i), (n, k, i)
        assert len(steps) == 2 * sum(range(10))

    def test_smaller_k_restarts(self, rng, steps):
        coin, n = random_unitary_coin(rng), 40
        for k in (15, 15, 20, 3, 3, 8):
            for i in (0, 1):
                lhs, _ = jacobi_sum_identity(coin, n, k, i)
                assert lhs == fraction_sum_lhs(coin, n, k, i), (k, i)
        assert len(steps) == 14 + 5 + 2 + 5


class TestTerminatingMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        special._terminating_sum.cache_clear()
        yield
        special._terminating_sum.cache_clear()

    def test_memo_is_bounded(self):
        size = special._terminating_sum.cache_info().maxsize
        assert size == 1
        for j in range(size + 1):
            hyp2f1(-2.0, 1.0, 1.0, j / 1024)
        assert special._terminating_sum.cache_info().currsize == size

    def test_memoised_values_equal_the_fraction_sum(self, rng):
        for _ in range(20):
            stop = int(rng.integers(1, 30))
            args = (-float(stop), float(rng.uniform(-5, 5)), float(rng.uniform(0.5, 5)), float(rng.uniform(-2, 2)))
            expected = fraction_hyp2f1(*args, stop)
            assert hyp2f1(*args) == expected
            assert hyp2f1(*args) == expected  # read from the memo
        assert special._terminating_sum.cache_info().hits == 20

    @pytest.mark.parametrize(
        "args, error",
        [
            ((-5.0, 1.0, -2.0, 0.3), PoleAtCError),
            ((1.0, -10000.0, 1.0, 0.0), CapExceededError),
            ((-2000.0, 2.5, 1.5, 1e-300), CapExceededError),
            ((0.5, 1.0, 2.0, 1.0), NonConvergentError),
        ],
    )
    def test_errors_are_raised_again(self, args, error):
        for _ in range(2):
            with pytest.raises(error):
                hyp2f1(*args)
        assert special._terminating_sum.cache_info().currsize == 0

    def test_sweep_sums_each_rho_series_once(self, rng, monkeypatch):
        monkeypatch.setattr(special, "_family_state", None)
        coin = random_unitary_coin(rng)
        n, k, i = 40, 7, 1
        z = (1.0 - (2.0 * coin.abs_a_sq - 1.0)) / 2.0
        jacobi_sum_identity(coin, n, k, i)
        pfaff_residual(-(k - 1), n - k + i, i + 1.0, z)
        info = special._terminating_sum.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # the Pfaff right side took the recurrence's k - 1 steps, not the memo
        assert special._family_state[:2] == ((n, z / (z - 1.0)), k)


class TestPfaff:
    @pytest.mark.parametrize("args", PFAFF_TERMINATING + PFAFF_CONVERGENT)
    def test_residual_grid(self, args):
        assert pfaff_residual(*args) < 1e-11

    def test_z_one_refused(self):
        # z / (z - 1) divided by zero after the left side was summed
        with pytest.raises(ValueError, match="z != 1"):
            pfaff_residual(-2.0, 1.0, 1.0, 1.0)

    def test_non_finite_arguments_refused(self):
        for args in ((-2.0, 1.0, 1.0, math.nan), (-2.0, math.inf, 1.0, 0.3), (0.5, 1.0, 2.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                pfaff_residual(*args)

    def test_specific_cases(self):
        assert pfaff_residual(-3.0, 5.0, 2.0, 0.3) < 1e-13
        assert pfaff_residual(0.5, 1.0, 1.0, 0.5) < 1e-12
        assert pfaff_residual(1.3, 0.7, 2.2, 0.0) == 0.0


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_p(0, 1.0, -0.5, 0.3) == 1.0

    def test_degree_one(self):
        for nu, mu, x in [(1.0, 2.5, 0.3), (0.0, 4.0, -0.6), (2.0, 0.5, 0.9)]:
            expected = (nu + 1.0) + (nu + mu + 2.0) * (x - 1.0) / 2.0
            assert jacobi_p(1, nu, mu, x) == pytest.approx(expected, abs=1e-13)

    def test_orthogonality_by_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(64)
        p2 = np.array([jacobi_p(2, 1.0, 3.0, t) for t in nodes])
        p3 = np.array([jacobi_p(3, 1.0, 3.0, t) for t in nodes])
        weight_fn = (1.0 - nodes) * (1.0 + nodes) ** 3
        assert abs(np.dot(weights, p2 * p3 * weight_fn)) < 1e-10

    def test_legendre_special_case(self):
        # nu = mu = 0 reduces to Legendre values
        legendre = np.polynomial.legendre.Legendre.basis(5)
        for x in (-0.8, -0.1, 0.4, 0.95):
            assert jacobi_p(5, 0.0, 0.0, x) == pytest.approx(float(legendre(x)), abs=1e-12)

    @pytest.mark.parametrize("nu", [-1.0, -1.5, -3.0, 0.5, 2.5])
    def test_nu_domain(self, nu):
        with pytest.raises(ValueError):
            jacobi_p(3, nu, 0.5, 0.2)

    def test_non_finite_arguments_refused(self):
        for args in ((3, 0.0, 1.0, math.nan), (3, 0.0, math.inf, 0.2), (3, 1.0, 0.5, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                jacobi_p(*args)
        for abs_a_sq in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                rho_value(10, 3, 1, abs_a_sq)

    @pytest.mark.parametrize("abs_a_sq", [math.nan, math.inf, -math.inf, 1e308])
    @pytest.mark.parametrize("k", [1, 3])
    def test_rho_refusal_is_that_of_jacobi_p(self, abs_a_sq, k):
        # 1e308 is finite, but 2|a|^2 - 1 is not
        with pytest.raises(ValueError) as via_jacobi:
            jacobi_p(k - 1, 1.0, 10.0 - 2 * k, 2.0 * abs_a_sq - 1.0)
        with pytest.raises(ValueError, match="finite") as via_rho:
            rho_value(10, k, 1, abs_a_sq)
        assert str(via_rho.value) == str(via_jacobi.value)

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            rho_value(10, 6, 0, 0.5)
        with pytest.raises(ValueError):
            rho_value(10, 3, 2, 0.5)


def fraction_scaled_jacobi(n, kk, i, abs_a):
    """``|a|^(n-2kk) P_(kk-1)^(i, n-2kk)(2|a|^2 - 1)`` in ``Fraction`` arithmetic,
    from the explicit sum of DLMF 18.5.8: at ``x = 2|a|^2 - 1``,
    ``(x - 1)/2 = -|b|^2`` and ``(x + 1)/2 = |a|^2``."""
    a2, m, beta = abs_a**2, kk - 1, n - 2 * kk
    terms = (comb(m + i, m - s) * comb(m + beta, s) * (a2 - 1) ** s * a2 ** (m - s) for s in range(m + 1))
    return abs_a**beta * sum(terms)


class TestJacobiRecurrence:
    """The kernel's recurrence in the cluster count, row by row, against exact values."""

    # dyadic |a|, so that |a|^(n-2kk) is rational at odd n too: |a|^2 ~ 0.01, 0.14, 0.49, 0.98
    @pytest.mark.parametrize("abs_a", [Fraction(13, 128), Fraction(3, 8), Fraction(45, 64), Fraction(127, 128)])
    def test_both_rows_match_exact_values(self, abs_a):
        a2 = float(abs_a**2)
        assert Fraction(a2) == abs_a**2
        for n in range(2, 61):
            table = special._scaled_jacobi(n, a2)
            for kk in sorted({1, 2, 3, n // 2 - 1, n // 2} & set(range(1, n // 2 + 1))):
                for i in (0, 1):
                    exact = float(fraction_scaled_jacobi(n, kk, i, abs_a))
                    assert table[i, kk - 1] == pytest.approx(exact, rel=1e-14), (n, kk, i)


class TestSumIdentity:
    def test_hadamard_example(self):
        lhs, rhs = jacobi_sum_identity(hadamard_coin(), 8, 3, 0)
        assert abs(lhs - rhs) < 1e-11

    def test_single_term_case(self):
        # n = 2k with k = 1: one term, weight 1, degree-0 polynomial
        lhs, rhs = jacobi_sum_identity(hadamard_coin(), 2, 1, 1)
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0, abs=1e-14)

    def test_a_zero_coin_rejected(self):
        with pytest.raises(DegenerateCoinError):
            jacobi_sum_identity(validate_coin([[0, 1], [1, 0]]), 8, 3, 1)

    def test_b_zero_coin(self):
        # ratio 0: only the g = 1 term, and rho = P^(i, n-2k)_(k-1)(1) = C(k-1+i, i)
        for i in (0, 1):
            lhs, rhs = jacobi_sum_identity(validate_coin([[1, 0], [0, 1]]), 10, 4, i)
            assert lhs == 1.0
            assert rhs == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [20, 21, 60, 61, 400])
    @pytest.mark.parametrize("case", ["hadamard", "random", "a_sq_0.01", "a_sq_0.99"])
    def test_rhs_is_rho_value_bit_for_bit(self, rng, n, case):
        # the right side goes straight to rho_value's memoised series; each
        # value must be that of rho_value, and of jacobi_p, which still climbs
        # through hyp2f1
        if case == "hadamard":
            coins = [hadamard_coin()]
        elif case == "random":
            coins = [random_unitary_coin(rng) for _ in range(3)]
        else:
            coins = [real_coin(math.sqrt(float(case.removeprefix("a_sq_"))))]
        for coin in coins:
            a2 = coin.abs_a_sq
            for k in range(1, n // 2 + 1):
                for i in (0, 1):
                    rho = rho_value(n, k, i, a2)
                    # |a|^2 = 0.01 at n = 400: from k = 115 the product
                    # |a|^(-2(k-1)) rho, before the division by k, is past the
                    # float range, and the identity is refused
                    if rho and math.log10(abs(rho)) - (k - 1) * math.log10(a2) > math.log10(sys.float_info.max):
                        with pytest.raises(OverflowError, match=rf"n={n}, k={k}, i={i} "):
                            jacobi_sum_identity(coin, n, k, i)
                        continue
                    _, rhs = jacobi_sum_identity(coin, n, k, i)
                    scale = a2 ** -(k - 1)
                    via_rho = scale * rho
                    via_jacobi = scale * jacobi_p(k - 1, float(i), float(n - 2 * k), 2.0 * a2 - 1.0)
                    if i == 1:
                        via_rho, via_jacobi = via_rho / k, via_jacobi / k
                    assert rhs.hex() == via_rho.hex() == via_jacobi.hex(), (k, i)

    def test_refused_past_the_float_range(self):
        # |a|^2 = 0.01 at n = 400: at k = 115 the left side's rounding (i = 0)
        # and the right side's product |a|^(-2(k-1)) rho (i = 1) leave the
        # float range; one OverflowError names the arguments, and the left
        # side's recurrence state is left whole for the calls after it
        coin, n = real_coin(0.1), 400
        for i in (0, 1):
            assert all(map(math.isfinite, jacobi_sum_identity(coin, n, 114, i)))
            with pytest.raises(OverflowError, match=rf"n=400, k=115, i={i} leaves the float range"):
                jacobi_sum_identity(coin, n, 115, i)
            lhs, rhs = jacobi_sum_identity(coin, n, 60, i)
            assert math.isfinite(lhs) and lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("abs_a_sq", [0.3, 0.6, 0.9])
    def test_parameter_sweep(self, abs_a_sq):
        coin = real_coin(math.sqrt(abs_a_sq))
        for n in range(2, 21):
            for k in range(1, n // 2 + 1):
                for i in (0, 1):
                    lhs, rhs = jacobi_sum_identity(coin, n, k, i)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
