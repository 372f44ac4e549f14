import math
import time
import weakref

import numpy as np
import pytest

import qwalk1d.engine as engine
import qwalk1d.special as special
from qwalk1d.coin import (
    coin_from_angles,
    make_qubit,
    random_qubit,
    random_unitary_coin,
    real_coin,
    validate_coin,
)
from qwalk1d.errors import CapExceededError, DegenerateCoinError, OutOfWindowError
from qwalk1d.limit import (
    KS_CELLS_CAP,
    LimitDensity,
    asymptotics_envelope,
    density,
    ks_convergence,
    limit_cdf,
    limit_moment,
    parity_smoothed_ks,
    two_point_limit,
)
from qwalk1d.special import rho_value
from qwalk1d.symmetry import is_symmetric_state

# Calibrated once from the first run of this implementation and frozen as
# regression bounds (the weak limit comes with no convergence rate).
SMOOTHED_KS_SYMMETRIC_400 = 0.0292
RAW_KS_RIGHT_400 = 0.0528

# Coin angles from |a|^2 = cos(theta)^2 ~ 0.01 (1.4706) to ~ 0.99 (0.1002).
ORACLE_THETAS = (1.4706, 1.1, 0.7, 0.1002)


def oracle_laws(rng):
    """Limit laws for ``ORACLE_THETAS`` with random phases and initial states."""
    return [
        LimitDensity(
            coin=coin_from_angles(theta, *rng.uniform(0.0, 2.0 * math.pi, 3)),
            qubit=random_qubit(rng),
        )
        for theta in ORACLE_THETAS
    ]


def mp_density(mpmath, ld):
    """The limit density in mpmath arithmetic, independent of ``limit.py``."""
    a = mpmath.mpf(ld.a_abs)
    c = mpmath.sqrt(1 - a * a)
    lam = mpmath.mpf(ld.slope)
    return lambda x: c * (1 - lam * x) / (mpmath.pi * (1 - x * x) * mpmath.sqrt(a * a - x * x))


def envelope_peak(coin, n, x, i, spread=2):
    """Local-max estimator of the oscillation envelope near ratio x = k/n.

    Pointwise values sit on a cosine and can land near its zeros; the max over
    a few adjacent k tracks the envelope itself.
    """
    k0 = round(x * n)
    lo, hi = (1 - abs(coin.a)) / 2, (1 + abs(coin.a)) / 2
    values = [
        asymptotics_envelope(coin, n, k, i)
        for k in range(k0 - spread, k0 + spread + 1)
        if 1 <= k <= n // 2 and lo < k / n < hi
    ]
    return max(values)


def count_engine_calls(monkeypatch):
    """Record, from now on, the time of every ``engine.distribution`` call and
    the ``n_max`` of every banded ``engine.sweep``."""
    computed, sweeps = [], []
    true_distribution, true_sweep = engine.distribution, engine.sweep

    def distribution(coin, qubit, n):
        computed.append(n)
        return true_distribution(coin, qubit, n)

    def sweep(coin, qubit, n_max):
        sweeps.append(n_max)
        return true_sweep(coin, qubit, n_max)

    monkeypatch.setattr(engine, "distribution", distribution)
    monkeypatch.setattr(engine, "sweep", sweep)
    return computed, sweeps


class TestDensity:
    def test_symmetric_center_value(self, hadamard, symmetric_qubit):
        ld = LimitDensity(coin=hadamard, qubit=symmetric_qubit)
        assert ld.slope == pytest.approx(0.0, abs=1e-15)
        assert density(ld, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-14)

    def test_zero_outside_support(self, hadamard, symmetric_qubit):
        ld = LimitDensity(coin=hadamard, qubit=symmetric_qubit)
        a = ld.a_abs
        for x in (-a, a, -0.99, 0.99, 2.0):
            assert density(ld, x) == 0.0

    def test_one_sided_state_closed_form(self, hadamard, right_qubit):
        ld = LimitDensity(coin=hadamard, qubit=right_qubit)
        assert ld.slope == pytest.approx(-1.0, abs=1e-14)
        for x in (-0.6, -0.2, 0.1, 0.5, 0.7):
            expected = 1.0 / (math.pi * (1.0 - x) * math.sqrt(1.0 - 2.0 * x * x))
            assert density(ld, x) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_on_fine_grid(self, rng):
        for _ in range(5):
            ld = LimitDensity(coin=random_unitary_coin(rng), qubit=random_qubit(rng))
            xs = np.linspace(-ld.a_abs, ld.a_abs, 10_001)
            assert float(np.min(density(ld, xs))) >= -1e-12

    def test_degenerate_coin_rejected(self, symmetric_qubit):
        with pytest.raises(DegenerateCoinError):
            LimitDensity(coin=validate_coin([[1, 0], [0, 1]]), qubit=symmetric_qubit)

    def test_even_density_iff_symmetric_class(self, rng):
        coin = random_unitary_coin(rng)
        # members: slope vanishes and the density is even
        alpha = 1.0 / math.sqrt(2.0)
        phase = coin.b.conjugate() * coin.a * 1j  # makes the cross term vanish
        beta = phase / abs(phase) / math.sqrt(2.0)
        member = make_qubit(alpha, beta)
        assert is_symmetric_state(coin, member)
        ld = LimitDensity(coin=coin, qubit=member)
        assert abs(ld.slope) < 1e-12
        xs = np.linspace(0.0, ld.a_abs * 0.999, 300)
        np.testing.assert_allclose(density(ld, xs), density(ld, -xs), atol=1e-12)
        # non-members: slope almost surely nonzero
        for _ in range(25):
            qubit = random_qubit(rng)
            ld = LimitDensity(coin=coin, qubit=qubit)
            assert is_symmetric_state(coin, qubit) == (abs(ld.slope) < 1e-9)


class TestCdf:
    def test_full_mass(self, hadamard, symmetric_qubit):
        ld = LimitDensity(coin=hadamard, qubit=symmetric_qubit)
        assert limit_cdf(ld, ld.a_abs) == pytest.approx(1.0, abs=1e-8)

    def test_normalization_random_ensemble(self, rng):
        for _ in range(20):
            ld = LimitDensity(coin=random_unitary_coin(rng), qubit=random_qubit(rng))
            assert limit_cdf(ld, ld.a_abs) == pytest.approx(1.0, abs=1e-8)

    def test_even_case_median(self, hadamard, symmetric_qubit):
        ld = LimitDensity(coin=hadamard, qubit=symmetric_qubit)
        assert limit_cdf(ld, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_right_leaning_median(self, hadamard, right_qubit):
        ld = LimitDensity(coin=hadamard, qubit=right_qubit)
        assert limit_cdf(ld, 0.0) < 0.5
        assert limit_cdf(ld, 0.0) == pytest.approx(0.25, abs=1e-9)

    def test_matches_independent_quadrature(self, rng):
        # 30-digit tanh-sinh quadrature handles the endpoint singularity on
        # its own and shares nothing with the closed form
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for ld in oracle_laws(rng):
                f = mp_density(mpmath, ld)
                a = ld.a_abs
                for x in (-0.7 * a, -0.1 * a, 0.4 * a, 0.95 * a):
                    reference = float(mpmath.quad(f, [-a, x]))
                    assert limit_cdf(ld, x) == pytest.approx(reference, abs=1e-12)

    def test_derivative_is_density(self, rng):
        for ld in oracle_laws(rng):
            a = ld.a_abs
            h = 1e-5 * a
            for x in (-0.8 * a, -0.3 * a, 0.0, 0.5 * a, 0.8 * a):
                slope = (limit_cdf(ld, x + h) - limit_cdf(ld, x - h)) / (2.0 * h)
                assert slope == pytest.approx(density(ld, x), rel=1e-6)

    def test_array_matches_scalar_calls(self, rng):
        for ld in oracle_laws(rng):
            xs = np.linspace(-1.2 * ld.a_abs, 1.2 * ld.a_abs, 101)
            xs = np.append(xs, [-ld.a_abs, ld.a_abs])
            scalars = [limit_cdf(ld, float(x)) for x in xs]
            assert all(type(value) is float for value in scalars)
            np.testing.assert_array_equal(limit_cdf(ld, xs), scalars)


class TestMoments:
    def test_symmetric_spread_constant(self, hadamard, symmetric_qubit):
        ld = LimitDensity(coin=hadamard, qubit=symmetric_qubit)
        assert limit_moment(ld, 1) == pytest.approx(0.0, abs=1e-14)
        assert math.sqrt(limit_moment(ld, 2)) == pytest.approx(0.5411961001461969, abs=1e-12)

    def test_one_sided_constants(self, hadamard, right_qubit):
        ld = LimitDensity(coin=hadamard, qubit=right_qubit)
        mean = limit_moment(ld, 1)
        sd = math.sqrt(limit_moment(ld, 2) - mean**2)
        assert mean == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, abs=1e-12)
        assert sd == pytest.approx(math.sqrt((math.sqrt(2.0) - 1.0) / 2.0), abs=1e-12)

    def test_quadrature_consistent_with_closed_forms(self, rng):
        # independent 30-digit tanh-sinh reference for the moment recurrence
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for ld in oracle_laws(rng):
                f = mp_density(mpmath, ld)
                a = ld.a_abs
                for m in range(1, 9):
                    reference = float(mpmath.quad(lambda t: t**m * f(t), [-a, 0, a]))
                    assert limit_moment(ld, m) == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("a_sq", [1e-4, 0.01, 0.3, 0.5, 0.7, 0.99])
    def test_relative_accuracy_against_40_digits(self, a_sq):
        # E(Z^m) = (-lambda)^(m odd) c sum_(i>=j) t_i, j = ceil(m/2), as a 40-digit 2F1
        mpmath = pytest.importorskip("mpmath")
        coin = coin_from_angles(math.acos(math.sqrt(a_sq)), 0.4, 1.3, 0.7)
        ld = LimitDensity(coin=coin, qubit=make_qubit(0.8, 0.1 + 0.6j))
        with mpmath.workdps(40):
            a2 = mpmath.mpf(ld.a_abs) ** 2
            for m in range(1, 13):
                j = (m + 1) // 2
                t_j = a2**j * mpmath.binomial(2 * j, j) / mpmath.mpf(4) ** j
                tail = mpmath.sqrt(1 - a2) * t_j * mpmath.hyp2f1(1, j + mpmath.mpf(1) / 2, j + 1, a2)
                reference = float(tail if m % 2 == 0 else -mpmath.mpf(ld.slope) * tail)
                assert limit_moment(ld, m) == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_moment_bound(self, rng):
        for _ in range(10):
            ld = LimitDensity(coin=random_unitary_coin(rng), qubit=random_qubit(rng))
            for m in range(1, 9):
                assert abs(limit_moment(ld, m)) <= 2.0 * ld.a_abs**m + 1e-9

    def test_finite_time_moments_approach_limit(self, hadamard, right_qubit):
        from qwalk1d.analytic import law

        n = 500
        dist = law(hadamard, right_qubit, n)
        ld = LimitDensity(coin=hadamard, qubit=right_qubit)
        scaled_mean = dist.moment(1) / n
        scaled_rms = math.sqrt(dist.moment(2)) / n
        assert scaled_mean == pytest.approx(limit_moment(ld, 1), abs=5e-3)
        assert scaled_rms == pytest.approx(math.sqrt(limit_moment(ld, 2)), abs=5e-3)


class TestNormalizationSecondRoute:
    def test_hypergeometric_chain(self, rng):
        # the full mass also equals sqrt(1-|a|^2) * 2F1(1/2, 1; 1; |a|^2)
        # (the slope term integrates to zero by oddness)
        from qwalk1d.special import hyp2f1

        for _ in range(10):
            ld = LimitDensity(coin=random_unitary_coin(rng), qubit=random_qubit(rng))
            a_sq = ld.a_abs**2
            chain = math.sqrt(1.0 - a_sq) * hyp2f1(0.5, 1.0, 1.0, a_sq)
            assert chain == pytest.approx(1.0, abs=1e-12)
            assert limit_cdf(ld, ld.a_abs) == pytest.approx(chain, abs=1e-8)


class TestTwoPointLimit:
    def test_one_sided(self, left_qubit):
        tp = two_point_limit(left_qubit)
        assert (tp.p_minus, tp.p_plus) == (1.0, 0.0)

    def test_balanced(self, symmetric_qubit):
        tp = two_point_limit(symmetric_qubit)
        assert tp.p_minus == pytest.approx(0.5, abs=1e-15)
        assert tp.p_plus == pytest.approx(0.5, abs=1e-15)

    def test_moments(self):
        tp = two_point_limit(make_qubit(0.6, 0.8))
        assert tp.moment(1) == pytest.approx(0.64 - 0.36, abs=1e-15)
        assert tp.moment(2) == pytest.approx(1.0, abs=1e-15)


class TestConvergence:
    def test_distances_shrink(self, hadamard, symmetric_qubit):
        rows = ks_convergence(hadamard, symmetric_qubit, [20, 80, 320])
        d = [ks for _, ks, _ in rows]
        assert d[0] > d[1] > d[2]
        assert all(0.0 <= x <= 1.0 for x in d)

    def test_time_one_two_point_law(self, hadamard, symmetric_qubit):
        rows = ks_convergence(hadamard, symmetric_qubit, [1])
        # X_1 has atoms at -1 and 1, both outside the support: KS = 1/2 mass
        assert rows[0][1] == pytest.approx(0.5, abs=1e-9)

    def test_input_guards(self, hadamard, symmetric_qubit):
        with pytest.raises(ValueError):
            ks_convergence(hadamard, symmetric_qubit, [0])
        with pytest.raises(CapExceededError):
            ks_convergence(hadamard, symmetric_qubit, [engine.LAW_TIME_CAP + 1])

    def test_times_checked_before_evolving(self, hadamard, symmetric_qubit, monkeypatch):
        computed, sweeps = count_engine_calls(monkeypatch)
        with pytest.raises(CapExceededError):
            ks_convergence(hadamard, symmetric_qubit, [400, engine.LAW_TIME_CAP + 1])
        with pytest.raises(ValueError):
            ks_convergence(hadamard, symmetric_qubit, [400, 0])
        assert computed == []
        assert sweeps == []

    def test_repeated_unordered_times_match_single_reports(self, rng):
        coin, qubit = random_unitary_coin(rng), random_qubit(rng)
        rows = ks_convergence(coin, qubit, [40, 10, 40])
        singles = [ks_convergence(coin, qubit, [n]) for n in (40, 10, 40)]
        assert rows == [single[0] for single in singles]

    def test_holds_one_law_at_a_time(self, rng, monkeypatch):
        # each law is dropped once its row is made; the engine's cache keeps
        # only the last one
        coin, qubit = random_unitary_coin(rng), random_qubit(rng)
        laws = []
        true_distribution = engine.distribution

        def watched(coin, qubit, n):
            alive = [law().n for law in laws if law() is not None]
            assert len(alive) <= 1, (n, alive)
            dist = true_distribution(coin, qubit, n)
            laws.append(weakref.ref(dist))
            return dist

        monkeypatch.setattr(engine, "distribution", watched)
        rows = ks_convergence(coin, qubit, [40, 10, 80, 20, 40, 160])
        assert [row[0] for row in rows] == [40, 10, 80, 20, 40, 160]
        assert len(laws) == 5

    def test_cells_at_the_cap_are_accepted(self, hadamard, symmetric_qubit, uniform_laws, times_of_cells):
        times = times_of_cells(KS_CELLS_CAP)
        assert len(set(times)) == len(times) and max(times) == engine.LAW_TIME_CAP
        # the cap counts distinct times: repeats add rows, not cells
        rows = ks_convergence(hadamard, symmetric_qubit, times + times[:3])
        assert [row[0] for row in rows] == times + times[:3]

    def test_cells_over_the_cap_are_refused_before_any_law(
        self, hadamard, symmetric_qubit, monkeypatch, times_of_cells
    ):
        def no_engine(*args):
            raise AssertionError("an over-cap run must be refused before the engine runs")

        monkeypatch.setattr(engine, "distribution", no_engine)
        with pytest.raises(CapExceededError, match=f"exceed the cap {KS_CELLS_CAP}"):
            ks_convergence(hadamard, symmetric_qubit, times_of_cells(KS_CELLS_CAP + 1))
        # 50 pairs (n, n + 1) up to the time cap
        with pytest.raises(CapExceededError, match=f"exceed the cap {KS_CELLS_CAP}"):
            parity_smoothed_ks(hadamard, symmetric_qubit, range(engine.LAW_TIME_CAP - 99, engine.LAW_TIME_CAP, 2))

    def test_parity_smoothed_evolves_once(self, hadamard, symmetric_qubit, monkeypatch):
        computed, sweeps = count_engine_calls(monkeypatch)
        parity_smoothed_ks(hadamard, symmetric_qubit, [50, 100])
        assert computed == [50, 51, 100, 101]
        assert sweeps == []

    def test_parity_smoothed_monotone(self, hadamard, symmetric_qubit):
        smoothed = parity_smoothed_ks(hadamard, symmetric_qubit, [50, 100, 200, 400])
        values = [v for _, v in smoothed]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))
        assert values[-1] <= SMOOTHED_KS_SYMMETRIC_400

    def test_one_sided_regression_bound(self, hadamard, right_qubit):
        rows = ks_convergence(hadamard, right_qubit, [400])
        assert rows[0][1] <= RAW_KS_RIGHT_400


class TestEnvelope:
    def test_window_guard(self, hadamard):
        with pytest.raises(OutOfWindowError):
            asymptotics_envelope(hadamard, 40, 2, 0)

    @pytest.mark.parametrize("n, k, i", [(0, 1, 0), (0, 0, 0), (40, 0, 0), (40, 21, 0), (40, 16, 2)])
    def test_argument_guard(self, hadamard, n, k, i):
        # checked before k / n is formed, so n = 0 is a ValueError too
        with pytest.raises(ValueError, match="1 <= k <= n//2"):
            asymptotics_envelope(hadamard, n, k, i)

    def test_matches_exact_jacobi_value(self, hadamard):
        # rho_value sums the terminating 2F1 exactly in rational arithmetic.
        n = 1000
        for coin in (hadamard, real_coin(0.3)):
            for k in (450, 499):
                for i in (0, 1):
                    exact = abs(rho_value(n, k, i, coin.abs_a_sq)) * abs(coin.a) ** (n - 2 * k) * math.sqrt(n)
                    assert asymptotics_envelope(coin, n, k, i) == pytest.approx(exact, rel=1e-12)

    def test_neighbouring_k_share_one_kernel_call(self, monkeypatch):
        # the callers read about five neighbouring k of one time: one table
        calls = []
        true_kernel = special._scaled_jacobi

        def counting(n, a2):
            calls.append(n)
            return true_kernel(n, a2)

        monkeypatch.setattr(special, "_scaled_jacobi", counting)
        special._jacobi_table.cache_clear()
        coin, n = real_coin(0.3), 1000
        for k in range(448, 453):
            exact = abs(rho_value(n, k, 0, coin.abs_a_sq)) * abs(coin.a) ** (n - 2 * k) * math.sqrt(n)
            assert asymptotics_envelope(coin, n, k, 0) == pytest.approx(exact, rel=1e-12)
        assert calls == [n]

    def test_time_over_the_cap_refused_before_the_table(self, hadamard, monkeypatch):
        def no_kernel(n, a2):
            raise AssertionError("a time over the cap must build no kernel table")

        monkeypatch.setattr(special, "_scaled_jacobi", no_kernel)
        n = engine.LAW_TIME_CAP + 1
        with pytest.raises(CapExceededError, match=f"exceeds the cap {engine.LAW_TIME_CAP}"):
            asymptotics_envelope(hadamard, n, n // 4, 0)

    def test_large_n_small_amplitude(self):
        start = time.perf_counter()
        value = asymptotics_envelope(real_coin(0.3), 6000, 2700, 0)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(value) and value > 0.0

    def test_hadamard_bounded(self, hadamard):
        for i in (0, 1):
            values = [envelope_peak(hadamard, n, 0.4, i) for n in (40, 80, 160)]
            assert max(values) / min(values) < 5.0

    def test_other_amplitude_bounded(self):
        coin = real_coin(0.6)
        values = [envelope_peak(coin, n, 0.5, 0) for n in (40, 80, 160)]
        assert max(values) / min(values) < 5.0
