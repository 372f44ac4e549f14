import cmath
import math
import sys
import time
from fractions import Fraction
from itertools import islice
from math import fsum

import numpy as np
import pytest

import qwalk1d.paths as paths
from qwalk1d import engine
from qwalk1d.analytic import law
from qwalk1d.coin import (
    Coin,
    Letter,
    coin_from_angles,
    hadamard_coin,
    letter_matrix,
    make_qubit,
    random_qubit,
    random_unitary_coin,
    validate_coin,
)
from qwalk1d.engine import (
    distribution,
    evolve,
    sweep,
)
from qwalk1d.errors import CapExceededError, DegenerateCoinError
from qwalk1d.limit import LimitDensity, ks_convergence, ks_distance
from qwalk1d.paths import StepCount, path_sum


def fields_at(coin, qubit, times):
    """The banded field at each of the increasing ``times``, from one sweep."""
    return (field for field in sweep(coin, qubit, times[-1]) if field.n in times)


def test_initial_field(symmetric_qubit):
    field = next(sweep(hadamard_coin(), symmetric_qubit, 0))
    assert field.n == 0
    np.testing.assert_allclose(field.amplitude(0), symmetric_qubit.vector)
    assert field.total_probability() == pytest.approx(1.0, abs=1e-14)


def test_single_step_splits_by_letters(rng):
    coin = random_unitary_coin(rng)
    qubit = random_qubit(rng)
    _, field = sweep(coin, qubit, 1)
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


def test_distribution_sums_match_direct_numpy_sums(rng):
    dist = distribution(random_unitary_coin(rng), random_qubit(rng), 30)
    ks = dist.positions.astype(float)
    for xi in (-2.5, 0.0, 0.7, math.pi):
        direct = complex(np.sum(np.exp(1j * xi * ks) * dist.probs))
        assert abs(dist.characteristic_function(xi) - direct) < 1e-14
    for m in (1, 2, 3, 6):
        assert dist.moment(m) == pytest.approx(float(np.dot(ks**m, dist.probs)), rel=1e-13, abs=1e-13)
    assert dist.mean() == dist.moment(1)


def reference_characteristic_function(dist, xi: float) -> complex:
    """The one-point sum of the per-point method: one ``fsum`` per part."""
    phase = dist.positions * xi
    return complex(fsum((dist.probs * np.cos(phase)).tolist()), fsum((dist.probs * np.sin(phase)).tolist()))


def reference_moment(dist, m: int) -> float:
    """The one-order sum of the per-order method."""
    return fsum((dist.positions.astype(float) ** m * dist.probs).tolist())


def bits(values) -> list[int]:
    """The bit patterns of float or complex values, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(values).view(np.uint64).tolist()


@pytest.mark.parametrize("n", (0, 1, 2, 160, 5000))
@pytest.mark.parametrize("case", ("hadamard", "random", "a_zero", "b_zero"))
def test_tables_equal_the_per_element_sums_bit_for_bit(case, n, rng):
    # at n = 5000 a table of 32 points is formed in several blocks of rows
    coin = random_unitary_coin(rng) if case == "random" else fourier_case(case, rng)
    qubit = random_qubit(rng)
    xis = [-math.pi + 2.0 * math.pi * j / 32 for j in range(32)]
    orders = np.arange(1, 5)
    for dist in (distribution(coin, qubit, n), law(coin, qubit, n)):
        table = dist.characteristic_function(xis)
        assert table.shape == (32,)
        assert bits(table) == bits([reference_characteristic_function(dist, xi) for xi in xis])
        assert bits(dist.moment(orders)) == bits([reference_moment(dist, m) for m in orders])
        # a scalar argument is the one-entry table
        one = dist.characteristic_function(xis[5])
        assert type(one) is complex and bits([one]) == bits(table[5:6])
        assert type(dist.moment(3)) is float and dist.moment(3) == reference_moment(dist, 3)


def tiled(rows) -> np.ndarray:
    """The rows repeated until the table has enough terms to take the cascade."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    count = -(-engine._CASCADE_TERMS // rows.shape[1])
    return np.resize(rows, (max(count, len(rows)), rows.shape[1]))


def fsum_outcome(row: list[float]):
    """``fsum`` of the row, or the type of the exception it raises."""
    try:
        return fsum(row)
    except (OverflowError, ValueError) as error:
        return type(error)


def mirrored_rows(rng) -> np.ndarray:
    """Rows of ``x, tiny, -reversed(x)``: they cancel to about 1e-20."""
    half = rng.standard_normal((64, 50)) * 10.0 ** rng.integers(-20, 3, size=(64, 50))
    return np.hstack([half, rng.standard_normal((64, 1)) * 1e-20, -half[:, ::-1]])


def symmetric_sine_rows(rng) -> np.ndarray:
    """The imaginary-part rows of the Hadamard law from the symmetric state,
    whose mirror symmetry cancels them to rounding noise (and to ±0 at xi = 0)."""
    dist = law(hadamard_coin(), make_qubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)), 160)
    xis = np.linspace(-math.pi, math.pi, 33).reshape(-1, 1)
    return np.sin(xis * dist.positions) * dist.probs


EXACT_SUM_ROWS = {
    "mirrored": mirrored_rows,
    "symmetric_sine": symmetric_sine_rows,
    "halfway_ties": lambda rng: [[1.0, 2.0**-53], [1.0, 3 * 2.0**-53], [-1.0, -(2.0**-53)], [1.0, -(2.0**-54)],
                                 [2.0**53, 1.0], [2.0**53 + 2, 1.0], [0.5, 2.0**-54]],
    "hidden_ties": lambda rng: [[1.0, 2.0**-54, 2.0**-54], [1.0, 2.0**-53, 2.0**-200], [2.0**-53, 1.0, -(2.0**-200)],
                                [3.0, 2.0**-52, 2.0**-53]],
    "signed_zeros": lambda rng: np.where(rng.random((64, 9)) < 0.5, 0.0, -0.0),
    "negative_zeros": lambda rng: np.full((4, 9), -0.0),
    "subnormals": lambda rng: rng.integers(-6, 7, size=(64, 11)) * 2.0**-1074,
    "wide_range": lambda rng: rng.standard_normal((64, 40)) * 10.0 ** rng.integers(-300, 301, size=(64, 40)),
    "length_one": lambda rng: rng.standard_normal((64, 1)) * 10.0 ** rng.integers(-300, 301, size=(64, 1)),
    "length_two": lambda rng: rng.standard_normal((64, 2)) * 10.0 ** rng.integers(-30, 31, size=(64, 2)),
    "near_1e304": lambda rng: rng.standard_normal((64, 30)) * 1e304,
    "near_overflow": lambda rng: rng.choice([2.0**1019, -(2.0**1019), 2.0**1021, 1.0], size=(64, 5)),
}


def tie_rows(rng, width=4096) -> np.ndarray:
    """Rows of integers that sum to 0 exactly, then ``x`` and half an ulp of
    ``x``: each row's one rounding error is a halfway tie.  Ties round down
    and up to even, at both signs and at scales from 2**-600 to 2**600."""
    heads = [(1.0, 2.0**-53), (1.0 + 2.0**-52, 2.0**-53), (3.0, 2.0**-52), (3.0 + 2.0**-51, 2.0**-52)]
    rows = []
    for x, half in heads:
        for sign in (1.0, -1.0):
            ints = rng.integers(-(2**20), 2**20, size=width - 3).astype(float)
            scale = 2.0 ** int(rng.integers(-600, 601))
            rows.append([*ints, -ints.sum(), sign * scale * x, sign * scale * half])
    return np.array(rows)


class TestExactSums:
    """``engine._exact_sums`` is ``math.fsum`` of each row, bit for bit."""

    @pytest.mark.parametrize("kind", EXACT_SUM_ROWS)
    def test_rows_equal_fsum_bit_for_bit(self, kind, rng):
        table = tiled(EXACT_SUM_ROWS[kind](rng))
        assert bits(engine._exact_sums(table)) == bits([fsum(row) for row in table.tolist()])

    @pytest.mark.parametrize(
        "special",
        ([math.inf, 1.0, 2.0, 0.0], [1.0, -math.inf, 0.0, 0.0], [math.inf, -math.inf, 1.0, 0.0], [math.nan, 1.0, 0.0, 0.0],
         [math.inf, math.nan, 1.0, 0.0], [1.5e308, 1.5e308, -1.5e308, 0.0], [1e308, 1e308, 1e308, 0.0],
         # every partial is finite, but fsum's own running sum rounds up to inf
         [sys.float_info.max, 2.0**969, 2.0**969, -sys.float_info.max]),
    )
    def test_non_finite_and_overflowing_rows_are_fsums(self, special, rng):
        table = tiled(rng.standard_normal((64, 4)))
        table[3] = special
        outcome = fsum_outcome(special)
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                engine._exact_sums(table)
        else:
            assert bits(engine._exact_sums(table)) == bits([fsum(row) for row in table.tolist()])

    def test_partials_are_checked_not_assumed(self, rng, monkeypatch):
        # partials one ulp off the sequential ones carry no exact errors: every
        # row must go to fsum
        true_cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda x, axis: np.nextafter(true_cumsum(x, axis=axis), np.inf))
        table = tiled(mirrored_rows(rng))
        assert bits(engine._exact_sums(table)) == bits([fsum(row) for row in table.tolist()])

    def test_tables_below_the_size_constant_are_summed_by_fsum(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "fsum", lambda row: calls.append(row) or fsum(row))
        width = 64
        for rows, fsums in ((engine._CASCADE_TERMS // width - 1, engine._CASCADE_TERMS // width - 1),
                            (engine._CASCADE_TERMS // width, 0)):
            # rows of random doubles can tie (about one in a hundred); these sums
            # are exact, so the cascade certifies every row
            table = rng.integers(1, 2**40, size=(rows, width)) * 2.0**-30
            calls.clear()
            assert bits(engine._exact_sums(table)) == bits([fsum(row) for row in table.tolist()])
            assert len(calls) == fsums

    @pytest.fixture
    def passes(self, monkeypatch):
        """The passes of the cascade (its ``np.cumsum`` calls) and the rows sent to ``fsum``."""
        calls = {"cumsum": 0, "fsum": 0}
        true_cumsum = np.cumsum

        def cumsum(x, axis):
            calls["cumsum"] += 1
            return true_cumsum(x, axis=axis)

        def counted_fsum(row):
            calls["fsum"] += 1
            return fsum(row)

        monkeypatch.setattr(np, "cumsum", cumsum)
        monkeypatch.setattr(engine, "fsum", counted_fsum)
        return calls

    def test_a_tie_row_ends_after_one_pass(self, rng, passes):
        # one nonzero error: tau is exact, and hi is the tie rounded to even
        table = tie_rows(rng)
        expected = [fsum(row) for row in table.tolist()]
        assert bits(engine._exact_sums(table)) == bits(expected)
        assert passes == {"cumsum": 1, "fsum": 0}
        # the ties round down and up, at both signs
        rounded_up = np.abs(expected) > np.abs(table[:, -2])
        assert {(math.copysign(1.0, s), up) for s, up in zip(expected, rounded_up.tolist())} == {
            (1.0, False), (1.0, True), (-1.0, False), (-1.0, True)}

    def test_the_moments_of_a_symmetric_law_need_no_fsum(self, hadamard, symmetric_qubit, passes):
        # the order-9 row ties in the cascade's third pass; no row goes to fsum
        dist = law(hadamard, symmetric_qubit, 63)
        table = dist.positions.astype(float) ** np.arange(1, 71).reshape(-1, 1) * dist.probs
        assert bits(engine._exact_sums(table)) == bits([fsum(row) for row in table.tolist()])
        assert passes["fsum"] == 0

    def test_law_tables_take_the_cascade(self, hadamard, symmetric_qubit, monkeypatch):
        # 64 rows of 161 terms; only the xi = 0 sine row, all ±0, goes to fsum
        calls = []
        monkeypatch.setattr(engine, "fsum", lambda row: calls.append(row) or fsum(row))
        xis = [-math.pi + 2.0 * math.pi * j / 32 for j in range(32)]
        for dist in (distribution(hadamard, symmetric_qubit, 160), law(hadamard, symmetric_qubit, 160)):
            calls.clear()
            dist.characteristic_function(xis)
            assert len(calls) <= 2
        calls.clear()
        distribution(hadamard, symmetric_qubit, 40).moment(1)
        assert len(calls) == 1


def test_distribution_is_cached_and_read_only(rng):
    coin, qubit = random_unitary_coin(rng), random_qubit(rng)
    dist = distribution(coin, qubit, 40)
    assert distribution(coin, qubit, 40) is dist
    with pytest.raises(ValueError):
        dist.probs[0] = 0.5


def test_distribution_refuses_times_over_the_cap(hadamard, symmetric_qubit, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("an over-cap time must be refused before any array is built")

    monkeypatch.setattr(np, "exp", no_transform)
    monkeypatch.setattr(np.fft, "fft", no_transform)
    with pytest.raises(CapExceededError, match="exceeds the cap"):
        distribution(hadamard, symmetric_qubit, engine.LAW_TIME_CAP + 1)


FOURIER_TIMES = (0, 1, 2, 7, 40, 161, 800, 2000)


def fourier_case(name: str, rng) -> Coin:
    """Hadamard, coins with random phases at |a|^2 ~ 0.01 / 0.5 / 0.99, and the
    degenerate b = 0 and a = 0 coins (random unit entries)."""
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    if name == "hadamard":
        return hadamard_coin()
    if name == "b_zero":
        return validate_coin([[cmath.exp(1j * phases[0]), 0], [0, cmath.exp(1j * phases[1])]])
    if name == "a_zero":
        return validate_coin([[0, cmath.exp(1j * phases[0])], [cmath.exp(1j * phases[1]), 0]])
    a_sq = float(name.removeprefix("a_sq_"))
    return coin_from_angles(math.acos(math.sqrt(a_sq)), *phases)


FOURIER_CASES = ("hadamard", "a_sq_0.01", "a_sq_0.5", "a_sq_0.99", "b_zero", "a_zero")


class TestFourierRoute:
    """``distribution`` (Fourier route) against the banded recurrence."""

    @pytest.mark.parametrize("case", FOURIER_CASES)
    def test_matches_banded_evolution_at_every_position(self, case, rng):
        coin, qubit = fourier_case(case, rng), random_qubit(rng)
        for n, field in zip(FOURIER_TIMES, fields_at(coin, qubit, FOURIER_TIMES)):
            banded = field.to_distribution()
            dist = distribution(coin, qubit, n)
            assert dist.n == n
            assert np.max(np.abs(dist.probs - banded.probs)) <= 1e-13, n
            # both routes raise the same rounded coin to the n-th power, so they
            # drift from total probability 1 by the same amount
            assert abs(dist.total() - banded.total()) <= 1e-13, n
            assert abs(dist.total() - 1.0) <= 1e-10, n

    @pytest.mark.parametrize("case", FOURIER_CASES)
    def test_laws_over_sparse_and_repeated_times(self, case, rng, monkeypatch):
        # ks_convergence jumps to each distinct time once, in increasing order,
        # and refuses a coin without a continuous limit before computing a law
        coin, qubit = fourier_case(case, rng), random_qubit(rng)
        times = [800, 7, 161, 7, 1, 800, 2]
        computed = []
        true_distribution = engine.distribution

        def counting(coin, qubit, n):
            computed.append(true_distribution(coin, qubit, n))
            return computed[-1]

        monkeypatch.setattr(engine, "distribution", counting)
        if coin.is_degenerate:
            with pytest.raises(DegenerateCoinError):
                ks_convergence(coin, qubit, times)
            assert computed == []
            return
        rows = ks_convergence(coin, qubit, times)
        assert [dist.n for dist in computed] == [1, 2, 7, 161, 800]
        for dist, field in zip(computed, fields_at(coin, qubit, [dist.n for dist in computed])):
            assert np.max(np.abs(dist.probs - field.to_distribution().probs)) <= 1e-13
        ld = LimitDensity(coin=coin, qubit=qubit)
        by_time = {dist.n: dist for dist in computed}
        assert rows == [(n, ks_distance(ld, by_time[n]), by_time[n].total()) for n in times]

    def test_b_zero_atoms_match_exact_powers(self, rng):
        # A b = 0 coin carries the two atoms |a|^(2n)|alpha|^2 and |d|^(2n)|beta|^2,
        # exactly computable for the float entries.  Repeated squaring carries
        # the rounding of the early squares up to n/2-fold into the n-th power:
        # in double precision these atoms drift up to ~1e-13 at n = 2000.
        n = 2000
        for _ in range(10):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
            a, d = cmath.exp(1j * phases[0]), cmath.exp(1j * phases[1])
            coin, qubit = validate_coin([[a, 0], [0, d]]), random_qubit(rng)
            dist = distribution(coin, qubit, n)
            for k, entry, weight in ((-n, a, qubit.alpha), (n, d, qubit.beta)):
                exact = float(
                    (Fraction(entry.real) ** 2 + Fraction(entry.imag) ** 2) ** n
                    * (Fraction(weight.real) ** 2 + Fraction(weight.imag) ** 2)
                )
                assert abs(dist.probability(k) - exact) <= 1e-14

    @pytest.mark.parametrize("case", ["b_zero", "a_zero"])
    def test_atoms_at_the_time_cap_match_exact_powers(self, case, rng):
        # At n = 20000 the last two of the 14 squarings run in double.  A b = 0
        # coin carries the atoms |a|^(2n)|alpha|^2 at -n and |d|^(2n)|beta|^2
        # at n; at even n an a = 0 coin carries the one atom
        # |b|^n|c|^n (|alpha|^2 + |beta|^2) at the origin.  On these 5 coins
        # each the worst error was 5.1e-15 (b = 0) and 2.7e-15 (a = 0), and
        # over 30 seeds 5.1e-15 and 3.2e-15, the same as with every squaring
        # in long double.
        n = 20000

        def norm_sq(x):  # |x|^2 of a stored complex, exactly
            return Fraction(x.real) ** 2 + Fraction(x.imag) ** 2

        for _ in range(5):
            coin, qubit = fourier_case(case, rng), random_qubit(rng)
            alpha, beta = norm_sq(qubit.alpha), norm_sq(qubit.beta)
            if case == "b_zero":
                atoms = {-n: norm_sq(coin.a) ** n * alpha, n: norm_sq(coin.d) ** n * beta}
            else:
                atoms = {0: (norm_sq(coin.b) * norm_sq(coin.c)) ** (n // 2) * (alpha + beta)}
            dist = distribution(coin, qubit, n)
            for k, exact in atoms.items():
                assert abs(dist.probability(k) - float(exact)) <= 2e-14, k

    def test_negative_time_rejected(self, hadamard, symmetric_qubit):
        with pytest.raises(ValueError):
            distribution(hadamard, symmetric_qubit, -1)

    def test_n_12800_within_half_a_second(self, hadamard, symmetric_qubit):
        distribution(hadamard, symmetric_qubit, 8)  # warm imports before timing
        start = time.perf_counter()
        dist = distribution(hadamard, symmetric_qubit, 12800)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        assert len(dist.probs) == 12801
        assert abs(dist.total() - 1.0) <= 1e-10
        assert abs(dist.mean()) <= 1e-9  # the symmetric state stays mirror-symmetric


def dyadic(values) -> tuple[int, list[tuple[int, int]]]:
    """``(E, [x * 2^E as (re, im) integers])`` for the complex floats ``values``,
    with ``E`` the smallest exponent that makes every part an integer."""
    ratios = [part.as_integer_ratio() for value in values for part in (value.real, value.imag)]
    e = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (e - den.bit_length() + 1) for num, den in ratios]
    return e, list(zip(ints[::2], ints[1::2]))


def exact_laws(coin: Coin, qubit, times):
    """Yield ``(n, law)``, the exact law of the coin and qubit as stored, at each
    of the increasing ``times``.

    The banded recurrence runs in Gaussian integers over one power of two per
    time, and each probability is rounded once, by the correctly rounded
    integer true division.  The stored coin is not exactly unitary, so the
    exact total differs from 1 by its own rounding.
    """
    ec, (a, b, c, d) = dyadic([coin.a, coin.b, coin.c, coin.d])
    eq, state = dyadic([qubit.alpha, qubit.beta])
    zero = (0, 0)
    amps = [tuple(state)]
    for n in range(max(times) + 1):
        if n in times:
            scale = 1 << 2 * (eq + n * ec)
            yield n, np.array([(l[0] ** 2 + l[1] ** 2 + r[0] ** 2 + r[1] ** 2) / scale for l, r in amps])
        lefts = [combine(a, b, l, r) for l, r in amps] + [zero]
        rights = [zero] + [combine(c, d, l, r) for l, r in amps]
        amps = list(zip(lefts, rights))


def combine(x, y, left, right):
    """``x * left + y * right`` in Gaussian integers, each an ``(re, im)`` pair."""
    return (x[0] * left[0] - x[1] * left[1] + y[0] * right[0] - y[1] * right[1],
            x[0] * left[1] + x[1] * left[0] + y[0] * right[1] + y[1] * right[0])


def exact_path_integers(coin: Coin, n_max: int):
    """Yield ``(n, xis)`` for ``n = 1..n_max``: item ``m`` of ``xis`` is ``Xi(n - m, m)``
    of the coin as stored, times ``2^(E n)``, as two rows of two Gaussian integers,
    with ``2^E`` the coin's common denominator.

    The operator recurrence ``Xi(l, m) = P Xi(l - 1, m) + Q Xi(l, m - 1)`` (the
    leftmost letter acts last) runs in Gaussian integers.  ``P X`` has row 0
    ``a X[0] + b X[1]`` and row 1 zero; ``Q X`` has row 0 zero and row 1
    ``c X[0] + d X[1]``.
    """
    _, (a, b, c, d) = dyadic([coin.a, coin.b, coin.c, coin.d])

    def row(x, y, xi):  # x * xi[0] + y * xi[1], entry by entry
        return tuple(combine(x, y, top, bottom) for top, bottom in zip(*xi))

    zero = ((0, 0), (0, 0))
    xis = [(((1, 0), (0, 0)), ((0, 0), (1, 0)))]  # the identity at time 0, by rows
    for n in range(1, n_max + 1):
        xis = [(zero if m == n else row(a, b, xis[m]), zero if m == 0 else row(c, d, xis[m - 1]))
               for m in range(n + 1)]
        yield n, xis


def exact_path_sums(coin: Coin, n_max: int):
    """Yield ``(n, xis)`` for ``n = 1..n_max``: row ``m`` of ``xis`` is ``Xi(n - m, m)``
    of the coin as stored, each entry of :func:`exact_path_integers` rounded once,
    as an ``(n + 1, 2, 2)`` array."""
    e, _ = dyadic([coin.a, coin.b, coin.c, coin.d])
    for n, xis in exact_path_integers(coin, n_max):
        scale = 1 << e * n
        yield n, np.array([[[complex(re / scale, im / scale) for re, im in r] for r in xi] for xi in xis])


#: Times of the exact law: its integers grow by about 55 bits a step, and on a
#: 2-vCPU VM one law at n = 120 takes about 20 ms to round, the whole
#: evolution to n = 120 about 90 ms.
EXACT_TIMES = (0, 1, 2, 3, 7, 8, 40, 119, 120)


class TestExactLaw:
    """Every float route of the law against the exact law of the stored coin."""

    def test_dyadic_is_exact(self):
        values = [complex(0.1, -3.0), complex(2.5, 0.0)]
        e, ints = dyadic(values)
        assert [complex(re / 2**e, im / 2**e) for re, im in ints] == values

    def test_hadamard_law_at_small_times(self, hadamard, symmetric_qubit):
        laws = dict(exact_laws(hadamard, symmetric_qubit, (0, 1, 3)))
        # the stored 1/sqrt(2), 0.7071067811865476, lies above the real one: its
        # two squares sum to 1 + 1.4e-16 exactly, which rounds to 1 + 2.2e-16
        assert laws[0].tolist() == [1.0000000000000002]
        assert laws[1].tolist() == [0.5, 0.5]
        assert np.max(np.abs(laws[3] - [1 / 8, 3 / 8, 3 / 8, 1 / 8])) <= 1e-15

    @pytest.mark.parametrize("case", FOURIER_CASES)
    def test_every_route_within_1e_14_up_to_n_120(self, case, rng):
        # The banded route keeps its relative accuracy in the tails too: measured
        # 1.5e-14 at worst (Hadamard) and 2.7e-15 to 4.1e-15 on the random-phase
        # coins, down to probabilities of 1.9e-239.
        coin, qubit = fourier_case(case, rng), random_qubit(rng)
        for (n, exact), field in zip(exact_laws(coin, qubit, EXACT_TIMES), fields_at(coin, qubit, EXACT_TIMES)):
            banded = field.to_distribution()
            for route in (law(coin, qubit, n), distribution(coin, qubit, n), banded):
                assert np.max(np.abs(route.probs - exact)) <= 1e-14, n
            held = exact > 1e-300
            assert np.max(np.abs(banded.probs[held] - exact[held]) / exact[held]) <= 1e-13, n

    @pytest.mark.parametrize("case", FOURIER_CASES)
    def test_evolution_drift_is_the_stored_coins_own(self, case, rng):
        # Both evolution routes follow the stored coin, so each total is the
        # exact total of its law up to rounding (at most 2.7e-15 was seen),
        # while that exact total drifts from 1 by up to 2.6e-14 here.  The
        # closed-form law is not the stored coin's evolution: up to 2.5e-14 off.
        coin, qubit = fourier_case(case, rng), random_qubit(rng)
        for (n, exact), field in zip(exact_laws(coin, qubit, EXACT_TIMES), fields_at(coin, qubit, EXACT_TIMES)):
            total = fsum(exact.tolist())
            for route in (distribution(coin, qubit, n), field.to_distribution()):
                assert abs(route.total() - total) <= 5e-15, n


#: Largest time of the exact path sums.  The recurrence's integers grow by
#: about 55 bits a letter; on a 2-vCPU VM one coin to n = 60 takes about 0.07 s
#: with the closed form.  The binomial sums stop at their cap of 40: they are
#: summed exactly and rounded once per coordinate, so their gate is a few eps
#: at every time up to it.
EXACT_PATH_TIME = 60


def relative_errors(got, exact):
    """Per matrix: the largest entry difference over the largest exact entry."""
    return np.max(np.abs(got - exact), axis=(1, 2)) / np.max(np.abs(exact), axis=(1, 2))


class TestExactPathSums:
    """The closed form and the binomial sums of ``Xi`` against the exact ``Xi`` of
    the stored coin, every matrix of every time up to their caps."""

    def test_small_times(self, hadamard):
        times = dict(exact_path_sums(hadamard, 2))
        p, q = letter_matrix(hadamard, Letter.P), letter_matrix(hadamard, Letter.Q)
        assert times[1].tolist() == [p.tolist(), q.tolist()]
        np.testing.assert_allclose(times[2], [p @ p, p @ q + q @ p, q @ q], rtol=0, atol=1e-16)

    # Measured for the closed form (the worst over every matrix, as a multiple
    # of n eps): Hadamard 1.1, |a|^2 ~ 0.01 1.5, ~0.5 0.8, ~0.99 9.1, so 25 n eps
    # leaves a margin of 2.7; the small-|a| coin reaches 76 n eps.
    @pytest.mark.parametrize("case", [
        "hadamard", "a_sq_0.01", "a_sq_0.5", "a_sq_0.99",
        pytest.param("a_sq_1e-06", marks=pytest.mark.xfail(
            strict=True, reason="for small |a| the closed form loses its leading terms (FOUND in CHANGES.md)")),
    ])
    def test_closed_form_and_binomial_sums(self, case, rng):
        coin = fourier_case(case, rng)
        for n, exact in exact_path_sums(coin, EXACT_PATH_TIME):
            m = np.arange(n + 1)
            closed = paths._closed_forms(coin, np.full(n + 1, n), m).materialize()
            assert np.max(relative_errors(closed, exact)) <= 25 * n * np.finfo(float).eps, n
            if n <= paths.BINOMIAL_SUM_CAP:
                # the coordinates are exact sums rounded once, then materialized
                # in floats: measured 1.95 eps at worst over 30 seeds of each
                # case (|a|^2 ~ 0.01), so 4 eps leaves a margin of 2
                binomial = np.array([paths.path_sum_coefficients(coin, StepCount(l=n - j, m=j)).materialize()
                                     for j in range(n + 1)])
                assert np.max(relative_errors(binomial, exact)) <= 4 * np.finfo(float).eps, n

    @pytest.mark.parametrize("case", [
        "hadamard", "a_sq_0.01", "a_sq_0.5", "a_sq_0.99", "a_sq_1e-06", "b_zero", "a_zero"])
    def test_binomial_sums_are_the_exact_path_sums(self, case, rng):
        # The paper's binomial sums, materialized in Gaussian integers, are the
        # recurrence's integers at every pair up to their cap; the degenerate
        # coins have only their pure words.
        coin = fourier_case(case, rng)
        e, (a, b, c, d) = dyadic([coin.a, coin.b, coin.c, coin.d])
        for n, xis in exact_path_integers(coin, paths.BINOMIAL_SUM_CAP):
            for m in [0, n] if coin.is_degenerate else range(n + 1):
                exponent, (p, q, r, s) = paths._binomial_integers(coin, n - m, m)
                assert exponent == e
                rows = ((combine(p, r, a, c), combine(p, r, b, d)), (combine(s, q, a, c), combine(s, q, b, d)))
                assert rows == xis[m], (n, m)

    @pytest.mark.parametrize("case", [*FOURIER_CASES, "a_sq_1e-06", "straddle", "tiny_parts"])
    def test_word_sums_are_the_exact_integers_rounded_once(self, case, rng):
        # The word sums scale a part by ldexp only where (E + 1) n <= 1023.  With
        # imaginary parts of 1e-9 on a and d of the Hadamard coin, E = 82 and the
        # times 13 and 14 are past that guard, where float(part) would overflow;
        # with 1e-300 on all four entries, E = 1049 and every time past 0 is.
        h, cap = 1 / math.sqrt(2.0), paths.ENUMERATION_CAP
        if case == "straddle":
            coin, past_guard = validate_coin([[complex(h, 1e-9), h], [h, complex(-h, 1e-9)]]), [13, 14]
        elif case == "tiny_parts":
            coin = validate_coin([[complex(h, 1e-300), complex(h, 1e-300)], [complex(h, 1e-300), complex(-h, 1e-300)]])
            past_guard = list(range(1, cap + 1))
        else:
            coin, past_guard = fourier_case(case, rng), []
        e, _ = dyadic([coin.a, coin.b, coin.c, coin.d])
        assert [n for n in range(1, cap + 1) if (e + 1) * n > 1023] == past_guard
        sums = paths._exact_word_sums(coin)
        assert next(sums).tolist() == [np.eye(2).tolist()]
        for (n, xis), got in zip(exact_path_integers(coin, cap), sums):
            # slot l of the word sums is Xi(l, n - l), item m of xis is Xi(n - m, m)
            expected = np.array([[[complex(re / 2 ** (e * n), im / 2 ** (e * n)) for re, im in row] for row in xi]
                                 for xi in xis[::-1]])
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist(), n  # sign of zero included


def test_one_sweep_builds_each_letter_once(rng, monkeypatch):
    coin, qubit = random_unitary_coin(rng), random_qubit(rng)
    built = []
    true_letter_matrix = engine.letter_matrix

    def counting(coin, letter):
        built.append(letter)
        return true_letter_matrix(coin, letter)

    monkeypatch.setattr(engine, "letter_matrix", counting)
    assert [field.n for field in sweep(coin, qubit, 20)] == list(range(21))
    assert sorted(built, key=lambda letter: letter.value) == [Letter.P, Letter.Q]


@pytest.mark.parametrize("n", (-1, engine.SWEEP_TIME_CAP + 1))
def test_sweeps_out_of_range_are_refused_before_any_field(hadamard, symmetric_qubit, monkeypatch, n):
    def no_field(**kwargs):
        raise AssertionError("a refused sweep must form no field")

    monkeypatch.setattr(engine, "AmplitudeField", no_field)
    error, match = (ValueError, "non-negative") if n < 0 else (CapExceededError, "exceeds the sweep cap")
    with pytest.raises(error, match=match):
        evolve(hadamard, symmetric_qubit, n)
    with pytest.raises(error, match=match):
        next(sweep(hadamard, symmetric_qubit, n))


def ring_step_matrix(coin, half_width):
    """The one-step matrix on a ring of ``2*half_width + 1`` cells: cell ``k``
    receives ``P`` from cell ``k+1`` and ``Q`` from cell ``k-1``, cyclically."""
    cells = 2 * half_width + 1
    p = letter_matrix(coin, Letter.P)
    q = letter_matrix(coin, Letter.Q)
    out = np.zeros((2 * cells, 2 * cells), dtype=np.complex128)
    for i in range(cells):
        j_p, j_q = (i + 1) % cells, (i - 1) % cells
        out[2 * i : 2 * i + 2, 2 * j_p : 2 * j_p + 2] = p
        out[2 * i : 2 * i + 2, 2 * j_q : 2 * j_q + 2] = q
    return out


@pytest.mark.parametrize(
    "matrix",
    [None, "hadamard", [[1, 0], [0, 1j]], [[0, 1], [-1j, 0]]],
    ids=["random", "hadamard", "b_zero", "a_zero"],
)
def test_dense_evolution_matches_banded(rng, matrix):
    # the ring is wide enough that no amplitude wraps round by time half_width
    half_width = 6
    if matrix is None:
        coin = random_unitary_coin(rng)
    elif matrix == "hadamard":
        coin = hadamard_coin()
    else:
        coin = validate_coin(matrix)
    qubit = random_qubit(rng)
    u = ring_step_matrix(coin, half_width)
    cells = 2 * half_width + 1
    psi = np.zeros(2 * cells, dtype=complex)
    psi[2 * half_width : 2 * half_width + 2] = qubit.vector  # origin cell
    for field in islice(sweep(coin, qubit, half_width), 1, None):
        psi = u @ psi
        for k in range(-field.n, field.n + 1):
            cell = k + half_width
            np.testing.assert_allclose(
                psi[2 * cell : 2 * cell + 2], field.amplitude(k), atol=1e-12
            )
