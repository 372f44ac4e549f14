"""The whole-pass path sums of ``qwalk1d.paths`` against the per-time reference.

``reference_pass`` is the pass that ``path_sums_by_time`` made before its closed
forms and binomial sums became one array pass each: one time after another,
each time's closed forms one array with a Python phase per entry, and each
binomial sum a scalar generator over one time's lists of coin powers, its
matrix formed from Python complex scalars.  The word sums are
``exact_path_sums`` of ``tests/test_engine.py``, the exact recurrence written
apart from the module's, so that the module's word sums are not checked against
themselves.  Every row must come out byte-identical to it.
"""

import math

import numpy as np
import pytest

import qwalk1d.paths as paths
from qwalk1d.coin import hadamard_coin, random_unitary_coin, validate_coin
from test_engine import exact_path_sums


def _powers(coin, n):
    return tuple([x**j for j in range(n)] for x in (coin.a, coin.b, coin.c, coin.d))


def _coefficients(coin, l, m, powers):
    pa, pb, pc, pd = powers
    zero = complex(0.0)
    if m == 0:
        return paths.PqrsMatrix(p=pa[l - 1], q=zero, r=zero, s=zero, coin=coin)
    if l == 0:
        return paths.PqrsMatrix(p=zero, q=pd[m - 1], r=zero, s=zero, coin=coin)
    p_sum = sum(
        math.comb(l - 1, g) * math.comb(m - 1, g - 1) * pa[l - g - 1] * pb[g] * pc[g] * pd[m - g]
        for g in range(1, min(l - 1, m) + 1)
    )
    q_sum = sum(
        math.comb(l - 1, g - 1) * math.comb(m - 1, g) * pa[l - g] * pb[g] * pc[g] * pd[m - g - 1]
        for g in range(1, min(l, m - 1) + 1)
    )
    r_sum = sum(
        math.comb(l - 1, g - 1) * math.comb(m - 1, g - 1) * pa[l - g] * pb[g] * pc[g - 1] * pd[m - g]
        for g in range(1, min(l, m) + 1)
    )
    s_sum = sum(
        math.comb(l - 1, g - 1) * math.comb(m - 1, g - 1) * pa[l - g] * pb[g - 1] * pc[g] * pd[m - g]
        for g in range(1, min(l, m) + 1)
    )
    return paths.PqrsMatrix(p=complex(p_sum), q=complex(q_sum), r=complex(r_sum), s=complex(s_sum), coin=coin)


def _closed_forms(coin, n, m):
    a, det = coin.a, coin.delta
    if coin.is_degenerate:
        zero = np.zeros(m.shape, dtype=complex)
        return paths.PqrsMatrix(np.where(m == 0, a ** (n - 1), zero),
                                np.where(m == n, (det * a.conjugate()) ** (n - 1), zero), zero, zero, coin)
    phase = np.array([(a / abs(a)) ** (n - 2 * j) * det**j for j in m.tolist()])
    return paths.PqrsMatrix(*(phase * paths._letter_coordinates(coin, n, m)), coin=coin)


def reference_pass(coin, n_max):
    """One ``(n, ls, exhaustive, closed, coefficients)`` per time ``n = 1..n_max``."""
    out = []
    for n, xis in exact_path_sums(coin, n_max):
        ls = [0, n] if coin.is_degenerate else list(range(n + 1))
        powers = _powers(coin, n)
        out.append((
            n,
            ls,
            xis[[n - l for l in ls]],
            _closed_forms(coin, n, n - np.array(ls)).materialize(),
            np.array([_coefficients(coin, l, n - l, powers).materialize() for l in ls]),
        ))
    return out


def _coins():
    """The coins of the CLI's bit-for-bit oracle test: a = 0, b = 0, Hadamard and five random."""
    rng = np.random.default_rng(17)
    return [validate_coin([[0, 1], [1, 0]]), validate_coin([[1, 0], [0, 1]]), hadamard_coin()] + [
        random_unitary_coin(rng) for _ in range(5)]


@pytest.mark.parametrize("index", range(8))
def test_pass_rows_equal_the_per_time_reference_bit_for_bit(index):
    coin = _coins()[index]
    n_max = paths.ENUMERATION_CAP
    times = reference_pass(coin, n_max)
    ls, ms, exhaustive, closed, coefficients = paths.path_sums_by_time(coin, n_max)
    assert list(zip(ls.tolist(), ms.tolist())) == [(l, n - l) for n, pairs, *_ in times for l in pairs]
    for got, column in zip((exhaustive, closed, coefficients), (2, 3, 4)):
        expected = np.concatenate([time[column] for time in times])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    for n, pairs, word_sums, *_ in times:
        for l, expected in zip(pairs, word_sums):
            assert paths.path_sum_exhaustive(coin, paths.StepCount(l=l, m=n - l)).tobytes() == expected.tobytes()
