"""The whole-pass path sums of ``qwalk1d.paths`` against a per-time reference.

``reference_pass`` runs one time after another.  Its closed forms call
``paths._letter_coordinates`` once per time, on that time's table alone, so
the pass's gather from the tables of all its times is checked against one
call per time; the unit phases are the same Python products as the module's.
Its word sums are ``exact_path_sums`` of ``tests/test_engine.py``, the exact
recurrence written apart from the module's, so that the module's word sums
are not checked against themselves.  Every row must come out byte-identical.
"""

import numpy as np
import pytest

import qwalk1d.paths as paths
from qwalk1d.coin import hadamard_coin, random_unitary_coin, validate_coin
from test_engine import exact_path_sums


def _closed_forms(coin, n, m):
    a, det = coin.a, coin.delta
    if coin.is_degenerate:
        zero = np.zeros(m.shape, dtype=complex)
        return paths.PqrsMatrix(np.where(m == 0, a ** (n - 1), zero),
                                np.where(m == n, (det * a.conjugate()) ** (n - 1), zero), zero, zero, coin)
    phase = np.array([(a / abs(a)) ** (n - 2 * j) * det**j for j in m.tolist()])
    return paths.PqrsMatrix(*(phase * paths._letter_coordinates(coin, np.full(m.shape, n), m)), coin=coin)


def reference_pass(coin, n_max):
    """One ``(n, ls, exhaustive, closed)`` per time ``n = 1..n_max``."""
    out = []
    for n, xis in exact_path_sums(coin, n_max):
        ls = [0, n] if coin.is_degenerate else list(range(n + 1))
        out.append((n, ls, xis[[n - l for l in ls]], _closed_forms(coin, n, n - np.array(ls)).materialize()))
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
    ls, ms, exhaustive, closed = paths.path_sums_by_time(coin, n_max)
    assert list(zip(ls.tolist(), ms.tolist())) == [(l, n - l) for n, pairs, *_ in times for l in pairs]
    for got, column in zip((exhaustive, closed), (2, 3)):
        expected = np.concatenate([time[column] for time in times])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    for n, pairs, word_sums, _ in times:
        for l, expected in zip(pairs, word_sums):
            assert paths.path_sum_exhaustive(coin, paths.StepCount(l=l, m=n - l)).tobytes() == expected.tobytes()
