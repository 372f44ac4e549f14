"""Classification of initial states by distribution symmetry.

For every coin, three descriptions of the same set of initial states
coincide: balanced amplitudes with vanishing interference term (the algebraic
test), mirror-symmetric distributions at every time, and zero mean at every
time.  For a coin with ``a = 0`` or ``b = 0`` the interference term vanishes
and the law at each time ``n >= 1`` is atoms ``|alpha|^2`` and ``|beta|^2`` at
mirror positions, so each description reads ``|alpha| = |beta|``.

The algebraic test is cheap.  Both empirical verdicts read the engine's law
at each time, from one ``engine.sweep`` of the banded recurrence
(:func:`symmetry_evidence`); the independent reference for each mean it
records is the closed-form ``analytic.law(coin, qubit, n).mean()``.  The laws
of consecutive times are checked a block at a time, in whole-block array
operations, not one law and one exactly rounded sum per time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import engine
from .coin import Coin, Qubit, state_terms

__all__ = ["SymmetryReport", "is_symmetric_state", "symmetry_evidence"]

#: Largest mirror gap ``max_k |P(X_n=k) - P(X_n=-k)|`` of a symmetric law.
GAP_TOL = 1e-10
#: Half of :data:`GAP_TOL`: the bound of the algebraic membership test.
MEMBERSHIP_TOL = GAP_TOL / 2
#: Largest ``|E(X_n)| / n`` of a zero-mean law.  The mean is a sum of ``k``
#: times probabilities with ``|k| <= n``, so its rounding error grows with ``n``.
MEAN_TOL = 1e-10
#: Most cells of one block of laws in :func:`symmetry_evidence` (512 KB per
#: float array, 2 MB of amplitudes): a block holds
#: ``max(1, _BLOCK_CELLS // (n_max + 1))`` times.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the empirical checks, both read from the engine's laws.

    ``rows`` holds one row ``(n, max_k |P(X_n=k) - P(X_n=-k)|, E(X_n))`` per
    checked time.  ``symmetric`` is True when every mirror gap is below
    :data:`GAP_TOL`, and ``zero_mean`` when every ``|E(X_n)|`` is below
    ``MEAN_TOL * n``.
    """

    symmetric: bool
    zero_mean: bool
    rows: tuple[tuple[int, float, float], ...]


def is_symmetric_state(coin: Coin, qubit: Qubit) -> bool:
    """Algebraic membership test for the symmetric class.

    True iff ``|alpha|^2 - |beta|^2`` and the interference term
    ``cross = a*alpha*conj(b*beta) + conj`` vanish.  Each mirror gap and each
    mean is linear in these two, and a member passes both empirical verdicts:
    measured over coins and times up to 1200, a mirror gap is at most
    ``|weight_gap| + 2*|cross|/|a|`` and ``|E(X_n)|/n`` at most
    ``|weight_gap| + 2*|cross|``, so ``|weight_gap| < MEMBERSHIP_TOL`` and
    ``2*|cross| <= |a| * MEMBERSHIP_TOL`` keep both under :data:`GAP_TOL`
    (and ``cross`` is exactly 0 when ``a = 0``).
    """
    weight_gap, cross = state_terms(coin, qubit)
    return abs(weight_gap) < MEMBERSHIP_TOL and 2.0 * abs(cross) <= abs(coin.a) * MEMBERSHIP_TOL


def symmetry_evidence(coin: Coin, qubit: Qubit, n_max: int) -> SymmetryReport:
    """Record the worst mirror gap and the mean of the law at each time
    ``1..n_max``, read off one :func:`engine.sweep` in blocks of consecutive
    times (see :func:`_block_rows`); no field outlives its block.  ``n_max``
    above ``engine.SWEEP_TIME_CAP`` is refused before the first field."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    fields = islice(engine.sweep(coin, qubit, n_max), 1, None)
    block = max(1, _BLOCK_CELLS // (n_max + 1))
    rows = []
    for start in range(1, n_max + 1, block):
        rows += _block_rows(islice(fields, block), np.arange(start, min(start + block, n_max + 1)))
    return SymmetryReport(
        symmetric=all(gap < GAP_TOL for _, gap, _ in rows),
        zero_mean=all(abs(mean) < MEAN_TOL * n for n, _, mean in rows),
        rows=tuple(rows),
    )


def _block_rows(fields, times: np.ndarray):
    """The rows ``(n, mirror gap, mean)`` of the consecutive ``times``, bit for
    bit those of each field's ``to_distribution()``.

    The amplitudes fill a zero-padded table, one row per time.  Each law is
    ``|left|^2 + |right|^2``, one rounded sum of the two squared moduli as in
    ``AmplitudeField.to_distribution``, and a pad's is 0.  A pad is its own
    mirror, so it adds a zero gap.  The mean terms ``k * p`` are padded with
    -0.0, which changes neither a nonzero exactly rounded sum nor the sign of
    a zero one, so one ``engine._exact_sums`` call gives each
    ``Distribution.mean()``.
    """
    cells = np.arange(times[-1] + 1)
    inside = cells <= times[:, None]
    amps = np.zeros((*inside.shape, 2), dtype=np.complex128)
    for row, field in zip(amps, fields):
        row[: field.n + 1] = field.amps
    squares = np.abs(amps) ** 2
    probs = squares[..., 0] + squares[..., 1]
    # each cell's mirror, a pad its own, as an index into the flattened table
    mirror = np.where(inside, times[:, None] - cells, cells) + len(cells) * np.arange(len(times))[:, None]
    gaps = np.max(np.abs(probs - probs.take(mirror)), axis=1)
    positions = 2.0 * cells - times[:, None]
    means = engine._exact_sums(np.where(inside, positions * probs, -0.0))
    return zip(times.tolist(), gaps.tolist(), means)
