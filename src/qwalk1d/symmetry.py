"""Classification of initial states by distribution symmetry.

For every coin, three descriptions of the same set of initial states
coincide: balanced amplitudes with vanishing interference term (the algebraic
test), mirror-symmetric distributions at every time, and zero mean at every
time.  For a coin with ``a = 0`` or ``b = 0`` the interference term vanishes
and the law at each time ``n >= 1`` is atoms ``|alpha|^2`` and ``|beta|^2`` at
mirror positions, so each description reads ``|alpha| = |beta|``.

The algebraic test is cheap.  Both empirical verdicts read the engine's law
at each time, from one ``engine.sweep`` of the banded recurrence
(:func:`symmetry_evidence`); the closed-form :func:`mean_zero_check` is the
independent reference for the zero-mean verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import engine
from .analytic import WalkParams, moment
from .coin import Coin, Qubit

__all__ = ["SymmetryReport", "is_symmetric_state", "symmetry_evidence", "mean_zero_check"]

#: Largest mirror gap ``max_k |P(X_n=k) - P(X_n=-k)|`` of a symmetric law.
GAP_TOL = 1e-10
#: Half of :data:`GAP_TOL`: the bound of the algebraic membership test.
MEMBERSHIP_TOL = GAP_TOL / 2
#: Largest ``|E(X_n)| / n`` of a zero-mean law.  The mean is a sum of ``k``
#: times probabilities with ``|k| <= n``, so its rounding error grows with ``n``.
MEAN_TOL = 1e-10


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


def _mean_vanishes(n: int, mean: float) -> bool:
    return abs(mean) < MEAN_TOL * n


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
    params = WalkParams(coin=coin, qubit=qubit)
    return (
        abs(params.weight_gap) < MEMBERSHIP_TOL
        and 2.0 * abs(params.cross) <= abs(coin.a) * MEMBERSHIP_TOL
    )


def symmetry_evidence(coin: Coin, qubit: Qubit, n_max: int) -> SymmetryReport:
    """Record the worst mirror gap and the mean of the law at each time
    ``1..n_max``, read off one :func:`engine.sweep`: one step per time, less
    than one transform per time on the Fourier route.  ``n_max`` above
    ``engine.SWEEP_TIME_CAP`` is refused before the first field."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    laws = (field.to_distribution() for field in islice(engine.sweep(coin, qubit, n_max), 1, None))
    rows = [(dist.n, float(np.max(np.abs(dist.probs - dist.probs[::-1]))), dist.mean()) for dist in laws]
    return SymmetryReport(
        symmetric=all(gap < GAP_TOL for _, gap, _ in rows),
        zero_mean=all(_mean_vanishes(n, mean) for n, _, mean in rows),
        rows=tuple(rows),
    )


def mean_zero_check(coin: Coin, qubit: Qubit, n_max: int) -> bool:
    """True iff the closed-form mean is below ``MEAN_TOL * n`` in absolute
    value for all n <= n_max: the reference for ``SymmetryReport.zero_mean``."""
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    params = WalkParams(coin=coin, qubit=qubit)
    return all(_mean_vanishes(n, moment(params, n, 1)) for n in range(1, n_max + 1))
