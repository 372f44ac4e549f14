"""Classification of initial states by distribution symmetry.

For coins with all entries nonzero, three descriptions of the same set of
initial states coincide: balanced amplitudes with vanishing interference term
(the algebraic test), mirror-symmetric distributions at every time, and zero
mean at every time.  The algebraic test is cheap; the other two are empirical
checks against the engine and the closed-form mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .analytic import WalkParams, moment
from .coin import BRANCH_GENERIC, Coin, Qubit
from .errors import DegenerateCoinError

__all__ = ["SymmetryReport", "is_symmetric_state", "symmetry_evidence", "mean_zero_check"]

DEFAULT_MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the empirical mirror-symmetry check.

    ``evidence`` holds ``(n, max_k |P(X_n=k) - P(X_n=-k)|)`` for each checked
    time; ``symmetric`` is True when every recorded asymmetry stays below the
    threshold used for the check.
    """

    symmetric: bool
    evidence: tuple[tuple[int, float], ...]


def is_symmetric_state(coin: Coin, qubit: Qubit, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Algebraic membership test for the symmetric class.

    True iff ``|alpha| = |beta| = 1/sqrt(2)`` and the interference term
    ``a*alpha*conj(b*beta) + conj(a*alpha)*b*beta`` vanishes, all within
    ``tol``.  Only defined for coins with all entries nonzero.
    """
    if coin.branch != BRANCH_GENERIC:
        raise DegenerateCoinError("the classification assumes abcd != 0")
    half = 1.0 / math.sqrt(2.0)
    cross = WalkParams(coin=coin, qubit=qubit).cross
    return (
        abs(abs(qubit.alpha) - half) < tol
        and abs(abs(qubit.beta) - half) < tol
        and abs(cross) < tol
    )


def symmetry_evidence(
    coin: Coin, qubit: Qubit, n_max: int, tol: float = 1e-10
) -> SymmetryReport:
    """Step the banded recurrence to each ``n <= n_max`` and record the worst
    mirror gap.  A sweep over every time costs one step per time, less than one
    transform per time on the Fourier route of :func:`engine.distribution`."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    field = engine.initial_field(qubit)
    evidence = []
    for _ in range(n_max):
        field = engine.step(coin, field)
        probs = field.to_distribution().probs
        evidence.append((field.n, float(np.max(np.abs(probs - probs[::-1])))))
    symmetric = all(gap < tol for _, gap in evidence)
    return SymmetryReport(symmetric=symmetric, evidence=tuple(evidence))


def mean_zero_check(coin: Coin, qubit: Qubit, n_max: int, tol: float = 1e-10) -> bool:
    """True iff the closed-form mean vanishes (within ``tol``) for all n <= n_max."""
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    params = WalkParams(coin=coin, qubit=qubit)
    return all(abs(moment(params, n, 1)) < tol for n in range(1, n_max + 1))
