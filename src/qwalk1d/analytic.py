"""Closed-form position probabilities, characteristic functions, and moments.

The amplitude at time ``n = l + m`` and position ``m - l`` is ``Xi(l, m) phi``,
the path-sum closed form (:mod:`qwalk1d.paths`) applied to the initial state
``phi = (alpha, beta)``.  In the letter basis ``Xi = pP + qQ + rR + sS``, so with
``A = a alpha + b beta`` and ``C = c alpha + d beta``

    P(X_n = m - l) = |Xi(l, m) phi|^2 = |p A + r C|^2 + |q C + s A|^2,

and the unit phase common to ``p, q, r, s`` drops out.  The phase-free
coordinates of every position of a time are one array expression over the
cached Jacobi table (:func:`qwalk1d.paths._letter_coordinates`; its ``kk = 0``
case gives the two extremes), and the law contracts them with ``A`` and ``C``
in one more.  A law costs O(n): the kernel's recurrence in kk takes O(n) long
double scalar steps.  That is about 2-4 ms at ``n = 2000`` and 25-40 ms at
``n = 20000`` on a 2-vCPU VM; ``engine.LAW_TIME_CAP`` bounds ``n``.

For every coin and every time ``0 <= n <= engine.LAW_TIME_CAP``,
``law(coin, qubit, n)`` builds the law at time ``n`` and returns it as an
``engine.Distribution``, as ``engine.distribution(coin, qubit, n)`` does on
the evolution route.  Both are plain functions over a private one-entry memo
(here ``_law``), the one cache rule of :mod:`qwalk1d.engine`.  The position
probabilities are the law's entries, and the characteristic function and the
moments are its sums (``probability``, ``characteristic_function`` and
``moment`` of the ``Distribution``).

The sum above is the law of a coin with all entries nonzero.  A coin with
``a = 0`` or ``b = 0`` never mixes the two directions, so its law is atoms
(Konno, QIP 2002): for ``b = 0`` the walk keeps its direction,
``P(X_n = -n) = |alpha|^2`` and ``P(X_n = n) = |beta|^2``; for ``a = 0`` it
turns at every step, ``P(X_n = -1) = |beta|^2`` and ``P(X_n = 1) = |alpha|^2``
at odd ``n`` and ``P(X_n = 0) = 1`` at even ``n``.  At ``n = 0`` the law is
the atom at 0.  The walk engine is the independent oracle: for ``|a|^2`` from
0.01 to 0.96 the law is within 8e-14 of it at every position up to
``n = 20000`` (3e-14 for ``|a|^2 <= 0.5``); at ``|a|^2 = 0.99`` the gap grows
to 1.1e-13 at ``n = 5000`` and up to 2.9e-13 at ``n = 20000`` (random coins
and qubits).  On the degenerate coins it is within 2e-13 up to ``n = 2001``.
These figures hold for ``|a|^2 >= 0.01`` only (see ``paths._letter_coordinates``
for the loss below), and rest on the kernel's ``np.longdouble``; where that
is plain double, the gap at ``|a|^2 = 0.01`` was measured up to 4.1e-13.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .coin import BRANCH_A_ZERO, BRANCH_B_ZERO, Coin, Qubit
from .engine import LAW_TIME_CAP, Distribution
from .errors import CapExceededError, NumericalHealthError
from .paths import _letter_coordinates

__all__ = ["law"]


def law(coin: Coin, qubit: Qubit, n: int) -> Distribution:
    """The closed-form law at time ``n >= 0``, for every coin, shared and read-only.

    Raises
    ------
    ValueError
        If ``n < 0``.
    CapExceededError
        If ``n`` exceeds ``engine.LAW_TIME_CAP``.
    NumericalHealthError
        If a value leaves ``[0, 1]`` (values are never clamped).
    """
    if n < 0:
        raise ValueError(f"time must be >= 0, got {n}")
    if n > LAW_TIME_CAP:
        raise CapExceededError(f"time {n} exceeds the closed-form cap {LAW_TIME_CAP}")
    return _law(coin, qubit, n)


@lru_cache(maxsize=1)
def _law(coin: Coin, qubit: Qubit, n: int) -> Distribution:
    """The memo of :func:`law`, which has refused a time out of range."""
    alpha_sq, beta_sq = abs(qubit.alpha) ** 2, abs(qubit.beta) ** 2
    probs = np.zeros(n + 1)
    if n == 0 or (coin.branch == BRANCH_A_ZERO and n % 2 == 0):
        probs[n // 2] = 1.0  # the atom at 0
    elif coin.branch == BRANCH_B_ZERO:  # every step keeps the direction
        probs[0], probs[n] = alpha_sq, beta_sq
    elif coin.branch == BRANCH_A_ZERO:  # every step turns: atoms at -1 and +1
        probs[n // 2], probs[n // 2 + 1] = beta_sq, alpha_sq
    else:
        amp_a = coin.a * qubit.alpha + coin.b * qubit.beta
        amp_c = coin.c * qubit.alpha + coin.d * qubit.beta
        p, q, r, s = _letter_coordinates(coin, n, np.arange(n + 1))
        probs = np.abs(p * amp_a + r * amp_c) ** 2 + np.abs(q * amp_c + s * amp_a) ** 2
    escaped = np.flatnonzero(~((probs >= -1e-9) & (probs <= 1.0 + 1e-9)))
    if escaped.size:
        j = int(escaped[0])
        raise NumericalHealthError(f"probability {probs[j]} escapes [0, 1] at n={n}, k={2 * j - n}")
    probs.flags.writeable = False
    return Distribution(n=n, probs=probs)
