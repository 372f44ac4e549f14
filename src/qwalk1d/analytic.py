"""Closed-form position probabilities, characteristic functions, and moments.

The amplitude at time ``n = l + m`` and position ``m - l`` is ``Xi(l, m) phi``,
the path-sum closed form (:mod:`qwalk1d.paths`) applied to the initial state
``phi = (alpha, beta)``.  Its squared norm depends on the coin and the state
only through ``x = |a|^2``, ``y = |b|^2`` and the two terms of
:func:`qwalk1d.coin.state_terms`, ``weight_gap`` and ``cross``: the phases of
the coin and of the state drop out, as the paper's combinatorial expression
shows.  So the law is three real profiles of ``(x, n)``, with no complex
arithmetic.  For ``m = 1..n//2`` and ``l = n - m``, with ``(u0, u1)`` column
``m`` of the cached Jacobi table ``special._jacobi_table(n, x)``, put

    e0 = -u0/|a|,  t1 = -y u1/(|a| m),  d1 = l t1 - e0,  d2 = e0 - m t1,
    e1 = x (l t1)^2 + y d2^2,  e2 = x (m t1)^2 + y d1^2,  c = cross t1 (l d1 + m d2),

so that ``t1 = |a|^(n-1) T_1`` and ``e0 = |a|^(n-1) T_0 / y`` in the sums
``T_i`` of :mod:`qwalk1d.paths`.  With the state's weights
``w_alpha = |alpha|^2 = (1 + weight_gap)/2`` and ``w_beta = (1 - weight_gap)/2``,

    P(X_n = m - l) = w_alpha e1 + w_beta e2 + c,   P(X_n = l - m) = w_alpha e2 + w_beta e1 - c:

``e1`` and ``e2`` are the law of the state ``(1, 0)`` at ``m - l`` and at
``l - m``, and ``c`` is the interference of the two basis states.  The pure
words are the case ``m = 0``: ``P(X_n = -n) = F (w_alpha x + w_beta y + cross)``
and ``P(X_n = n) = F (w_alpha y + w_beta x - cross)``, with ``F = |a|^(2n-2)``.
A position and its mirror swap ``e1`` and ``e2`` and negate ``c``, so the
mirror gap ``P(X_n = m - l) - P(X_n = l - m)`` is twice the odd part
``weight_gap (e1 - e2)/2 + c``, which is linear in ``weight_gap`` and
``cross``.  A state with ``weight_gap = cross = 0`` has equal weights and
``c = 0``, and the two sums are the same products added in swapped order, so
its law is mirror-symmetric bit for bit.  The law is a weighted sum of ``e1``
and ``e2``, not an even part plus or minus that odd part: that difference
loses relative accuracy where a position is far less likely than its mirror,
and in the tails of the basis states at ``x = 0.99`` and ``n = 200`` its
relative error was 2.8e-14 against this sum's 6.1e-15.  ``y`` is the coin's
stored ``|b|^2``, not ``1 - x``: the engine steps the stored coin, and with
``1 - x`` the law at ``x = 0.99`` and ``n = 119`` was 1.25e-14 off the stored
coin's exact law, past the 1e-14 gate of the exact-law tests.  A law costs
O(n): the kernel's recurrence in ``m`` takes O(n) long double scalar steps,
about 2-4 ms at ``n = 2000`` and 25-40 ms at ``n = 20000`` on a 2-vCPU VM,
and the profiles take about 0.3 ms more at ``n = 20000``;
``engine.LAW_TIME_CAP`` bounds ``n``.

For every coin and every time ``0 <= n <= engine.LAW_TIME_CAP``,
``law(coin, qubit, n)`` builds the law at time ``n`` and returns it as an
``engine.Distribution``, as ``engine.distribution(coin, qubit, n)`` does on
the evolution route.  Both are plain functions over a private one-entry memo
(here ``_law``), the one cache rule of :mod:`qwalk1d.engine`.  The position
probabilities are the law's entries, and the characteristic function and the
moments are its sums (``probability``, ``characteristic_function`` and
``moment`` of the ``Distribution``).

The profiles are the law of a coin with all entries nonzero.  A coin with
``a = 0`` or ``b = 0`` never mixes the two directions, so its law is atoms
(Konno, QIP 2002): for ``b = 0`` the walk keeps its direction,
``P(X_n = -n) = |alpha|^2`` and ``P(X_n = n) = |beta|^2``; for ``a = 0`` it
turns at every step, ``P(X_n = -1) = |beta|^2`` and ``P(X_n = 1) = |alpha|^2``
at odd ``n`` and ``P(X_n = 0) = 1`` at even ``n``.  At ``n = 0`` the law is
the atom at 0.  The walk engine, which steps the whole complex coin, is the
independent oracle: over 84 random coins and qubits with ``|a|^2`` from 0.01
to 0.96, the law was within 3.8e-14 of it at every position up to
``n = 20000`` (2.9e-14 for ``|a|^2 <= 0.5``); at ``|a|^2 = 0.99`` (28 coins)
the gap grew to 1.1e-13 at ``n = 5000`` and 1.8e-13 at ``n = 20000``.  On the
degenerate coins it is within 2e-13 up to ``n = 2001``.  These figures hold
for ``|a|^2 >= 0.01`` only: for small ``|a|``, ``d2`` cancels its leading
term (the ``g = m`` terms of ``T_0`` and ``m T_1`` are equal, and ``1/y`` is
about 1), and the law at ``n = 2000`` was 1e-11 to 1e-10 off for ``|a|``
from 1e-3 to 1e-7.  They rest on the kernel's ``np.longdouble``; where that
is plain double, the gap at ``|a|^2 = 0.01`` was measured up to 4.1e-13.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .coin import BRANCH_A_ZERO, BRANCH_B_ZERO, Coin, Qubit, state_terms
from .engine import LAW_TIME_CAP, Distribution
from .errors import CapExceededError, NumericalHealthError
from .special import _jacobi_table

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
        x, y, abs_a = coin.abs_a_sq, coin.abs_b_sq, abs(coin.a)
        weight_gap, cross = state_terms(coin, qubit)
        w_alpha, w_beta, edge = (1 + weight_gap) / 2, (1 - weight_gap) / 2, abs_a ** (2 * n - 2)
        probs[0], probs[n] = edge * (w_alpha * x + w_beta * y + cross), edge * (w_alpha * y + w_beta * x - cross)
        u0, u1 = _jacobi_table(n, x)
        m = np.arange(1, n // 2 + 1)
        l = n - m
        e0, t1 = -u0 / abs_a, -y * u1 / (abs_a * m)
        d1, d2 = l * t1 - e0, e0 - m * t1
        e1, e2 = x * (l * t1) ** 2 + y * d2**2, x * (m * t1) ** 2 + y * d1**2
        c = cross * t1 * (l * d1 + m * d2)
        probs[m], probs[l] = w_alpha * e1 + w_beta * e2 + c, w_alpha * e2 + w_beta * e1 - c
    escaped = np.flatnonzero(~((probs >= -1e-9) & (probs <= 1.0 + 1e-9)))
    if escaped.size:
        j = int(escaped[0])
        raise NumericalHealthError(f"probability {probs[j]} escapes [0, 1] at n={n}, k={2 * j - n}")
    probs.flags.writeable = False
    return Distribution(n=n, probs=probs)
