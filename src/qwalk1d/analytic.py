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
``law(params, n)`` builds the law at time ``n`` and returns it as an
``engine.Distribution``, the type the evolution route returns too, cached by
the one rule of :mod:`qwalk1d.engine`; the position probabilities are its
entries, and the characteristic function and the moments are its sums.  The
sum above is the law of a coin with all entries nonzero.  A coin with
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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coin import BRANCH_A_ZERO, BRANCH_B_ZERO, Coin, Qubit
from .engine import LAW_TIME_CAP, Distribution
from .errors import CapExceededError, NumericalHealthError, ParityViolationError
from .paths import _letter_coordinates

__all__ = [
    "WalkParams",
    "law",
    "position_probability",
    "characteristic_function",
    "moment",
]

@dataclass(frozen=True)
class WalkParams:
    """A (coin, qubit) pair with the derived scalar parameters.

    ``cross`` is the real interference term ``a*alpha*conj(b*beta) + conj``;
    ``mu`` is the drift parameter ``(|a|^2-|b|^2)(|alpha|^2-|beta|^2) + 2*cross``.
    """

    coin: Coin
    qubit: Qubit

    @property
    def z_cross(self) -> complex:
        """The half cross term ``a*alpha*conj(b*beta)`` (cross = 2*Re of this)."""
        return self.coin.a * self.qubit.alpha * (self.coin.b * self.qubit.beta).conjugate()

    @property
    def cross(self) -> float:
        return 2.0 * self.z_cross.real

    @property
    def weight_gap(self) -> float:
        """``|alpha|^2 - |beta|^2``."""
        return abs(self.qubit.alpha) ** 2 - abs(self.qubit.beta) ** 2

    @property
    def mu(self) -> float:
        gap_coin = self.coin.abs_a_sq - self.coin.abs_b_sq
        return gap_coin * self.weight_gap + 2.0 * self.cross


@lru_cache(maxsize=1)
def law(params: WalkParams, n: int) -> Distribution:
    """The closed-form law at time ``n >= 0``, for every coin, cached and read-only.

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
    coin, qubit = params.coin, params.qubit
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


def position_probability(params: WalkParams, n: int, k: int) -> float:
    """Closed-form ``P(X_n = k)`` for every coin and every ``n >= 0``.

    A read of :func:`law`, which builds the law at time ``n`` once.

    Raises
    ------
    NumericalHealthError
        If a value of the law leaves ``[0, 1]`` (it is never clamped).
    """
    if abs(k) > n or (n + k) % 2 != 0:
        raise ParityViolationError(f"position {k} unreachable at time {n}")
    return law(params, n).probability(k)


def characteristic_function(params: WalkParams, n: int, xi):
    """``E(exp(i xi X_n))``, the sum over the closed-form :func:`law`.

    ``xi`` is one point or a sequence of points, as for
    ``Distribution.characteristic_function``: a sequence gives the table.
    """
    return law(params, n).characteristic_function(xi)


def moment(params: WalkParams, n: int, m):
    """``E((X_n)^m)`` for ``m >= 1``, the sum over the closed-form :func:`law`.

    ``m`` is one order or a sequence of orders, as for ``Distribution.moment``.
    """
    if np.any(np.asarray(m) < 1):
        raise ValueError(f"need m >= 1, got m={m}")
    return law(params, n).moment(m)

