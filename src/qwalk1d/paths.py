"""Path sums over interleaved left/right step words.

The amplitude operator ``Xi(l, m)`` is the sum of all ``C(l+m, l)`` ordered
products of ``l`` P's and ``m`` Q's (leftmost letter acts last); the walk's
amplitude at time ``l+m`` and position ``m-l`` is ``Xi(l, m) phi``.  Two oracles
compute ``Xi`` by enumeration and by the explicit binomial sums.  The
enumeration forms each time's ``2^n`` words once per coin and caches their
sums, one per ``l``, each entry correctly rounded.  The production
route is the closed form over the cluster count, where each letter coordinate
is a unit phase times a combination of

    T_i = sum_(g=1..kk) (-|b|^2/|a|^2)^g C(l-1, g-1) C(m-1, g-1) / g^i,

``kk = min(l, m)``.  These are Jacobi values,
``|a|^(n-1) T_i = -(|b|^2/|a|) u_i / kk^i`` with
``u_i = |a|^(n-2kk) P_(kk-1)^(i, n-2kk)(2|a|^2 - 1)``; they are never summed
term by term.  One call of the array kernel
:func:`qwalk1d.special._scaled_jacobi` gives ``u_0`` and ``u_1`` for every kk
of a time at once; the kernel's table is cached per time and ``|a|^2``, and
:func:`_tau` scales it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coin import BRANCH_GENERIC, Coin, Letter, letter_matrix
from .errors import CapExceededError, DegenerateCoinError, ParityViolationError
from .special import _jacobi_table

__all__ = [
    "StepCount",
    "PqrsMatrix",
    "ENUMERATION_CAP",
    "cluster_count",
    "path_sum_exhaustive",
    "path_sum_coefficients",
    "closed_form_coefficients",
    "path_sum",
]

#: Largest l+m the brute-force oracle will enumerate (C(14,7) = 3432 words).
ENUMERATION_CAP = 14


@dataclass(frozen=True)
class StepCount:
    """Left/right step counts ``(l, m)`` with derived time ``n`` and position ``k``."""

    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l < 0 or self.m < 0:
            raise ValueError(f"step counts must be non-negative, got ({self.l}, {self.m})")

    @property
    def n(self) -> int:
        return self.l + self.m

    @property
    def k(self) -> int:
        return self.m - self.l

    @classmethod
    def from_time_position(cls, n: int, k: int) -> "StepCount":
        """Invert ``n = l + m``, ``k = m - l``; requires ``n + k`` even and ``|k| <= n``."""
        if abs(k) > n or (n + k) % 2 != 0:
            raise ParityViolationError(f"position {k} unreachable at time {n}")
        return cls(l=(n - k) // 2, m=(n + k) // 2)


@dataclass(frozen=True)
class PqrsMatrix:
    """A 2x2 matrix stored as coordinates in the four-letter basis of a coin."""

    p: complex
    q: complex
    r: complex
    s: complex
    coin: Coin

    def materialize(self) -> np.ndarray:
        """``pP + qQ + rR + sS``, formed from the coin entries in one array."""
        p, q, r, s = self.p, self.q, self.r, self.s
        a, b, c, d = self.coin.a, self.coin.b, self.coin.c, self.coin.d
        return np.array([[p * a + r * c, p * b + r * d], [s * a + q * c, s * b + q * d]])


def cluster_count(gamma: int, l: int, m: int) -> int:
    """Number of words ``P^{w1} Q^{w2} ... P^{w_{2*gamma+1}}`` that start and
    end with a P block, have ``2*gamma + 1`` blocks, and use ``l`` P's, ``m`` Q's.

    Equals ``C(l-1, gamma) * C(m-1, gamma-1)``; zero whenever either binomial
    is out of range.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if l < 1 or m < 1 or gamma > l - 1 or gamma - 1 > m - 1:
        return 0
    return math.comb(l - 1, gamma) * math.comb(m - 1, gamma - 1)


@lru_cache(maxsize=256)
def _word_sums(coin: Coin, n: int) -> np.ndarray:
    """Slot ``l`` is the sum of the products of all length-``n`` words with ``l``
    P's, each entry correctly rounded (``math.fsum``); cached and read-only."""
    letters = (letter_matrix(coin, Letter.P), letter_matrix(coin, Letter.Q))
    words = np.eye(2, dtype=np.complex128)[:, :, None]  # axis 2 runs over words
    lefts = np.zeros(1, dtype=np.int64)
    for _ in range(n):  # append one letter on the right of every word
        words = np.concatenate(
            [words[:, :1] * x[0, :, None] + words[:, 1:] * x[1, :, None] for x in letters], axis=2
        )
        lefts = np.concatenate([lefts + 1, lefts])
    sums = np.array([
        [complex(math.fsum(e.real.tolist()), math.fsum(e.imag.tolist()))
         for e in words[:, :, lefts == l].reshape(4, -1)]
        for l in range(n + 1)
    ]).reshape(n + 1, 2, 2)
    sums.flags.writeable = False
    return sums


def path_sum_exhaustive(coin: Coin, sc: StepCount) -> np.ndarray:
    """Sum of all ordered products of ``sc.l`` P's and ``sc.m`` Q's (oracle).

    Forms every word's product on its own, one letter at a time; all ``2^n``
    words of time ``n = l + m`` are enumerated once per coin and cached, and
    each entry of the sum is correctly rounded.  Exponential in ``n``; refuses
    beyond :data:`ENUMERATION_CAP`.  Returns a fresh, writeable array.
    """
    if sc.n > ENUMERATION_CAP:
        raise CapExceededError(f"enumeration capped at l+m = {ENUMERATION_CAP}, got {sc.n}")
    return _word_sums(coin, sc.n)[sc.l].copy()


def _require_generic(coin: Coin) -> None:
    if coin.branch != BRANCH_GENERIC:
        raise DegenerateCoinError(
            f"mixed path sums need abcd != 0, coin branch is {coin.branch!r}"
        )


def path_sum_coefficients(coin: Coin, sc: StepCount) -> PqrsMatrix:
    """Letter-basis coordinates of the path sum via the explicit binomial sums.

    Branches: pure-left words give ``p = a^(l-1)`` only, pure-right words give
    ``q = d^(m-1)`` only; mixed words need all coin entries nonzero.
    """
    l, m = sc.l, sc.m
    if sc.n < 1:
        raise ValueError("path sums are defined for l + m >= 1")
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    zero = complex(0.0)
    if m == 0:
        return PqrsMatrix(p=a ** (l - 1), q=zero, r=zero, s=zero, coin=coin)
    if l == 0:
        return PqrsMatrix(p=zero, q=d ** (m - 1), r=zero, s=zero, coin=coin)
    _require_generic(coin)

    p_sum = sum(
        math.comb(l - 1, g) * math.comb(m - 1, g - 1)
        * a ** (l - g - 1) * b**g * c**g * d ** (m - g)
        for g in range(1, min(l - 1, m) + 1)
    )
    q_sum = sum(
        math.comb(l - 1, g - 1) * math.comb(m - 1, g)
        * a ** (l - g) * b**g * c**g * d ** (m - g - 1)
        for g in range(1, min(l, m - 1) + 1)
    )
    r_sum = sum(
        math.comb(l - 1, g - 1) * math.comb(m - 1, g - 1)
        * a ** (l - g) * b**g * c ** (g - 1) * d ** (m - g)
        for g in range(1, min(l, m) + 1)
    )
    s_sum = sum(
        math.comb(l - 1, g - 1) * math.comb(m - 1, g - 1)
        * a ** (l - g) * b ** (g - 1) * c**g * d ** (m - g)
        for g in range(1, min(l, m) + 1)
    )
    return PqrsMatrix(
        p=complex(p_sum), q=complex(q_sum), r=complex(r_sum), s=complex(s_sum), coin=coin
    )


def _tau(coin: Coin, n: int, cols=slice(None)) -> tuple:
    """``(tau_0, tau_1) = |a|^(n-1) (T_0, T_1)`` for the ``Xi(l, m)`` with ``l+m = n``,
    entry ``kk - 1`` for ``kk = min(l, m)``, from the cached Jacobi table of time ``n``;
    ``cols`` picks the entries (an index or a slice; all by default)."""
    a2 = coin.abs_a_sq
    u = -coin.abs_b_sq / math.sqrt(a2) * _jacobi_table(n, a2)[:, cols]
    u[1] /= np.arange(1, n // 2 + 1)[cols]
    return u[0], u[1]


def _mixed_coordinates(coin: Coin, l, m, t0, t1) -> tuple:
    """Letter coordinates ``(p, q, r, s)`` of ``Xi(l, m)``, ``l, m >= 1``, divided by
    the unit phase ``(a/|a|)^l (conj(a)/|a|)^m det^m``; ``t0, t1`` are the
    :func:`_tau` entries of ``kk = min(l, m)``.  Scalars or arrays over kk."""
    a, b, det = coin.a, coin.b, coin.delta
    abs_a = abs(a)
    return (
        abs_a * (l * t1 - t0) / a,
        abs_a * (m * t1 - t0) / (det * a.conjugate()),
        -abs_a * t0 / (det * b.conjugate()),
        abs_a * t0 / b,
    )


def closed_form_coefficients(coin: Coin, sc: StepCount) -> PqrsMatrix:
    """Letter-basis coordinates via the closed form over the cluster count.

    Pure-left words give ``p = a^(l-1)`` only, pure-right words give
    ``q = (det conj(a))^(m-1)`` only; mixed words need all coin entries nonzero
    and take their alternating sums from the Jacobi kernel (:func:`_tau`).
    """
    l, m = sc.l, sc.m
    if sc.n < 1:
        raise ValueError("path sums are defined for l + m >= 1")
    a, det = coin.a, coin.delta
    zero = complex(0.0)
    if m == 0:
        return PqrsMatrix(p=a ** (l - 1), q=zero, r=zero, s=zero, coin=coin)
    if l == 0:
        return PqrsMatrix(p=zero, q=(det * a.conjugate()) ** (m - 1), r=zero, s=zero, coin=coin)
    _require_generic(coin)
    phase = (a / abs(a)) ** (l - m) * det**m
    t0, t1 = _tau(coin, sc.n, min(l, m) - 1)
    p, q, r, s = (phase * x for x in _mixed_coordinates(coin, l, m, t0, t1))
    return PqrsMatrix(p=p, q=q, r=r, s=s, coin=coin)


def path_sum(coin: Coin, sc: StepCount) -> np.ndarray:
    """The path-sum operator as a 2x2 matrix, via the closed form."""
    return closed_form_coefficients(coin, sc).materialize()
