"""The scaled-position limit law and weak-convergence diagnostics.

For a coin with all entries nonzero, the rescaled walk position converges in
law to a random variable supported on ``(-|a|, |a|)`` with density

    f(x) = sqrt(1 - |a|^2) (1 - lambda x) / (pi (1 - x^2) sqrt(|a|^2 - x^2))

where ``lambda`` collects the initial-state dependence.  The density has an
elementary antiderivative, so the limit CDF and every limit moment are
evaluated in closed form, with no quadrature.  Convergence is diagnosed with
exact lattice-vs-limit Kolmogorov-Smirnov distances (no sampling anywhere:
the finite-time law is computed exactly by the engine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .coin import BRANCH_A_ZERO, BRANCH_B_ZERO, Coin, Qubit, state_terms
from .errors import CapExceededError, DegenerateCoinError, OutOfWindowError
from .special import _jacobi_table

__all__ = [
    "LimitDensity",
    "TwoPointLimit",
    "KS_CELLS_CAP",
    "density",
    "limit_cdf",
    "limit_moment",
    "two_point_limit",
    "ks_distance",
    "ks_convergence",
    "parity_smoothed_ks",
    "asymptotics_envelope",
]

#: Most cells, the sum of ``n + 1`` over the distinct times, that one
#: :func:`ks_convergence` call may compute laws for; the time grows with the
#: cells.  At the cap ``converge`` took 0.9-1.0 s over the times from 1 and
#: 1.3-1.5 s over the 50 times up to 20000 (four coins, 2-vCPU VM, in-process).
KS_CELLS_CAP = 1_000_000


@dataclass(frozen=True)
class LimitDensity:
    """The limit density of the rescaled position for a (coin, qubit) pair."""

    coin: Coin
    qubit: Qubit

    def __post_init__(self) -> None:
        if self.coin.branch == BRANCH_B_ZERO:
            raise DegenerateCoinError(
                "the continuous limit law needs abcd != 0; use two_point_limit "
                "for coins with |a| = 1"
            )
        if self.coin.branch == BRANCH_A_ZERO:
            raise DegenerateCoinError(
                "the continuous limit law needs abcd != 0; for coins with a = 0 "
                "the rescaled position X_n/n converges to 0"
            )

    @property
    def a_abs(self) -> float:
        return abs(self.coin.a)

    @property
    def slope(self) -> float:
        """The state-dependence parameter: ``|alpha|^2 - |beta|^2 + cross/|a|^2``."""
        weight_gap, cross = state_terms(self.coin, self.qubit)
        return weight_gap + cross / self.coin.abs_a_sq


@dataclass(frozen=True)
class TwoPointLimit:
    """Degenerate limit for coins with ``|a| = 1``: atoms at -1 and +1."""

    p_minus: float
    p_plus: float

    def moment(self, m: int) -> float:
        return (-1.0) ** m * self.p_minus + self.p_plus


def density(ld: LimitDensity, x) -> float | np.ndarray:
    """Density value(s) at ``x``; zero outside the open support."""
    xs = np.asarray(x, dtype=float)
    a = ld.a_abs
    lam = ld.slope
    inside = np.abs(xs) < a
    safe = np.where(inside, xs, 0.0)
    values = np.where(
        inside,
        math.sqrt(1.0 - a * a)
        * (1.0 - lam * safe)
        / (math.pi * (1.0 - safe * safe) * np.sqrt(np.maximum(a * a - safe * safe, 0.0))),
        0.0,
    )
    return float(values) if np.isscalar(x) or xs.ndim == 0 else values


def limit_cdf(ld: LimitDensity, x) -> float | np.ndarray:
    """``P(Z <= x)`` for the limit law (0 below the support, 1 above).

    Closed form: with ``r = sqrt(|a|^2 - x^2)`` and ``c = sqrt(1 - |a|^2)``,
    ``F(x) = 1/2 + arctan2(c x, r)/pi + lambda arctan2(r, c)/pi``, exact at
    both endpoints and within a few ulp of the integral of :func:`density`.
    Takes a scalar (returns a float) or an array (returns an array).
    """
    xs = np.asarray(x, dtype=float)
    a = ld.a_abs
    c = math.sqrt(1.0 - a * a)
    r = np.sqrt(np.maximum((a - xs) * (a + xs), 0.0))
    inside = 0.5 + (np.arctan2(c * xs, r) + ld.slope * np.arctan2(r, c)) / math.pi
    values = np.where(xs <= -a, 0.0, np.where(xs >= a, 1.0, inside))
    return float(values) if np.isscalar(x) or xs.ndim == 0 else values


def limit_moment(ld: LimitDensity, m: int) -> float:
    """``E(Z^m)`` by a short sum, with no quadrature.

    With ``c = sqrt(1 - |a|^2)`` and ``t_i = |a|^(2i) C(2i, i) / 4^i``,
    ``E(Z^(2j)) = I_j`` and ``E(Z^(2j+1)) = -lambda I_(j+1)``, where
    ``I_j = 1 - c sum_(i<j) t_i = c sum_(i>=j) t_i``.  The head cancels about
    ``log10(1/|a|^2)`` digits per term, so for ``|a|^2 <= 1/2`` the positive
    tail (under 60 terms) is summed instead.
    """
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    a_sq = ld.a_abs**2
    c = math.sqrt(1.0 - a_sq)
    total, term = 1.0, 1.0  # I_j and t_j
    for j in range((m + 1) // 2):
        total -= c * term
        term *= a_sq * (2 * j + 1) / (2 * j + 2)
    if a_sq <= 0.5:
        total, j = 0.0, (m + 1) // 2
        while term > 1e-17 * total:
            total += term
            term *= a_sq * (2 * j + 1) / (2 * j + 2)
            j += 1
        total *= c
    return total if m % 2 == 0 else -ld.slope * total


def two_point_limit(qubit: Qubit) -> TwoPointLimit:
    """The rescaled-position limit when ``|a| = 1``: the walk never mixes, so
    the mass splits between the extreme speeds by the initial weights."""
    return TwoPointLimit(p_minus=abs(qubit.alpha) ** 2, p_plus=abs(qubit.beta) ** 2)


def ks_distance(ld: LimitDensity, dist: engine.Distribution) -> float:
    """Exact sup gap between the lattice CDF of ``X_n/n`` and the limit CDF.

    The lattice CDF is a right-continuous step function and the limit CDF is
    continuous and nondecreasing, so between two atoms the gap is largest at
    one end: the sup is the larger of the gaps at the atoms and just before
    them.
    """
    n = dist.n
    xs = dist.positions / max(n, 1)
    probs = np.asarray(dist.probs, dtype=float)
    cum = np.cumsum(probs)
    f_limit = limit_cdf(ld, xs)
    at_atoms = np.abs(cum - f_limit)
    before_atoms = np.abs((cum - probs) - f_limit)
    return float(max(at_atoms.max(), before_atoms.max()))


def ks_convergence(coin: Coin, qubit: Qubit, n_list) -> list[tuple[int, float, float]]:
    """One row ``(n, sup_x |F_n(x) - F_limit(x)|, total probability)`` per
    time of ``n_list``, repeats included; the total is 1 up to the engine's
    rounding drift.

    Every time is checked against ``engine.LAW_TIME_CAP``, and the distinct
    times against :data:`KS_CELLS_CAP`, before any law is computed.  Each
    distinct time is then jumped to once, in increasing order, by one
    :func:`engine.distribution` call (at the time cap about 25-35 ms on a
    2-vCPU VM, drift near 4e-12), and only its row is kept: one law is held
    at a time.
    """
    ld = LimitDensity(coin=coin, qubit=qubit)
    times = [int(n) for n in n_list]
    for n in times:
        if n < 1:
            raise ValueError(f"convergence times must be >= 1, got {n}")
        if n > engine.LAW_TIME_CAP:
            raise CapExceededError(f"time {n} exceeds the cap {engine.LAW_TIME_CAP}")
    distinct = sorted(set(times))
    cells = sum(n + 1 for n in distinct)
    if cells > KS_CELLS_CAP:
        raise CapExceededError(f"{len(distinct)} distinct times of {cells} cells exceed the cap {KS_CELLS_CAP}")
    by_time = {}
    for n in distinct:
        dist = engine.distribution(coin, qubit, n)
        by_time[n] = (n, ks_distance(ld, dist), dist.total())
    return [by_time[n] for n in times]


def parity_smoothed_ks(coin: Coin, qubit: Qubit, n_list) -> list[tuple[int, float]]:
    """Average the KS distances of adjacent-parity pairs ``(n, n+1)``.

    Even and odd times have disjoint lattice supports, so the raw KS sequence
    oscillates between parity classes; the pair average is the meaningful
    convergence diagnostic.
    """
    times = [int(n) for n in n_list]
    rows = ks_convergence(coin, qubit, [t for n in times for t in (n, n + 1)])
    return [(n, 0.5 * (rows[2 * i][1] + rows[2 * i + 1][1])) for i, n in enumerate(times)]


def _window(coin: Coin) -> tuple[float, float]:
    a = abs(coin.a)
    return ((1.0 - a) / 2.0, (1.0 + a) / 2.0)


def asymptotics_envelope(coin: Coin, n: int, k: int, i: int) -> float:
    """``|rho(n,k,i)| * |a|^(n-2k) * sqrt(n)``: bounded in ``n`` at fixed
    interior ratio ``x = k/n`` (a boundedness diagnostic, not an estimate).
    The scaled Jacobi value is read from the kernel's table for time ``n`` and
    ``|a|``, built in O(n) long double scalar steps and kept for the next call.
    ``n`` above ``engine.LAW_TIME_CAP`` is refused before the table is built."""
    if i not in (0, 1) or not 1 <= k <= n // 2:
        raise ValueError(f"need i in (0, 1) and 1 <= k <= n//2, got i={i}, k={k}, n={n}")
    if n > engine.LAW_TIME_CAP:
        raise CapExceededError(f"time {n} exceeds the cap {engine.LAW_TIME_CAP}")
    lo, hi = _window(coin)
    x = k / n
    if not lo < x < hi:
        raise OutOfWindowError(f"x = k/n = {x} outside the oscillatory window ({lo}, {hi})")
    return abs(_jacobi_table(n, coin.abs_a_sq)[i, k - 1]) * math.sqrt(n)

