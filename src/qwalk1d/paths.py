"""Path sums over interleaved left/right step words.

The amplitude operator ``Xi(l, m)`` is the sum of all ``C(l+m, l)`` ordered
products of ``l`` P's and ``m`` Q's (leftmost letter acts last); the walk's
amplitude at time ``l+m`` and position ``m-l`` is ``Xi(l, m) phi``.  Two oracles
compute ``Xi``: the sum over all its words, and the explicit binomial sums.  The
binomial sums alternate in sign: against the exact ``Xi`` their worst relative
error per matrix for Hadamard was 1.0e-12 at ``l + m = 30``, 3.8e-11 at 40,
1.8e-9 at 50 and 4.9e-8 at 60 (up to 1.1e-10 at 40 for ``|a|^2 ~ 0.5``), so
:func:`path_sum_coefficients` refuses ``l + m`` past :data:`BINOMIAL_SUM_CAP`.  The
word sum is the definition, and it is summed exactly.  Splitting each word at
its first letter only regroups the sum, into the recurrence
``Xi(l, m) = P Xi(l - 1, m) + Q Xi(l, m - 1)``; with the coin's entries as
Gaussian integers over one power of two, that recurrence runs in integers, in
O(n^2) steps where the words number ``2^n``, and each entry is the exact sum
rounded once.  The production route is the closed form over the cluster count,
where each letter coordinate is a unit phase times a combination of

    T_i = sum_(g=1..kk) (-|b|^2/|a|^2)^g C(l-1, g-1) C(m-1, g-1) / g^i,

``kk = min(l, m)``.  These are Jacobi values,
``|a|^(n-1) T_i = -(|b|^2/|a|) u_i / kk^i`` with
``u_i = |a|^(n-2kk) P_(kk-1)^(i, n-2kk)(2|a|^2 - 1)``; they are never summed
term by term, but read from the table of the array kernel
:func:`qwalk1d.special._scaled_jacobi`, cached for one time and ``|a|^2``.  One
function, :func:`_letter_coordinates`, gives the phase-free coordinates of
``Xi(n - m, m)`` for an array of ``m``, and of one time or a time per ``m``, in
one array expression over those tables; the pure words are its ``kk = 0``
case.  The law in :mod:`qwalk1d.analytic` contracts these coordinates with the
initial state, and the path sums here multiply them by the unit phase.

Everything but the word sums is one array pass over all the ``(l, m)`` it
is asked for: the closed forms are one coordinate array, and the binomial sums
one table of terms by pair and summation index, with the coin's powers formed
once.  numpy's complex multiply may fuse multiply-adds (it does on x86-64
with FMA), so the binomial sums, their matrices and the unit phases take their
products from :func:`_python_products`, which rounds each as Python rounds a
product of complex scalars: they keep the bits of the scalar code they
replace, which ``tests/test_paths_reference.py`` keeps as the reference.
:func:`path_sums_by_time` is the ``oracle`` command's pass,
``Xi(l, m)`` by all three routes for every ``l + m <= n_max``.  Its rows equal
the per-entry functions bit for bit, because both run the same array code.
The per-entry word sum runs the recurrence afresh up to its own time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coin import BRANCH_GENERIC, Coin
from .errors import CapExceededError, DegenerateCoinError, ParityViolationError
from .special import _jacobi_table

__all__ = [
    "StepCount",
    "PqrsMatrix",
    "ENUMERATION_CAP",
    "BINOMIAL_SUM_CAP",
    "cluster_count",
    "path_sum_exhaustive",
    "path_sum_coefficients",
    "closed_form_coefficients",
    "path_sum",
    "path_sums_by_time",
]

#: Largest l+m of the word sums, and so of ``oracle``.  The exact word sums take
#: O(n^2) integer steps, not 2^n products, so their cost no longer sets it: the
#: float binomial sums of the ``coeff_vs_closed`` column, which lose digits as
#: l+m grows, bound it now, and an exact reference for that column may raise it.
ENUMERATION_CAP = 14

#: Largest l+m of the binomial sums of :func:`path_sum_coefficients`.
BINOMIAL_SUM_CAP = 40


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
    """A 2x2 matrix stored as coordinates in the four-letter basis of a coin, or
    equal-shape arrays of such coordinates, one matrix per entry."""

    p: complex
    q: complex
    r: complex
    s: complex
    coin: Coin

    def materialize(self) -> np.ndarray:
        """``pP + qQ + rR + sS``, formed from the coin entries in one array; for
        coordinate arrays, one matrix per entry along the leading axes."""
        p, q, r, s = self.p, self.q, self.r, self.s
        a, b, c, d = self.coin.a, self.coin.b, self.coin.c, self.coin.d
        matrix = np.array([[p * a + r * c, p * b + r * d], [s * a + q * c, s * b + q * d]])
        return matrix if matrix.ndim == 2 else np.moveaxis(matrix, (0, 1), (-2, -1))


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


def _dyadic(coin: Coin) -> tuple[int, list[tuple[int, int]]]:
    """``(E, [(re, im) of x 2^E for x = a, b, c, d])``: the coin's entries as Gaussian
    integers over one power of two, ``E >= 0`` the smallest that makes every part
    an integer."""
    ratios = [part.as_integer_ratio() for x in (coin.a, coin.b, coin.c, coin.d) for part in (x.real, x.imag)]
    e = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num * (1 << e) // den for num, den in ratios]  # each den is a power of two
    return e, list(zip(ints[::2], ints[1::2]))


def _exact_word_sums(coin: Coin):
    """Yield, for time 0, 1, 2, ..., the ``(n + 1, 2, 2)`` array whose slot ``l`` is
    ``Xi(l, n - l)``, the sum of all the words with ``l`` P's, exact and rounded once.

    The recurrence ``Xi(l, m) = P Xi(l - 1, m) + Q Xi(l, m - 1)`` splits each word
    at its first letter: ``P X`` has row 0 ``a X[0] + b X[1]`` and row 1 zero,
    ``Q X`` row 0 zero and row 1 ``c X[0] + d X[1]``.  Over the coin's ``2^E``
    (:func:`_dyadic`) every sum of time ``n`` is a Gaussian integer over
    ``2^(E n)``, each part rounded once by the correctly rounded true division.
    """
    e, (a, b, c, d) = _dyadic(coin)

    def row(x, y, xi):  # x xi[0] + y xi[1]; a row is (re, im) of column 0, then of column 1
        (xr, xm), (yr, ym), (t0, t1, t2, t3), (u0, u1, u2, u3) = x, y, *xi
        return (xr * t0 - xm * t1 + yr * u0 - ym * u1, xr * t1 + xm * t0 + yr * u1 + ym * u0,
                xr * t2 - xm * t3 + yr * u2 - ym * u3, xr * t3 + xm * t2 + yr * u3 + ym * u2)

    zero = (0, 0, 0, 0)
    xis = [((1, 0, 0, 0), (0, 0, 1, 0))]  # the identity at time 0, by rows
    for n in itertools.count():
        scale = 1 << e * n
        parts = [part / scale for xi in xis for r in xi for part in r]
        yield np.array(parts).view(np.complex128).reshape(n + 1, 2, 2)
        xis = [(row(a, b, xis[l - 1]) if l else zero, row(c, d, xis[l]) if l <= n else zero)
               for l in range(n + 2)]


def path_sum_exhaustive(coin: Coin, sc: StepCount) -> np.ndarray:
    """Sum of all ordered products of ``sc.l`` P's and ``sc.m`` Q's (oracle).

    The sum over all words, exact and rounded once per entry: splitting each
    word at its first letter only regroups it, into the recurrence of
    :func:`_exact_word_sums`, which runs in Gaussian integers.  Refuses beyond
    :data:`ENUMERATION_CAP` before any step.  Returns a fresh, writeable array.
    """
    if sc.n > ENUMERATION_CAP:
        raise CapExceededError(f"enumeration capped at l+m = {ENUMERATION_CAP}, got {sc.n}")
    return next(itertools.islice(_exact_word_sums(coin), sc.n, None))[sc.l]


def _require_generic(coin: Coin) -> None:
    if coin.branch != BRANCH_GENERIC:
        raise DegenerateCoinError(
            f"mixed path sums need abcd != 0, coin branch is {coin.branch!r}"
        )


def _powers(x: complex, exponents: np.ndarray) -> np.ndarray:
    """``x ** e`` for each ``e`` of the int array ``exponents``, each power Python's;
    each distinct power is formed once."""
    distinct = sorted(set(exponents.tolist()))
    values = np.array([x**e for e in distinct])
    table = np.empty(distinct[-1] - distinct[0] + 1, dtype=values.dtype)
    table[np.array(distinct) - distinct[0]] = values
    return table[exponents - distinct[0]]


def _python_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y`` for broadcastable complex arrays, each product rounded as Python
    rounds one of two complex scalars: ``(xr yr - xi yi, xr yi + xi yr)``.  numpy's
    own complex multiply may fuse multiply-adds (it does on x86-64 with FMA), which
    rounds some products differently."""
    real = x.real * y.real - x.imag * y.imag
    out = np.empty(real.shape, dtype=np.complex128)
    out.real, out.imag = real, x.real * y.imag + x.imag * y.real
    return out


def _materialize_as_scalars(xi: PqrsMatrix) -> np.ndarray:
    """:meth:`PqrsMatrix.materialize` of coordinate arrays, one ``(2, 2)`` matrix per
    entry along the leading axis, with every product and sum rounded as the scalar
    matrix of each entry rounds it."""
    coordinates = np.array([[xi.p, xi.r], [xi.s, xi.q]])
    terms = _python_products(coordinates[:, :, None], xi.coin.matrix[:, :, None])
    return np.moveaxis(terms[:, 0] + terms[:, 1], -1, 0)


#: The terms of the binomial sums ``p, q, r, s`` (one row each) are
#: ``C(l-1, g-i) C(m-1, g-j) a^(l-g-e_a) b^(g-e_b) c^(g-e_c) d^(m-g-e_d)``; the
#: columns are ``i, j, e_a, e_b, e_c, e_d``.
_SUM_OFFSETS = np.array([[0, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 1], [1, 1, 0, 0, 1, 0], [1, 1, 0, 1, 0, 0]])


def _binomial_sums(powers: np.ndarray, l: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The binomial sums ``(p, q, r, s)`` for the int arrays ``l, m >= 1``, as a
    ``(4, len(l))`` array; ``powers[e, j]`` is the ``j``-th power of coin entry ``e``.

    One ``(4, g, len(l))`` table holds every term, ``g = 1..max(min(l, m))``, and
    each stage is one array operation over it, rounded as Python rounds the scalar
    sum: the product of the binomials times the four powers from left to right,
    then the terms added in order of ``g`` to ``0.0``.  A term past its sum's
    range has a zero binomial, so it is a signed zero, which leaves the sum
    unchanged: the sum starts at ``+0.0``, so it is never ``-0.0``.  While ``l``
    and ``m`` are at most 57 the binomials are exact floats, so their product is
    rounded once, as the scalar sum rounds the product of two ints.
    """
    g = np.arange(1, int(np.minimum(l, m).max()) + 1)[:, None]
    i, j, *e = _SUM_OFFSETS.T[:, :, None, None]
    rows = sorted(set((l - 1).tolist()) | set((m - 1).tolist()))  # the binomial rows the terms read
    binomials = np.zeros((rows[-1] + 1, len(g) + 1))
    binomials[rows] = [[math.comb(k, h) for h in range(len(g) + 1)] for k in rows]
    terms = (binomials[l - 1, g - i] * binomials[m - 1, g - j]).astype(np.complex128)
    for entry, exponent in zip(powers, (l - g - e[0], g - e[1], g - e[2], m - g - e[3])):
        # a term past its range may ask for a negative power; its weight is 0
        terms = _python_products(terms, entry[np.maximum(exponent, 0)])
    # one running sum along g from +0.0 (np.sum would add pairwise, in another order)
    return np.cumsum(np.concatenate([np.zeros((4, 1, len(l))), terms], axis=1), axis=1)[:, -1]


def _coefficients(coin: Coin, l: np.ndarray, m: np.ndarray) -> PqrsMatrix:
    """The binomial sums of :func:`path_sum_coefficients` for the int arrays ``l`` and
    ``m``, ``l + m >= 1``, as coordinate arrays; the coin's powers are formed once,
    up to the largest ``l + m``."""
    top = int((l + m).max())
    powers = np.array([_powers(x, np.arange(top)) for x in (coin.a, coin.b, coin.c, coin.d)])
    coordinates = np.zeros((4, len(l)), dtype=np.complex128)
    coordinates[0, m == 0] = powers[0, l[m == 0] - 1]
    coordinates[1, l == 0] = powers[3, m[l == 0] - 1]
    mixed = (l > 0) & (m > 0)
    if mixed.any():
        _require_generic(coin)
        coordinates[:, mixed] = _binomial_sums(powers, l[mixed], m[mixed])
    return PqrsMatrix(*coordinates, coin=coin)


def path_sum_coefficients(coin: Coin, sc: StepCount) -> PqrsMatrix:
    """Letter-basis coordinates of the path sum via the explicit binomial sums.

    Branches: pure-left words give ``p = a^(l-1)`` only, pure-right words give
    ``q = d^(m-1)`` only; mixed words need all coin entries nonzero.  Refuses
    ``l + m`` beyond :data:`BINOMIAL_SUM_CAP` before any sum is formed.
    """
    if sc.n < 1:
        raise ValueError("path sums are defined for l + m >= 1")
    if sc.n > BINOMIAL_SUM_CAP:
        raise CapExceededError(f"binomial sums capped at l+m = {BINOMIAL_SUM_CAP}, got {sc.n}")
    xi = _coefficients(coin, np.array([sc.l]), np.array([sc.m]))
    return PqrsMatrix(*(complex(x[0]) for x in (xi.p, xi.q, xi.r, xi.s)), coin=coin)


def _letter_coordinates(coin: Coin, n, m: np.ndarray) -> np.ndarray:
    """Letter coordinates ``(p, q, r, s)`` of ``Xi(n - m, m)`` for the int array ``m``
    and a generic coin, divided by the unit phase ``(a/|a|)^(l-m) det^m``, as a
    ``(4, len(m))`` array.  ``n`` is one time, or an int array of a time per ``m``.

    With ``l = n - m``, ``kk = min(l, m)`` and ``(tau_0, tau_1) = |a|^(n-1) (T_0, T_1)``
    they are ``|a| (l tau_1 - tau_0) / a``, ``|a| (m tau_1 - tau_0) / (det conj(a))``,
    ``-|a| tau_0 / (det conj(b))`` and ``|a| tau_0 / b``.  The taus of ``kk >= 1``
    are read from the cached Jacobi table of each time; the pure words are the
    case ``kk = 0``, with ``tau_0 = 0`` and ``n tau_1 = |a|^(n-1)``, one Python
    power per time.  So an array of times gives each entry the bits of a call
    for its time alone.  For small ``|a|``, ``kk tau_1 - tau_0`` loses its
    leading term (the ``g = kk`` terms of ``kk T_1`` and ``T_0`` are equal) and
    ``1/|a|`` scales up what is left: the law at ``n = 2000`` was 1e-11 to
    1e-10 off for ``|a|`` from 1e-3 to 1e-7.
    """
    a, b, det = coin.a, coin.b, coin.delta
    abs_a = abs(a)
    l, kk = n - m, np.minimum(m, n - m)
    mixed = kk > 0
    scale = -coin.abs_b_sq / math.sqrt(coin.abs_a_sq)
    if isinstance(n, np.ndarray):
        # where each time's table starts, indexed by time (np.unique would load
        # numpy's sorting code, 1.6 MB of RSS, for no gain)
        times = sorted(set(n.tolist()))
        tables = [_jacobi_table(time, coin.abs_a_sq) for time in times]
        start = np.zeros(times[-1] + 1, dtype=int)
        start[times] = np.cumsum([0] + [table.shape[1] for table in tables[:-1]])
        t0, t1 = np.zeros(m.shape), _powers(abs_a, n - 1) / n
        u = scale * np.concatenate(tables, axis=1)[:, start[n[mixed]] + kk[mixed] - 1]
    else:
        t0, t1 = np.zeros(m.shape), np.full(m.shape, abs_a ** (n - 1) / n)
        u = scale * _jacobi_table(n, coin.abs_a_sq)[:, kk[mixed] - 1]
    t0[mixed], t1[mixed] = u[0], u[1] / kk[mixed]
    return np.array([abs_a * (l * t1 - t0) / a, abs_a * (m * t1 - t0) / (det * a.conjugate()),
                     -abs_a * t0 / (det * b.conjugate()), abs_a * t0 / b])


def _closed_forms(coin: Coin, n: np.ndarray, m: np.ndarray) -> PqrsMatrix:
    """``Xi(n - m, m)`` for the equal-length int arrays ``n >= 1`` and ``m``: the
    :func:`_letter_coordinates` times the unit phase, each phase a product of two
    of Python's powers.  A degenerate coin has only its pure words."""
    if np.any(n < 1):
        raise ValueError("path sums are defined for l + m >= 1")
    a, det = coin.a, coin.delta
    if coin.is_degenerate:
        if np.any((m > 0) & (m < n)):
            _require_generic(coin)
        zero = np.zeros(m.shape, dtype=complex)
        return PqrsMatrix(np.where(m == 0, _powers(a, n - 1), zero),
                          np.where(m == n, _powers(det * a.conjugate(), n - 1), zero), zero, zero, coin)
    phase = _python_products(_powers(a / abs(a), n - 2 * m), _powers(det, m))
    return PqrsMatrix(*(phase * _letter_coordinates(coin, n, m)), coin=coin)


def closed_form_coefficients(coin: Coin, sc: StepCount) -> PqrsMatrix:
    """Letter-basis coordinates via the closed form over the cluster count: ``p = a^(l-1)``
    for pure-left words, ``q = (det conj(a))^(m-1)`` for pure-right words; mixed words
    need all coin entries nonzero and read their alternating sums from the Jacobi kernel."""
    xi = _closed_forms(coin, np.array([sc.n]), np.array([sc.m]))
    return PqrsMatrix(*(complex(x[0]) for x in (xi.p, xi.q, xi.r, xi.s)), coin=coin)


def path_sum(coin: Coin, sc: StepCount) -> np.ndarray:
    """The path-sum operator as a 2x2 matrix, via the closed form, formed from one-element
    arrays as the rows of :func:`path_sums_by_time` are: the two agree bit for bit, where
    numpy's scalars would round some products differently from its arrays."""
    return _closed_forms(coin, np.array([sc.n]), np.array([sc.m])).materialize()[0]


def path_sums_by_time(coin: Coin, n_max: int) -> tuple:
    """``Xi(l, m)`` by all three routes of this module, for every ``1 <= l + m <= n_max``.

    Returns ``(l, m, exhaustive, closed, coefficients)``: the int arrays ``l`` and
    ``m``, by time ``l + m`` and then by ``l``, and three ``(len(l), 2, 2)`` arrays
    whose row ``j`` is the path sum of ``(l[j], m[j])`` by :func:`path_sum_exhaustive`,
    :func:`path_sum` and :func:`path_sum_coefficients`, bit for bit.  ``l`` runs over
    ``0..n`` at each time ``n``, or over ``0, n`` for a degenerate coin, which has no
    mixed path sums.  The word sums of each time come from the last time's, one
    step of the exact recurrence; the closed forms and the binomial sums are one
    array pass each over all the pairs.  Refuses ``n_max`` beyond
    :data:`ENUMERATION_CAP` before any work.
    """
    if n_max > ENUMERATION_CAP:
        raise CapExceededError(f"enumeration capped at l+m = {ENUMERATION_CAP}, got {n_max}")
    if n_max < 1:
        raise ValueError("path sums are defined for l + m >= 1")
    ls = [[0, n] if coin.is_degenerate else list(range(n + 1)) for n in range(1, n_max + 1)]
    word_sums = itertools.islice(_exact_word_sums(coin), 1, None)
    exhaustive = np.concatenate([sums[time] for time, sums in zip(ls, word_sums)])
    l = np.concatenate(ls)
    n = np.repeat(np.arange(1, n_max + 1), [len(time) for time in ls])
    closed = _closed_forms(coin, n, n - l).materialize()
    return l, n - l, exhaustive, closed, _materialize_as_scalars(_coefficients(coin, l, n - l))
