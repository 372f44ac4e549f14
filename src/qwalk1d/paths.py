"""Path sums over interleaved left/right step words.

The amplitude operator ``Xi(l, m)`` is the sum of all ``C(l+m, l)`` ordered
products of ``l`` P's and ``m`` Q's (leftmost letter acts last); the walk's
amplitude at time ``l+m`` and position ``m-l`` is ``Xi(l, m) phi``.  The word
sum is the definition, and it is the oracle, summed exactly.  Splitting each
word at its first letter only regroups the sum, into the recurrence
``Xi(l, m) = P Xi(l - 1, m) + Q Xi(l, m - 1)``; with the coin's entries as
Gaussian integers over one power of two, that recurrence runs in integers, in
O(n^2) steps where the words number ``2^n``, and each entry is the exact sum
rounded once.  The paper's combinatorial expression, the letter coordinates of
``Xi`` as binomial sums (:func:`path_sum_coefficients`), alternates in sign,
so it is summed exactly too, in the same Gaussian integers, and each
coordinate rounded once.  The production route is the closed form over the
cluster count, where each letter coordinate is a unit phase times a
combination of

    T_i = sum_(g=1..kk) (-|b|^2/|a|^2)^g C(l-1, g-1) C(m-1, g-1) / g^i,

``kk = min(l, m)``.  These are Jacobi values,
``|a|^(n-1) T_i = -(|b|^2/|a|) u_i / kk^i`` with
``u_i = |a|^(n-2kk) P_(kk-1)^(i, n-2kk)(2|a|^2 - 1)``; they are never summed
term by term, but read from the table of the array kernel
:func:`qwalk1d.special._scaled_jacobi`, cached for one time and ``|a|^2``.  One
function, :func:`_letter_coordinates`, gives the phase-free coordinates of
``Xi(n - m, m)`` for an array of ``m`` and a time per ``m``, in one array
expression over those tables; the pure words are its ``kk = 0`` case.  The
path sums here multiply them by the unit phase.  The law in
:mod:`qwalk1d.analytic` reads the same tables but not these coordinates: its
squared norm needs no phase.

:func:`path_sums_by_time` is the ``oracle`` command's pass, ``Xi(l, m)`` by the
word sums and the closed form for every ``l + m <= n_max``; the closed forms
are one pass over all the pairs: one array expression for the coordinates,
and each unit phase Python's product of two Python powers, complex scalars.
The pass's rows equal the per-entry functions bit for bit, because both run
the same code.  The per-entry word sum runs the recurrence afresh up to its
own time.
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
#: O(n^2) integer steps, not 2^n products, so only time bounds it: in-process on
#: a 2-vCPU VM the pass to 14 took 1.2 ms (Hadamard) and 1.6 ms (a random coin),
#: and 19 ms with imaginary parts of 1e-300 on the Hadamard coin's entries, whose
#: integers are some 20 times longer; a larger cap would be affordable.
ENUMERATION_CAP = 14

#: Largest l+m of the binomial sums of :func:`path_sum_coefficients`.  They are
#: exact, so only time bounds it: at l = m = 20 a call took 0.2 ms (Hadamard) and
#: 0.5 ms (a random coin), and 55 ms with imaginary parts of 1e-300 on all four
#: entries of the Hadamard coin, whose powers run to some 42,000 bits (in-process,
#: 2-vCPU VM).
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
    ``2^(E n)``, each part rounded once to the float nearest the quotient.
    Each of the ``C(n, l)`` words of ``Xi(l, n - l)`` is a product of ``n``
    letters, each one row of the coin, of norm within the coin's unitarity
    tolerance (1e-12) of 1, and ``C(n, l) <= 2^(n - 1)`` for ``n >= 2``,
    so every part of a time ``n >= 1`` has ``|part| < 2^((E + 1) n)``.  Where
    ``(E + 1) n <= 1023``, ``float(part)`` is then finite and correctly
    rounded, and a nonzero quotient is at least ``2^(-E n) >= 2^-1022``, a
    normal float, so ``ldexp(float(part), -E n)`` is the correctly rounded
    quotient.  Past that guard a part is rounded by the integer true division,
    which is correctly rounded at any size: with imaginary parts of 1e-300 on
    the Hadamard coin's entries, ``E = 1049`` and every time past 0 takes it.
    In-process on a 2-vCPU VM, the ``ldexp`` route rounds the 728 parts of a
    pass to 12 in about half the time of the division.
    """
    e, (a, b, c, d) = _dyadic(coin)

    def row(x, y, xi):  # x xi[0] + y xi[1]; a row is (re, im) of column 0, then of column 1
        (xr, xm), (yr, ym), (t0, t1, t2, t3), (u0, u1, u2, u3) = x, y, *xi
        return (xr * t0 - xm * t1 + yr * u0 - ym * u1, xr * t1 + xm * t0 + yr * u1 + ym * u0,
                xr * t2 - xm * t3 + yr * u2 - ym * u3, xr * t3 + xm * t2 + yr * u3 + ym * u2)

    zero = (0, 0, 0, 0)
    xis = [((1, 0, 0, 0), (0, 0, 1, 0))]  # the identity at time 0, by rows
    for n in itertools.count():
        ints = [part for xi in xis for r in xi for part in r]
        if (e + 1) * n <= 1023:
            parts = [math.ldexp(float(part), -e * n) for part in ints]
        else:
            scale = 1 << e * n
            parts = [part / scale for part in ints]
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


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two Gaussian integers, each an ``(re, im)`` pair."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _binomial_integers(coin: Coin, l: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    """``(E, [(re, im) of x 2^(E (l + m - 1)) for x = p, q, r, s])``: the binomial
    sums of :func:`path_sum_coefficients` as exact Gaussian integers, ``2^E`` the
    coin's common denominator (:func:`_dyadic`).

    Every term has degree ``l + m - 1`` in the coin's entries, so every sum has
    that one denominator.  ``b^g c^g = (bc)^g``, ``r`` and ``s`` are ``b`` and ``c``
    times one sum, and each power of ``a``, ``bc`` and ``d`` is formed once.
    """
    e, (a, b, c, d) = _dyadic(coin)

    def powers(x, top):  # x^0, ..., x^top
        out = [(1, 0)]
        for _ in range(top):
            out.append(_times(out[-1], x))
        return out

    zero = (0, 0)
    pa, pd = powers(a, l - 1), powers(d, m - 1)
    if m == 0:
        return e, [pa[-1], zero, zero, zero]
    if l == 0:
        return e, [zero, pd[-1], zero, zero]
    _require_generic(coin)
    pbc = powers(_times(b, c), min(l, m))

    def total(i, j, ea, ebc, ed):  # sum over g of C(l-1, g-i) C(m-1, g-j) a^(l-g-ea) (bc)^(g-ebc) d^(m-g-ed)
        re = im = 0
        for g in range(1, min(l, m) + 1):
            weight = math.comb(l - 1, g - i) * math.comb(m - 1, g - j)
            if weight:  # a term past its sum's range has weight 0 and may ask for a negative power
                x = _times(_times(pa[l - g - ea], pbc[g - ebc]), pd[m - g - ed])
                re, im = re + weight * x[0], im + weight * x[1]
        return re, im

    rs = total(1, 1, 0, 1, 0)
    return e, [total(0, 1, 1, 0, 0), total(1, 0, 0, 0, 1), _times(b, rs), _times(c, rs)]


def path_sum_coefficients(coin: Coin, sc: StepCount) -> PqrsMatrix:
    """Letter-basis coordinates of the path sum via the explicit binomial sums

        p = sum_g C(l-1, g) C(m-1, g-1) a^(l-g-1) b^g c^g d^(m-g),
        q = sum_g C(l-1, g-1) C(m-1, g) a^(l-g) b^g c^g d^(m-g-1),
        r = sum_g C(l-1, g-1) C(m-1, g-1) a^(l-g) b^g c^(g-1) d^(m-g),
        s = sum_g C(l-1, g-1) C(m-1, g-1) a^(l-g) b^(g-1) c^g d^(m-g),

    summed exactly (:func:`_binomial_integers`), each coordinate rounded once.
    Branches: pure-left words give ``p = a^(l-1)`` only, pure-right words give
    ``q = d^(m-1)`` only; mixed words need all coin entries nonzero.  Refuses
    ``l + m`` beyond :data:`BINOMIAL_SUM_CAP` before any sum is formed.
    """
    if sc.n < 1:
        raise ValueError("path sums are defined for l + m >= 1")
    if sc.n > BINOMIAL_SUM_CAP:
        raise CapExceededError(f"binomial sums capped at l+m = {BINOMIAL_SUM_CAP}, got {sc.n}")
    e, sums = _binomial_integers(coin, sc.l, sc.m)
    scale = 1 << e * (sc.n - 1)
    return PqrsMatrix(*(complex(re / scale, im / scale) for re, im in sums), coin=coin)


def _letter_coordinates(coin: Coin, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Letter coordinates ``(p, q, r, s)`` of ``Xi(n - m, m)`` for the equal-shape int
    arrays ``n`` and ``m`` and a generic coin, divided by the unit phase
    ``(a/|a|)^(l-m) det^m``, as a ``(4, len(m))`` array.

    With ``l = n - m``, ``kk = min(l, m)`` and ``(tau_0, tau_1) = |a|^(n-1) (T_0, T_1)``
    they are ``|a| (l tau_1 - tau_0) / a``, ``|a| (m tau_1 - tau_0) / (det conj(a))``,
    ``-|a| tau_0 / (det conj(b))`` and ``|a| tau_0 / b``.  The taus of ``kk >= 1``
    are read from the cached Jacobi table of each time; the pure words are the
    case ``kk = 0``, with ``tau_0 = 0`` and ``n tau_1 = |a|^(n-1)``, one Python
    power per entry, so an entry's bits do not depend on the other times.
    For small ``|a|``, ``kk tau_1 - tau_0`` loses its leading term (the
    ``g = kk`` terms of ``kk T_1`` and ``T_0`` are equal) and ``1/|a|`` scales
    up what is left.
    """
    a, b, det = coin.a, coin.b, coin.delta
    abs_a = abs(a)
    l, kk = n - m, np.minimum(m, n - m)
    mixed = kk > 0
    scale = -coin.abs_b_sq / math.sqrt(coin.abs_a_sq)
    # where each time's table starts, indexed by time (np.unique would load
    # numpy's sorting code, 1.6 MB of RSS, for no gain)
    times = sorted(set(n.tolist()))
    tables = [_jacobi_table(time, coin.abs_a_sq) for time in times]
    start = np.zeros(times[-1] + 1, dtype=int)
    start[times] = np.cumsum([0] + [table.shape[1] for table in tables[:-1]])
    t0, t1 = np.zeros(m.shape), np.array([abs_a ** (t - 1) for t in n.tolist()]) / n
    u = scale * np.concatenate(tables, axis=1)[:, start[n[mixed]] + kk[mixed] - 1]
    t0[mixed], t1[mixed] = u[0], u[1] / kk[mixed]
    return np.array([abs_a * (l * t1 - t0) / a, abs_a * (m * t1 - t0) / (det * a.conjugate()),
                     -abs_a * t0 / (det * b.conjugate()), abs_a * t0 / b])


def _closed_forms(coin: Coin, n: np.ndarray, m: np.ndarray) -> PqrsMatrix:
    """``Xi(n - m, m)`` for the equal-length int arrays ``n >= 1`` and ``m``: the
    :func:`_letter_coordinates` times the unit phase, each phase Python's product
    of two of Python's powers.  A degenerate coin has only its pure words."""
    if np.any(n < 1):
        raise ValueError("path sums are defined for l + m >= 1")
    a, det = coin.a, coin.delta
    if coin.is_degenerate:
        if np.any((m > 0) & (m < n)):
            _require_generic(coin)
        zero = np.zeros(m.shape, dtype=complex)
        pure_left = np.array([a ** (t - 1) for t in n.tolist()])
        pure_right = np.array([(det * a.conjugate()) ** (t - 1) for t in n.tolist()])
        return PqrsMatrix(np.where(m == 0, pure_left, zero), np.where(m == n, pure_right, zero), zero, zero, coin)
    unit = a / abs(a)
    phase = np.array([unit ** (t - 2 * j) * det ** j for t, j in zip(n.tolist(), m.tolist())])
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
    """``Xi(l, m)`` by the word sums and by the closed form, for every ``1 <= l + m <= n_max``.

    Returns ``(l, m, exhaustive, closed)``: the int arrays ``l`` and ``m``, by time
    ``l + m`` and then by ``l``, and two ``(len(l), 2, 2)`` arrays whose row ``j`` is
    the path sum of ``(l[j], m[j])`` by :func:`path_sum_exhaustive` and by
    :func:`path_sum`, bit for bit.  ``l`` runs over ``0..n`` at each time ``n``, or
    over ``0, n`` for a degenerate coin, which has no mixed path sums.  The word
    sums of each time come from the last time's, one step of the exact
    recurrence; the closed forms are one array pass over all the pairs.  Refuses
    ``n_max`` beyond :data:`ENUMERATION_CAP` before any work.
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
    return l, n - l, exhaustive, _closed_forms(coin, n, n - l).materialize()
