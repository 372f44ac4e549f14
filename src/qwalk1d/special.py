"""Gauss hypergeometric series, Jacobi polynomials, and the sum identities.

The alternating binomial sums of the path-sum closed form are Jacobi values.
Every closed form takes them from one float kernel, :func:`_scaled_jacobi`,
which returns the values of every cluster count ``kk`` of one time as an array:
a three-term recurrence in ``kk``, O(n) scalar steps in ``np.longdouble`` with
exact power-of-two scaling.  Each value is within 1e-12 relative or 1e-14
absolute of the exact one; that accuracy rests on the long double (see the
kernel).
:func:`_jacobi_table` caches its table of one time and ``|a|^2``, read-only.
The public functions are its exact references: 2F1 summed from its series,
Jacobi values through it, the Pfaff transformation as a residual diagnostic,
and the combinatorial-sum/Jacobi-value identities.

The exact references take floats, and the identity's ratio ``-|b|^2/|a|^2`` as
a :class:`fractions.Fraction`, as the rationals they are.  A terminating series
is carried as one integer numerator over one integer denominator, never
reduced, and rounded once by the correctly rounded integer true division; the
result is the float nearest the exact sum.  A terminating 2F1 is limited to
10,000 terms and to integers of the size 10,000 terms reach at ``z = 0.3``.
The last exact terminating series is memoised on its arguments (errors are not
stored).  The right side of ``jacobi_sum_identity`` and then the left side of
``pfaff_residual`` ask for the same series at the same ``(n, k, i)``, so a
Jacobi/Pfaff sweep sums each of those series once, and it is the only series
such a sweep sums.

The identity's left side is the terminating
``2F1(-(k-1), -(n-k-1); 1+i; r)`` at the exact ratio ``r = -|b|^2/|a|^2``, but
it is not summed term by term: it runs :func:`_scaled_jacobi`'s own recurrence
in ``k``, exactly, in Python integers (:func:`_lhs_step`), and is rounded once,
so each value is the float the series gives.  The last state of that recurrence is kept, one entry keyed on ``n``
and the coin's ``(|b|^2, |a|^2)``: a call at that key and a ``k`` no smaller
takes only the steps between, and any other call starts again from ``k = 1``.
So a sweep over ascending ``k`` costs O(n) exact steps where it cost O(n^2)
series terms, and a single cold call costs more than the series did (about 70
against 16-19 us at ``k = 30``, ``n = 60`` on a 2-vCPU VM).  The series' caps
(10,000 terms and its bit bound) refuse a left side before any step.  The
right side is the independent series that :func:`rho_value` sums, taken
straight from the memoised :func:`_terminating_sum` with the floats that
:func:`jacobi_p` hands :func:`hyp2f1`: their value bit for bit, without their
checks, which the identity's own checks make redundant.

The same recurrence sums every ``2F1(-m, -M; 1+i; z)`` that :func:`hyp2f1` is
given with both upper parameters non-positive integers and ``c = 1 + i`` in
``{1, 2}``, the walk's two Jacobi rows: it is the left side's family at
``k = min(m, M) + 1``, ``n = m + M + 2`` and ``r = z``, rounded once, so
each value is the series' float bit for bit.  That route keeps its own last
state, keyed on ``(n, z)``, since a sweep alternates the identity and the
Pfaff residual and one shared entry would restart each from the other.  The
Pfaff residual's right side, ``2F1(-(k-1), -(n-k-1); 1+i; z/(z-1))``, takes
it; its left side (upper parameter ``n-k+i > 0``) stays the series.  So each
identity still sets the series against the recurrence, at its own ratio, and
an ascending Jacobi/Pfaff sweep sums one series per ``(k, i)`` and takes two
O(1) steps.  :func:`hyp2f1` makes its checks in one straight-line pass.  Over
20 random coins in-process on a 2-vCPU VM (best of 5, four alternating runs),
a sweep took 0.19-0.23/0.50-0.55/0.93-1.00 ms at n = 20/40/60.  A cold family
call costs more than the series: 7.4-8.7/23-27/55-63 us against
3.2-3.9/6.3-7.6/13-15 us at k = 5/15/30, n = 60.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isfinite

import numpy as np

from .coin import BRANCH_A_ZERO, Coin
from .errors import CapExceededError, DegenerateCoinError, NonConvergentError, PoleAtCError

__all__ = [
    "hyp2f1",
    "pfaff_residual",
    "jacobi_p",
    "rho_value",
    "jacobi_sum_identity",
]

_SERIES_CAP = 10**6
# Longest terminating series summed exactly: the integers grow by about a
# float's width each term, so the cost grows with the square of the length.
_TERMINATING_CAP = 10_000
# The sum ends near terms x bits of the largest step denominator, and the cost
# grows with the square of that size; a tiny z adds about 1,000 bits a term.
# Capped at what 10,000 terms reach at z = 0.3 with half-integer b and c.
_TERMINATING_BITS_CAP = 830_000
_SERIES_RTOL = 1e-16

# The Jacobi recurrence divides its running values by 2^_SCALE_BITS whenever
# one passes it; the exponent is carried as an int.
_SCALE_BITS = 500
_SCALE_LIMIT = np.ldexp(np.longdouble(1.0), _SCALE_BITS)
_SCALE_DOWN = np.ldexp(np.longdouble(1.0), -_SCALE_BITS)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric series ``2F1(a, b; c; z)`` by partial sums.

    Terminating series (``a`` or ``b`` a non-positive integer) are exact:
    with the arguments as integer ratios, the nested (Horner) form
    ``1 + r_0 (1 + r_1 (1 + ...))`` of the term ratios ``r_j`` is summed as
    one integer fraction and rounded once, so the result is the float nearest
    the exact polynomial value; at most 10,000 terms, and at most 830,000 for
    terms x bits of the largest step denominator.  When both ``a`` and ``b``
    are non-positive integers and ``c`` is 1 or 2, the same value comes from
    the Jacobi kernel's recurrence in exact integers instead (see the module
    docstring): a call at the last call's ``a + b`` and ``z`` and a
    ``min(-a, -b)`` no smaller takes only the steps between, under the same
    caps and refusals.  Otherwise requires
    ``|z| < 1``; summation stops once a term drops below 1e-16 of the partial
    sum, with a 1e6-term cap.

    Raises
    ------
    ValueError
        If an argument is NaN or infinite; refused before any work.
    PoleAtCError
        If ``c`` is a non-positive integer reached before termination.
    CapExceededError
        If a terminating series has more than 10,000 terms, or would carry
        integers beyond what 10,000 terms reach at ``z = 0.3``.
    NonConvergentError
        If ``|z| >= 1`` (non-terminating) or the term cap is hit.
    """
    a, b, c, z = float(a), float(b), float(c), float(z)
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(z)):
        raise ValueError(f"2F1 needs finite arguments, got a={a}, b={b}, c={c}, z={z}")
    # the series ends after its term -a or -b, whichever upper parameter is a
    # non-positive integer (the first of them, when both are); the recurrence
    # divides by (c + j) for j = 0, 1, ..., so a non-positive integer c is a
    # pole unless the series ends strictly first
    a_ends, b_ends = a <= 0.0 and a.is_integer(), b <= 0.0 and b.is_integer()
    if c <= 0.0 and c.is_integer() and not ((a_ends and a >= c) or (b_ends and b >= c)):
        raise PoleAtCError(f"c = {c} hits a pole of the series")
    if a_ends and b_ends and (c == 1.0 or c == 2.0):
        return _family_sum(int(-a), int(-b), int(c) - 1, z)
    if a_ends or b_ends:
        stop = int(-max(a, b)) if a_ends and b_ends else int(-a) if a_ends else int(-b)
        return _terminating_sum(a, b, c, z, stop)
    if abs(z) >= 1.0:
        raise NonConvergentError(f"series does not converge for |z| = {abs(z)} >= 1")
    term = 1.0
    total = 1.0
    for j in range(_SERIES_CAP):
        term *= (a + j) * (b + j) * z / ((c + j) * (j + 1))
        total += term
        if abs(term) < _SERIES_RTOL * abs(total):
            return total
    raise NonConvergentError(f"series cap of {_SERIES_CAP} terms hit at z = {z}")


def _check_terminating_caps(stop: int, cn: int, cd: int, den_scale: int) -> None:
    """Refuse a terminating series of last term ``stop`` over the caps, before
    any term: ``c = cn/cd``, and ``den_scale`` is the product of the
    denominators of ``a``, ``b`` and ``z``."""
    if stop >= _TERMINATING_CAP:
        raise CapExceededError(
            f"terminating series of {stop + 1} terms exceeds the cap of {_TERMINATING_CAP}"
        )
    # bounds every step denominator (c_n + j c_d)(j+1) a_d b_d z_d, j < stop
    size = (stop + 1) * ((abs(cn) + stop * cd) * stop * den_scale).bit_length()
    if size > _TERMINATING_BITS_CAP:
        raise CapExceededError(
            f"terminating series of {stop + 1} terms would carry {size} bits, "
            f"over the cap of {_TERMINATING_BITS_CAP}"
        )


@lru_cache(maxsize=1)
def _terminating_sum(a: float, b: float, c: float, z: float | Fraction, stop: int) -> float:
    """The exact terminating series of :func:`hyp2f1`, last nonzero term ``stop``,
    memoised on its arguments, each read by ``as_integer_ratio()`` (``z`` may be a
    ``Fraction``); a raised cap is not stored, so it is raised again."""
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    (cn, cd), (zn, zd) = c.as_integer_ratio(), z.as_integer_ratio()
    den_scale, num_scale = ad * bd * zd, zn * cd
    _check_terminating_caps(stop, cn, cd, den_scale)
    # r_j = (a+j)(b+j)z / ((c+j)(j+1)) = N_j / D_j, innermost term first.
    num = den = 1
    for j in range(stop - 1, -1, -1):
        den *= (cn + j * cd) * (j + 1) * den_scale
        num = den + (an + j * ad) * (bn + j * bd) * num_scale * num
    return num / den


def pfaff_residual(a: float, b: float, c: float, z: float) -> float:
    """``|2F1(a,b;c;z) - (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))|``.

    A diagnostic: the transformation is an identity, so the residual measures
    evaluation error.  Both sides must be evaluable: ``z = 1`` is refused with
    ``ValueError`` before any work, as :func:`hyp2f1` refuses a NaN or an
    infinite argument.  For the walk's Jacobi values,
    ``(a, b, c) = (-(k-1), n-k+i, 1+i)``, the left side is summed as a series
    (the one :func:`rho_value` sums, read from the memo in a sweep) and the
    right side, whose upper parameters are both non-positive, by the exact
    recurrence, so the residual still compares two independent routes.
    """
    if z == 1.0:
        raise ValueError("the Pfaff transformation needs z != 1")
    lhs = hyp2f1(a, b, c, z)
    rhs = (1.0 - z) ** (-a) * hyp2f1(a, c - b, c, z / (z - 1.0))
    return abs(lhs - rhs)


def jacobi_p(degree: int, nu: float, mu: float, x: float) -> float:
    """Jacobi polynomial ``P_degree^(nu, mu)(x)`` via its terminating 2F1 form.

    ``P_n^(nu,mu)(x) = C(n+nu, n) 2F1(-n, n+nu+mu+1; nu+1; (1-x)/2)`` for an
    integer ``nu >= 0``, the only ``nu`` of the walk's Jacobi values.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if nu < 0 or not float(nu).is_integer():
        raise ValueError(f"nu must be an integer >= 0, got {nu}")
    prefactor = float(comb(degree + int(nu), degree))
    return prefactor * hyp2f1(-degree, degree + nu + mu + 1.0, nu + 1.0, (1.0 - x) / 2.0)


def rho_value(n: int, k: int, i: int, abs_a_sq: float) -> float:
    """``P_(k-1)^(i, n-2k)(2|a|^2 - 1)`` for ``1 <= k <= n//2`` and ``i in {0, 1}``,
    by :func:`jacobi_p`."""
    if i not in (0, 1):
        raise ValueError(f"i must be 0 or 1, got {i}")
    if not 1 <= k <= n // 2:
        raise ValueError(f"need 1 <= k <= n//2, got k={k}, n={n}")
    return jacobi_p(k - 1, i, n - 2 * k, 2.0 * abs_a_sq - 1.0)


def jacobi_sum_identity(coin: Coin, n: int, k: int, i: int) -> tuple[float, float]:
    """Both sides of the binomial-sum/Jacobi-value identity.

    lhs: ``sum_(g=1..k) (-|b|^2/|a|^2)^(g-1) C(k-1,g-1) C(n-k-1,g-1) / g^i``
    (the ``1/g`` weight present only for ``i = 1``), which is the terminating
    ``2F1(-(k-1), -(n-k-1); 1+i; r)`` at the exact rational
    ``r = -|b|^2/|a|^2``.  It is not summed as that series: it runs
    :func:`_scaled_jacobi`'s recurrence in ``k`` exactly, in integers (see
    :func:`_sum_lhs`), and is rounded once, to the float nearest the exact
    sum.  The recurrence's last state is kept, so a call at the same ``n``
    and coin moduli and a ``k`` no smaller than the last one's takes only the
    steps between them: an ascending sweep over ``k`` costs O(n) steps in
    all.  The series' caps of :func:`hyp2f1` (10,000 terms, and its bit
    bound) still refuse a left side before any step.

    rhs: ``|a|^(-2(k-1)) * rho(n,k,i) / k^i`` with the Jacobi value the
    exact series that :func:`rho_value` sums, an independent route:
    ``C(k-1+i, k-1) 2F1(-(k-1), n-k+i; 1+i; z)`` at ``z = (1 - (2|a|^2 - 1))/2``,
    read straight from the ``_terminating_sum`` memo with the floats that
    :func:`jacobi_p` hands :func:`hyp2f1`.  The arguments checked here need
    none of the checks of :func:`rho_value`, :func:`jacobi_p` and
    :func:`hyp2f1`, and the value is theirs bit for bit.  A Pfaff left side
    at the same ``(n, k, i)`` reads that memo entry without summing it again.

    Raises
    ------
    DegenerateCoinError
        If ``a = 0`` (the ratio is undefined); ``b = 0`` is fine.
    CapExceededError
        If either side's series passes the caps of :func:`hyp2f1`.
    OverflowError
        If either side, or a float step of the right side, leaves the float
        range (``|a|^2 = 0.01`` at ``n = 400`` from ``k = 115``); the message
        names ``n``, ``k`` and ``i``.  The left side's recurrence state is
        kept whole, so a later call at a smaller ``k`` still works.
    """
    if i not in (0, 1):
        raise ValueError(f"i must be 0 or 1, got {i}")
    if not 1 <= k <= n // 2:
        raise ValueError(f"need 1 <= k <= n//2, got k={k}, n={n}")
    if coin.branch == BRANCH_A_ZERO:
        raise DegenerateCoinError("the binomial-sum identity needs a != 0")
    abs_a_sq = coin.abs_a_sq
    refusal = f"the identity at n={n}, k={k}, i={i} leaves the float range"
    try:
        lhs = _sum_lhs(n, coin.abs_b_sq, abs_a_sq, k, i)
        scale, z = abs_a_sq ** (-(k - 1)), (1.0 - (2.0 * abs_a_sq - 1.0)) / 2.0
        rho = float(comb(k - 1 + i, k - 1)) * _terminating_sum(1.0 - k, float(n - k + i), 1.0 + i, z, k - 1)
        rhs = scale * rho
    except OverflowError:
        raise OverflowError(refusal) from None
    if i == 1:
        rhs /= k
    if not (isfinite(lhs) and isfinite(rhs)):
        raise OverflowError(refusal)
    return lhs, rhs


# Where the last call left each exact recurrence: its key, the cluster count k,
# the ratio r = p/q, q^(k-1), and both rows' numerators at k - 1 and at k.  The
# identity's left side keys on (n, |b|^2, |a|^2), the family route of hyp2f1 on
# (n, z); a Jacobi/Pfaff sweep alternates the two, so each keeps its own entry.
_lhs_state: tuple | None = None
_family_state: tuple | None = None


def _lhs_step(n: int, p: int, q: int, k: int, prev: tuple[int, int], cur: tuple[int, int]) -> tuple[int, int]:
    """Both rows' numerators at ``k + 1`` from those at ``k - 1`` and ``k``.

    With ``r = p/q``, ``v_i(k) = k^i lhs_i(k)`` obeys :func:`_scaled_jacobi`'s
    recurrence with ``1/a2 -> 1 - r`` and ``w/a2 -> -r``: both sides are
    polynomials in ``r`` that agree at every ``r = 1 - 1/a2``, ``0 < a2 <= 1``,
    so they agree at every ``r``::

        k(k-n+1)(2k-n-1) v_i(k+1)
            = (2k-n) [(s + (1-i)(n-1))(1-r) - (s + (n+i)(n-1)) r] v_i(k)
              - (k-1+i)(k-n-i)(2k-n+1) v_i(k-1),

    with ``s = 2k(k-n)``.  ``v_i(k)`` is a polynomial of degree ``k - 1`` in
    ``r`` with integer coefficients (``k C(k-1,g-1) / g = C(k,g)``), so the
    numerators ``q^(k-1) v_i(k)`` are integers and the division is exact.
    """
    s, g, back = 2 * k * (k - n), 2 * k - n, 2 * k - n + 1
    den, q_sq = k * (k - n + 1) * (2 * k - n - 1), q * q
    return (
        (g * ((s + n - 1) * (q - p) - (s + n * (n - 1)) * p) * cur[0]
         - (k - 1) * (k - n) * back * q_sq * prev[0]) // den,
        (g * (s * (q - p) - (s + (n + 1) * (n - 1)) * p) * cur[1]
         - k * (k - n - 1) * back * q_sq * prev[1]) // den,
    )


def _advance(state: tuple | None, key: tuple, ratio, n: int, k: int, i: int) -> tuple[tuple, float]:
    """The new state and the row-``i`` value ``q^(k-1) v_i(k) / (q^(k-1) k^i)``
    at ``r = p/q``, rounded once by integer true division.

    It starts from ``v_i(0) = 0`` and ``v_i(1) = 1``, with ``(p, q) = ratio()``,
    unless ``state`` has the same ``key`` and a ``k`` no larger; it checks the
    series' caps before any step and returns the state whole, so a call cut
    short never leaves it half advanced.
    """
    if state is not None and state[0] == key and state[1] <= k:
        _, at, p, q, den, prev, cur = state
    else:
        p, q = ratio()
        at, den, prev, cur = 1, 1, (0, 0), (1, 1)
    _check_terminating_caps(k - 1, 1 + i, 1, q)
    while at < k:
        prev, cur = cur, _lhs_step(n, p, q, at, prev, cur)
        at, den = at + 1, den * q
    return (key, at, p, q, den, prev, cur), cur[i] / (den * k if i else den)


def _sum_lhs(n: int, b2: float, a2: float, k: int, i: int) -> float:
    """The left side of :func:`jacobi_sum_identity` for ``|b|^2 = b2`` and
    ``|a|^2 = a2``, at ``r = -b2/a2``, by :func:`_advance` on ``_lhs_state``;
    the ratio is reduced only on a fresh start."""
    global _lhs_state

    def ratio() -> tuple[int, int]:
        (bn, bd), (an, ad) = b2.as_integer_ratio(), a2.as_integer_ratio()
        return Fraction(-bn * ad, bd * an).as_integer_ratio()

    _lhs_state, value = _advance(_lhs_state, (n, b2, a2), ratio, n, k, i)
    return value


def _family_sum(m: int, big_m: int, i: int, z: float) -> float:
    """``2F1(-m, -M; 1+i; z)`` for integers ``m, M >= 0`` and ``i`` in
    ``{0, 1}``: the left side's family at ``k = min(m, M) + 1``,
    ``n = m + M + 2`` and ``r = z``, by :func:`_advance` on ``_family_state``."""
    global _family_state
    n = m + big_m + 2
    _family_state, value = _advance(_family_state, (n, z), z.as_integer_ratio, n, min(m, big_m) + 1, i)
    return value


def _power(x: np.longdouble, e: int) -> tuple[np.longdouble, int]:
    """``x^e`` for ``x > 0`` and ``e >= 0`` as ``(mantissa, exponent)``, by
    squaring in long double with the exponents carried as ints, so that no
    step overflows or underflows."""
    result, result_exp = np.longdouble(1.0), 0
    base, base_exp = np.frexp(x)
    base_exp = int(base_exp)
    while e:
        if e & 1:
            result, shift = np.frexp(result * base)
            result_exp += int(shift) + base_exp
        base, shift = np.frexp(base * base)
        base_exp = 2 * base_exp + int(shift)
        e >>= 1
    return result, result_exp


def _scaled_jacobi(n: int, a2: float) -> np.ndarray:
    """Every Jacobi value of time ``n``, as a ``(2, n // 2)`` array.

    Row ``i``, column ``kk - 1`` holds ``u_i(kk) = |a|^(n-2kk) P_(kk-1)^(i, n-2kk)(2|a|^2 - 1)``
    for ``|a|^2 = a2``.  With ``w = 1 - a2`` and ``s = 2kk(kk - n)``, both rows
    obey one three-term recurrence in the cluster count (from the contiguous
    2F1 relations, DLMF 15.5(ii))::

        kk(kk-n+1)(2kk-n-1) u_i(kk+1)
            = (2kk-n) [s + (1-i)(n-1) + w (s + (n+i)(n-1))] / a2 u_i(kk)
              - (kk-1+i)(kk-n-i)(2kk-n+1) u_i(kk-1),

    run forward from ``u_i(0) = 0`` and ``u_i(1) = |a|^(n-2)``: O(n) scalar
    steps in ``np.longdouble``, with the integer coefficients (up to about
    n^3) exact below 2^64.  The factor ``|a|^(n-2)`` is left out of the steps
    and put in once at the end, as a long double mantissa times a power of
    two; the running values are divided by ``2^_SCALE_BITS`` whenever they
    pass it.  So no value overflows or underflows for small ``|a|``, every
    rescaling is exact, and each entry is rounded to double once.  About
    0.2-0.3 ms at ``n = 160`` and 25-40 ms at ``n = 20000`` on a 2-vCPU VM.

    The accuracy rests on ``np.longdouble``, which has a 64-bit mantissa on
    x86-64 Linux.  Where it is plain double (macOS arm64, Windows), the law
    was measured up to 4.1e-13 from the engine at ``|a|^2 = 0.01``, inside
    the 1e-12 gate but further than here (under 5e-14).
    """
    size = n // 2
    if size == 0:
        return np.empty((2, 0))
    a2l = np.longdouble(a2)
    inv, ratio = 1 / a2l, (1 - a2l) / a2l
    prev0 = prev1 = np.longdouble(0.0)
    cur0 = cur1 = np.longdouble(1.0)
    values, exps, exp = [(cur0, cur1)], [0], 0
    for kk in range(1, size):
        s, g, back = 2 * kk * (kk - n), 2 * kk - n, 2 * kk - n + 1
        den = kk * (kk - n + 1) * (2 * kk - n - 1)
        cur0, prev0 = (((g * (s + n - 1)) * inv + (g * (s + n * (n - 1))) * ratio) * cur0
                       - ((kk - 1) * (kk - n) * back) * prev0) / den, cur0
        cur1, prev1 = (((g * s) * inv + (g * (s + (n + 1) * (n - 1))) * ratio) * cur1
                       - (kk * (kk - n - 1) * back) * prev1) / den, cur1
        if abs(cur0) > _SCALE_LIMIT or abs(cur1) > _SCALE_LIMIT:
            cur0, cur1, prev0, prev1 = (v * _SCALE_DOWN for v in (cur0, cur1, prev0, prev1))
            exp += _SCALE_BITS
        values.append((cur0, cur1))
        exps.append(exp)
    # |a|^(n-2) = a2^((n-2)//2), times |a| for odd n
    mantissa, power_exp = _power(a2l, (n - 2) // 2)
    if n % 2:
        mantissa *= np.sqrt(a2l)
    table = np.array(values, dtype=np.longdouble).T * mantissa
    return np.ldexp(table, np.array(exps) + power_exp).astype(float)


@lru_cache(maxsize=1)
def _jacobi_table(n: int, a2: float) -> np.ndarray:
    """The table of :func:`_scaled_jacobi`, cached and read-only: the path sums,
    the law and the limit envelope of one ``(n, a2)`` all read this one copy."""
    table = _scaled_jacobi(n, a2)
    table.flags.writeable = False
    return table
