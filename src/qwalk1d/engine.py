"""Exact time evolution of the amplitude field, and the law type of the package.

The field at time ``n`` lives on positions ``k in {-n, -n+2, ..., n}`` (only
the parity class reachable in ``n`` steps is stored) and evolves by the banded
recurrence ``psi_k' = Q psi_{k-1} + P psi_{k+1}``.  :func:`sweep` is its one
loop: it yields the field at every time up to a capped ``n_max``, and
:func:`evolve` is its last field.

The law at a given time (:func:`distribution`) takes the Fourier route
instead: the walk is translation invariant, so in momentum space the
field at time ``n`` is ``U(t)^n psi_0`` with the symbol
``U(t) = e^{-it} P + e^{it} Q``, and one transform of ``n + 1`` samples jumps
straight to time ``n`` in O(n log n) (Ambainis, Bach, Nayak, Vishwanath &
Watrous, STOC 2001).  That route is accurate in absolute terms only: tail
probabilities below about 1e-27 lose their relative accuracy, which the banded
recurrence keeps, so the banded recurrence is the independent oracle for it.
No renormalization is ever applied on either route.  The drift of the total
probability from 1, the primary numerical health signal, is reported, not
corrected.  It is the stored coin's own non-unitarity, from its rounded
entries: at ``n <= 120`` each route's total is within 3e-15 of the exact total
of the stored coin's law (at worst 1.3e-15 on the Fourier route and 2.7e-15 on
the banded one, over 40 seeds of each coin case), and that exact total is up
to about 3e-14 off 1.

Long double holds only the symbol's powers, and only where their rounding is
amplified.  The power ``M^n`` is taken by ``L`` squarings, and the rounding
of squaring ``j`` reaches ``M^n`` multiplied by ``2^(L-j)``.  So every
squaring with two or more squarings after it runs in ``numpy.clongdouble``,
and the last two run in ``complex128``: they add about ``3 eps``.  The state
vector is ``complex128`` throughout.  Each of its updates adds about ``eps``,
which the near-unitary later factors never amplify, the size of the double
FFT's own rounding.

Both routes hand out the law as a :class:`Distribution`, with one signature:
``distribution(coin, qubit, n)`` here and ``analytic.law(coin, qubit, n)``; its
methods are the package's only sums over a law.
The returned ``Distribution`` is shared, and its ``probs`` are read-only.  Its
sums take one argument or a sequence of them: a sequence gives the whole table
in one array pass, each entry bit-identical to the one-argument call.

One cap and one cache rule hold for every law.  :data:`LAW_TIME_CAP` bounds
the time on both routes, in ``limit.ks_convergence`` and in
``limit.asymptotics_envelope``, and each refuses a larger one before it builds
an array; :data:`SWEEP_TIME_CAP` bounds a sweep the same way.  Every cache of
the package is private and keeps one entry (the memos of the two laws,
``_distribution`` and ``analytic._law``, then ``special._jacobi_table``,
``special._terminating_sum``, ``special._lhs_state``, the last state of the
identity's left-side recurrence, and ``special._family_state``, the last
state of the same recurrence run for :func:`special.hyp2f1`), because every
reuse is of the entry used just before.  Each public law is a plain function that refuses a time out of
range and then reads its memo.  On the job lists of the ``closed-form``,
``limit-converge`` and ``identities`` benchmarks (seeds 1-3) each had the hits
and misses it had with 64 to 512 entries; at the cap a law cache holds 160 KB,
where 512 entries could hold 82 MB.

Every entry of those sums is exactly rounded: it is ``math.fsum`` of its row
of terms, bit for bit.  A table of a few thousand terms or more is not summed
row by row, though.  One vectorised error-free cascade over a block of rows
(``np.cumsum`` and Knuth's TwoSum, after Ogita, Rump & Oishi 2005) gives each
row's rounded sum with a rigorous bound on what is left, and accepts it where
the bound shows it is the correctly rounded sum.  ``fsum`` still sums a small
table, and each row the cascade cannot certify: exact halfway ties, rows that
sum to zero, and rows with NaN, infinities or terms near overflow.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from .coin import Coin, Letter, Qubit, letter_matrix
from .errors import CapExceededError

__all__ = [
    "AmplitudeField",
    "Distribution",
    "LAW_TIME_CAP",
    "SWEEP_TIME_CAP",
    "sweep",
    "evolve",
    "distribution",
]

#: Largest time of a law, on both routes and in ``limit.ks_convergence``, and
#: of the kernel table of ``limit.asymptotics_envelope``.  At the cap a law
#: takes 23-40 ms on either route on a 2-vCPU VM.
LAW_TIME_CAP = 20000

#: Largest ``n_max`` of a :func:`sweep`, so of :func:`evolve` and of
#: ``symmetry.symmetry_evidence``.  A sweep is O(n_max^2).  At the cap, on a
#: 2-vCPU VM, ``evolve`` takes 0.2 s with a random coin and 0.5-0.7 s with
#: Hadamard and the symmetric qubit, whose tails fall into subnormal numbers.
#: ``qwalk1d symmetry`` at the cap takes 1.7-1.8 s end to end, printing
#: included, with a random coin and 1.8-3.0 s with Hadamard; at 6000 the
#: Hadamard case took 2.9-3.9 s.
SWEEP_TIME_CAP = 5000

#: Most products of arguments and positions that a table of sums forms at
#: once (64 KB per float array); a longer table is formed in blocks of rows.
_TABLE_TERMS = 1 << 13

#: Fewest terms of a block for which :func:`_exact_sums` runs its cascade
#: instead of one ``math.fsum`` per row.  The cascade's fixed cost is about
#: 0.1-0.2 ms.  On the 64-row ``charfn`` tables of the Hadamard law and of a
#: random law, on a 2-vCPU VM, ``fsum`` took 0.05-0.18 ms up to 3072 terms,
#: where the cascade took 0.09-0.24 ms; at 4096 terms both took 0.13-0.27
#: ms; at 8192 terms the cascade took 0.14-0.31 ms and ``fsum`` 0.29-0.85 ms.
_CASCADE_TERMS = 1 << 12
#: Most cascade passes before a row still undecided is summed by ``fsum``.
_CASCADE_PASSES = 3


@dataclass(frozen=True)
class AmplitudeField:
    """Two-component amplitudes over the reachable positions at time ``n``.

    ``amps[j]`` is the (left, right) amplitude pair at position ``k = -n + 2j``.
    """

    n: int
    amps: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1, 2)

    def amplitude(self, k: int) -> np.ndarray:
        """Amplitude pair at position ``k`` (zero off the reachable parity class)."""
        if abs(k) > self.n or (k + self.n) % 2 != 0:
            return np.zeros(2, dtype=np.complex128)
        return self.amps[(k + self.n) // 2]

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def to_distribution(self) -> "Distribution":
        return Distribution(n=self.n, probs=np.sum(np.abs(self.amps) ** 2, axis=1))


@dataclass(frozen=True)
class Distribution:
    """Position probabilities at time ``n``, aligned with ``positions``."""

    n: int
    probs: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1, 2)

    def probability(self, k: int) -> float:
        if abs(k) > self.n or (k + self.n) % 2 != 0:
            return 0.0
        return float(self.probs[(k + self.n) // 2])

    def total(self) -> float:
        return float(np.sum(self.probs))

    def mean(self) -> float:
        return self.moment(1)

    def moment(self, m):
        """``E(X_n^m) = sum_k k^m P(X_n = k)``, summed exactly rounded.

        ``m`` is one order (a float comes back) or a sequence of orders (an
        array of their moments comes back, in one pass over the law).
        """
        orders = np.asarray(m)
        k = self.positions.astype(float)
        sums = self._row_sums(orders, lambda column: k**column * self.probs)
        return np.reshape(sums, orders.shape) if orders.ndim else sums[0]

    def characteristic_function(self, xi):
        """``E(exp(i xi X_n))``, real and imaginary parts each summed exactly rounded.

        ``xi`` is one point (a complex comes back) or a sequence of points (a
        complex array comes back, in one pass over the law).
        """
        xis = np.asarray(xi, dtype=float)

        def terms(column):
            phase = column * self.positions
            # a row of real parts, then a row of imaginary parts, per point
            return np.concatenate([np.cos(phase), np.sin(phase)], axis=1).reshape(-1, self.n + 1) * self.probs

        values = np.array(self._row_sums(xis, terms)).view(complex)
        return values.reshape(xis.shape) if xis.ndim else complex(values[0])

    def _row_sums(self, args: np.ndarray, terms) -> list[float]:
        """The exactly rounded sum of each row of the table ``terms(args as a column)``.

        Every entry is ``math.fsum`` of its row, bit for bit.  The table is
        one broadcast of the arguments against the positions, formed in
        blocks of at most :data:`_TABLE_TERMS` products, so that a long table
        needs no more memory than one block.  The rows are spread evenly over
        the fewest blocks that fit, so a table of several blocks has no small
        last block.  Each block is summed by :func:`_exact_sums`: a
        vectorised cascade certifies the rows of a block of
        :data:`_CASCADE_TERMS` terms or more, and ``fsum`` sums a smaller
        block and each row the cascade cannot certify.
        """
        column = args.reshape(-1, 1)
        blocks = -(-len(column) // max(1, _TABLE_TERMS // (self.n + 1))) or 1
        edges = [len(column) * i // blocks for i in range(blocks + 1)]
        sums = []
        for lo, hi in zip(edges, edges[1:]):
            sums += _exact_sums(terms(column[lo:hi]))
        return sums


def _exact_sums(table: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of the float64 ``table``, bit for bit.

    A table of fewer than :data:`_CASCADE_TERMS` terms is summed by ``fsum``.
    A larger one is certified row by row with a few whole-table operations,
    after the error-free summation of Ogita, Rump & Oishi (SIAM J. Sci.
    Comput. 26, 2005):

    - ``np.cumsum`` gives each row's partials ``p``.  Knuth's TwoSum gives
      each step's exact error ``e``, once it is checked that every partial is
      ``p[j-1] + x[j]``.  Then ``p[-1] + sum(e)`` is the row's exact sum.
    - ``tau = fl(sum(e))`` is within ``gamma_{m-1} sum|e|`` of ``sum(e)`` in
      any summation order, also through underflow.  ``bound`` is at least
      twice that, from the rounded ``sum|e|``.  Its own rounding cannot
      undercut the error, which is a multiple of 2**-1074: that error is
      zero wherever ``bound`` underflows.
    - ``p[-1] + tau = hi + lo`` exactly, so the exact sum lies within
      ``bound`` of ``hi + lo``.  ``hi`` is its correctly rounded value when
      that interval lies strictly inside the half gaps from ``hi`` to its
      neighbours, on both sides of ``hi``.
    - A row with at most one nonzero ``e`` has an exact ``tau``, so ``hi`` is
      its exact sum ``p[-1] + e`` rounded to nearest, ties to even, as
      ``fsum`` rounds it.  That accepts an exact halfway tie, which no bound
      can certify.
    - The rows left undecided run the cascade again on ``(e, p[-1])``, which
      has the same exact sum, up to :data:`_CASCADE_PASSES` passes in all.

    ``fsum`` sums from the row's own terms every row that is still undecided,
    every row with ``hi == 0`` and every row with a partial that is not
    finite or is 2**1020 or more (``fsum``'s own running sum may overflow
    there).  So signed zeros, NaN and infinities, and ``fsum``'s exceptions,
    are ``fsum``'s.
    """
    if table.size < _CASCADE_TERMS:
        return list(map(fsum, table.tolist()))
    sums = np.full(len(table), np.nan)  # NaN marks the rows left to fsum
    rows, x = np.arange(len(table)), table
    with np.errstate(all="ignore"):  # a row that overflows or holds NaN goes to fsum
        for _ in range(_CASCADE_PASSES):
            p = np.cumsum(x, axis=1)
            prev, term, partial = p[:, :-1], x[:, 1:], p[:, 1:]
            z = prev + term
            usable = (z == partial).all(axis=1)
            # Knuth's TwoSum of each step, with the partial as its sum:
            # e = (prev - (partial - z)) + (term - z), z = partial - prev.
            # In place: with fresh arrays, a charfn table at n = 2000 took
            # 15-30% longer to sum.
            np.subtract(partial, prev, out=z)
            e = partial - z
            np.subtract(prev, e, out=e)
            e += np.subtract(term, z, out=z)
            last, tau = p[:, -1].copy(), e.sum(axis=1)
            usable &= np.abs(p, out=p).max(axis=1) < 2.0**1020
            bound = np.abs(e, out=z).sum(axis=1) * (x.shape[1] * 2.0**-52)
            hi = last + tau
            z = hi - last
            lo = (last - (hi - z)) + (tau - z)
            usable &= hi != 0
            retry = usable & ~(
                (lo + bound < (np.nextafter(hi, np.inf) - hi) / 2)
                & (bound - lo < (hi - np.nextafter(hi, -np.inf)) / 2)
            )
            retry[retry] = np.count_nonzero(e[retry], axis=1) > 1
            certified = usable & ~retry
            sums[rows[certified]] = hi[certified]
            if not retry.any():
                break
            rows, x = rows[retry], np.column_stack([e[retry], last[retry]])
    out = sums.tolist()
    for row in np.flatnonzero(np.isnan(sums)).tolist():
        out[row] = fsum(table[row].tolist())
    return out


def sweep(coin: Coin, qubit: Qubit, n_max: int) -> Iterator[AmplitudeField]:
    """Yield the field at each time ``0..n_max``, from ``qubit`` at the origin,
    with ``P.T`` and ``Q.T`` formed once.  A negative ``n_max``, or one above
    :data:`SWEEP_TIME_CAP`, is refused before the first field is formed."""
    if n_max < 0:
        raise ValueError(f"time must be non-negative, got {n_max}")
    if n_max > SWEEP_TIME_CAP:
        raise CapExceededError(f"n_max {n_max} exceeds the sweep cap {SWEEP_TIME_CAP}")
    p_t, q_t = letter_matrix(coin, Letter.P).T, letter_matrix(coin, Letter.Q).T
    old = qubit.vector.reshape(1, 2)
    yield AmplitudeField(n=0, amps=old)
    for n in range(1, n_max + 1):
        new = np.zeros((n + 1, 2), dtype=np.complex128)
        new[1:] += old @ q_t  # right moves: contribution of psi_{k-1}
        new[:-1] += old @ p_t  # left moves: contribution of psi_{k+1}
        old = new
        yield AmplitudeField(n=n, amps=new)


def evolve(coin: Coin, qubit: Qubit, n: int) -> AmplitudeField:
    """Field after ``n`` steps from ``qubit`` at the origin: the last field of
    :func:`sweep`, which holds no earlier field."""
    for field in sweep(coin, qubit, n):
        pass
    return field


def distribution(coin: Coin, qubit: Qubit, n: int) -> Distribution:
    """Exact position distribution at time ``n``, by one transform (Fourier route).

    Shared and read-only, like the closed-form ``analytic.law``; a time above
    :data:`LAW_TIME_CAP` is refused before any array is built.

    With ``psi_hat(t) = sum_k psi_k e^{ikt}``, the field at time ``n`` is
    ``psi_hat_n(t) = U(t)^n psi_0``, ``U(t) = e^{-it} P + e^{it} Q``.  Times
    ``e^{int}`` this is ``(P + z Q)^n psi_0`` with ``z = e^{2it}``: a polynomial
    of degree ``n`` in ``z`` whose coefficient of ``z^m`` is the amplitude at
    ``k = -n + 2m``.  Its samples at ``t_j = 2 pi j / (2n + 2)``, ``j = 0..n``
    (the ``n + 1`` roots of unity in ``z``; the other ``n + 1`` points of the
    full grid are redundant by parity), and one FFT per component give every
    amplitude.  The power is taken by repeated squaring, elementwise over the
    samples, so a law costs O(n log n) instead of the O(n^2) of :func:`evolve`.
    Squaring needs no eigendecomposition, so it is as stable for the
    degenerate ``a = 0`` and ``b = 0`` coins as for any other.  It does carry
    the rounding of the early squares into the n-th power up to ``n/2``-fold
    (in double precision, up to 1.6e-13 in a probability at n = 2000 on a
    ``b = 0`` coin), so each squaring with two or more squarings after it runs
    in ``numpy.clongdouble`` (64-bit significand on x86-64; no wider than
    double on some platforms).  The last two squarings, whose rounding is
    amplified at most twofold, every update of the state vector and the
    transform run in ``complex128``.  Over 40 seeds of each coin case, at
    ``n <= 120`` each probability was within 6.9e-15 of the exact law of the
    stored coin (7.0e-15 with every step in long double) and the total within
    1.3e-15 of the exact total (8.9e-16); at n = 20000 the exact atoms of
    ``b = 0`` and ``a = 0`` coins were met to 5.1e-15 and 3.2e-15, as with
    every step in long double.  A law at n = 2000 takes 1.5-1.7 ms on a 2-vCPU
    VM, where it took 1.9-2.3 ms with every step in long double.

    Accurate in absolute terms only: the transform leaves every amplitude an
    absolute error of a few 1e-15, so each probability has a noise floor (about
    1e-28 at n = 2000, 1e-27 at n = 12800), and probabilities below about 1e-27
    lose their relative accuracy.  The banded :func:`evolve` keeps it.
    """
    if n < 0:
        raise ValueError(f"time must be non-negative, got {n}")
    if n > LAW_TIME_CAP:
        raise CapExceededError(f"time {n} exceeds the cap {LAW_TIME_CAP}")
    return _distribution(coin, qubit, n)


@lru_cache(maxsize=1)
def _distribution(coin: Coin, qubit: Qubit, n: int) -> Distribution:
    """The memo of :func:`distribution`, which has refused a time out of range."""
    size = n + 1
    z = np.exp(2j * np.pi * np.arange(size) / size).astype(np.clongdouble)
    # the symbol [[p, q], [r, s]] = P + z Q in long double and the state [u, v]
    # in double, per sample
    p, q = (np.full(size, x, dtype=np.clongdouble) for x in (coin.a, coin.b))
    r, s = np.clongdouble(coin.c) * z, np.clongdouble(coin.d) * z
    u, v = (np.full(size, x, dtype=np.complex128) for x in qubit.vector)
    power = n
    while power:
        if power & 1:
            a, b, c, d = (x.astype(np.complex128, copy=False) for x in (p, q, r, s))
            u, v = a * u + b * v, c * u + d * v
        power >>= 1
        if power:
            if power < 4:  # at most one squaring after this one: double is enough
                p, q, r, s = (x.astype(np.complex128, copy=False) for x in (p, q, r, s))
            trace, qr = p + s, q * r
            p, q, r, s = p * p + qr, q * trace, r * trace, s * s + qr
    amps = np.fft.fft(np.stack([u, v], axis=1), axis=0, norm="forward")
    dist = AmplitudeField(n=n, amps=amps).to_distribution()
    dist.probs.flags.writeable = False
    return dist
