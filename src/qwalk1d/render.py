"""The writer of large ``qwalk1d`` tables: every cell exactly as ``"%d"`` or
``"%.17g"`` prints it, in a few NumPy passes over the columns.

For each REAL cell the 17 significant digits and the decimal exponent come
from a float64 double-double product with a split power of ten, and the cell
is written from them only where that estimate decides every digit; each
other cell is Python's own ``"%.17g" % x`` (see :func:`_real_records`).
Each cell's digits go into a fixed NUL-padded record with a ``.`` slot after
every digit, four digits to a 64-bit word, read from a table of the 10^4
four-digit groups that SWAR steps (multiplies and shifts) build; one
``bytes.translate`` per block of rows drops the NULs.

:func:`qwalk1d.cli._emit` imports this module for its first table of
``cli._WRITER_CELLS`` cells or more; smaller tables are one ``%`` template.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .cli import INT, REAL, _json_numbers

#: Cells formed at once.  A table is written in blocks, and each array of a
#: block, at most six words a cell, stays under 128 KB, which malloc serves
#: without mapping fresh pages: with blocks of 4096 or 8192 cells the
#: 6003-cell ``limit`` job took 15-30% longer on a 2-vCPU VM.
_BLOCK_CELLS = 1 << 11
#: A REAL cell is written from its estimate only where the estimate's
#: fraction lies this far from 1/2; see :func:`_real_records`.
_TIE_MARGIN = 1e-6
#: Magnitudes written from the estimate, and their decimal exponents X =
#: floor(log10 |x|); each needs the power 10^(16 - X).
_REAL_RANGE = (1e-280, 1e280)
_EXPONENTS = range(-281, 281)


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """``hi`` and ``lo`` with ``hi + lo = 10**(16 - X)`` to 2^-105 for each X
    in :data:`_EXPONENTS`: ``hi`` is the power rounded once, ``lo`` the rest
    rounded once.  Built on first use (a few ms), not at import."""
    his, los = [], []
    for e in _EXPONENTS:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # int / int rounds once
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * b - a * den) / (den * b))
    return np.array(his), np.array(los)


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a cell record holds besides its digits and sign, as little-endian words.

    A record is 48 bytes: an opening ``[`` (byte 0), the sign (byte 1), the
    20 digits of an integer below 10^20 in bytes 1, 3, ..., 39 (a REAL's 17
    in bytes 7, 9, ..., 39), an exponent in bytes 41-45 and the separators in
    bytes 46-47; every byte not written is NUL.  Returns

    - the REAL layouts of bytes 0-39 by ``18 * layout + shown``: ``0.`` and
      up to three zeros in bytes 2-6 for X < 0, ``0`` added to each digit
      shown, and the point after digit X, or after the first in exponent
      notation (``layout`` 21), if a digit is shown after it.  ``shown`` is
      one more than the index of the last nonzero digit; fixed notation shows
      all X + 1 digits before the point too.
    - the exponent word, bytes 40-47, by X - ``_EXPONENTS.start``; 0 in fixed
      notation (-4 <= X < 17).
    - the INT layouts of bytes 0-39 by digits - 1: ``0`` added to the last
      ``digits`` digits.
    """
    reals = bytearray(22 * 18 * 40)
    for layout, shown in itertools.product(range(22), range(1, 18)):
        x = layout - 4 if layout < 21 else 0
        at, kept = 40 * (18 * layout + shown), max(shown, x + 1)
        if x < 0:
            reals[at + 2 : at + 3 - x] = b"0.000"[: 1 - x]
        reals[at + 7 : at + 7 + 2 * kept : 2] = b"0" * kept
        if x >= 0 and x + 1 < kept:
            reals[at + 8 + 2 * x] = ord(".")
    exponents = b"".join((b"" if -4 <= x < 17 else b"e%+03d" % x).rjust(6, b"\0").ljust(8, b"\0") for x in _EXPONENTS)
    ints = b"".join(bytes(41 - 2 * digits) + (b"0\0" * digits)[:-1] for digits in range(1, 21))
    return (np.frombuffer(reals, "<u8").reshape(22 * 18, 5).T.copy(), np.frombuffer(exponents, "<u8"),
            np.frombuffer(ints, "<u8").reshape(20, 5).T.copy())


@functools.cache
def _groups() -> tuple[np.ndarray, np.ndarray]:
    """For each four-digit group g < 10^4: its digits in bytes 1, 3, 5, 7 of
    a little-endian word, leading digit first, and how many of them run up
    to its last nonzero digit (0 for g = 0).  The words are split out of g
    by SWAR steps, each lane by a multiply and a shift: two two-digit lanes,
    then four one-digit lanes."""
    g = np.arange(10**4, dtype=np.uint64)
    tens = g * 5243 >> 19  # // 100, below 10^4
    lanes = tens | (g - tens * 100) << 32
    tens = (lanes * 103 >> 10) & 0x0000000F_0000000F  # // 10, below 100
    shown = (4 - sum(g % 10**k == 0 for k in range(1, 5))).astype(np.uint8)
    return (tens | (lanes - tens * 10) << 16) << 8, shown


def _digit_groups(u: np.ndarray) -> np.ndarray:
    """The five four-digit groups of each uint64, leading group first, one row each."""
    groups = np.empty((5, len(u)), np.int64)
    for row in range(4, 0, -1):
        quotient = u // 10**4
        groups[row] = u - quotient * 10**4
        u = quotient
    groups[0] = u  # below 1845
    return groups


#: 10^1, ..., 10^19: an INT below 10^k has at most k digits.
_INT_POWERS = np.array([10**k for k in range(1, 20)], np.uint64)


def _int_records(values: np.ndarray) -> np.ndarray:
    """The records of ``"%d" % v`` for each int64, one row of six words each."""
    magnitudes = np.abs(values).astype(np.uint64)  # wraps -2**63 to 2**63
    words = np.zeros((len(values), 6), "<u8")
    digits = _groups()[0][_digit_groups(magnitudes)]
    words[:, :5] = (digits + _layouts()[2][:, np.searchsorted(_INT_POWERS, magnitudes, "right")]).T
    words[:, 0] += (values < 0) * np.uint64(ord("-") << 8)
    return words


def _real_records(x: np.ndarray, json_rows: bool) -> np.ndarray:
    """The records of ``"%.17g" % x`` for each float64, one row of six words each.

    The 17 digits are ``d = round(|x| 10^(16 - X))`` with ``X = floor(log10
    |x|)``.  Dekker's TwoProduct (Numer. Math. 18, 1971) gives ``|x| hi``
    exactly as ``ph + pl``, and ``r = pl + |x| lo`` holds the rest of ``|x|
    10^(16 - X) - ph``, an integer of at least 2^53, to within 1e-14.  A cell
    is written from ``ph + r`` only where that bound decides it: the fraction
    of ``r`` lies more than :data:`_TIE_MARGIN` from 1/2, and ``10^16 < d <
    10^17 - 1``, so neither a tie nor a carry into the next decade can move a
    digit.  Every other cell (0, NaN, inf, |x| outside :data:`_REAL_RANGE`,
    near-ties, decade edges) is Python's own ``"%.17g" % x``, once per
    distinct value.
    """
    ax = np.abs(x)
    fit = (ax >= _REAL_RANGE[0]) & (ax <= _REAL_RANGE[1])  # NaN does not
    ax = np.where(fit, ax, 1.0)
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _powers_of_ten()
    th, tl = hi[e10 - _EXPONENTS.start], lo[e10 - _EXPONENTS.start]
    ph = ax * th
    split = 134_217_729.0 * ax  # 2^27 + 1: Veltkamp's split into 26-bit halves
    ah = split - (split - ax)
    al = ax - ah
    split = 134_217_729.0 * th
    bh = split - (split - th)
    bl = th - bh
    r = (((ah * bh - ph) + ah * bl + al * bh) + al * bl) + ax * tl
    whole = np.floor(r)
    frac = r - whole
    d = ph.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok = fit & (np.abs(frac - 0.5) > _TIE_MARGIN) & (d > 10**16) & (d < 10**17 - 1)

    reals, exponents, _ = _layouts()
    words_of, shown_of = _groups()
    groups = _digit_groups(d.astype(np.uint64))
    digits = words_of[groups]
    # shown: 1 + the index of the last nonzero digit, 1 if groups 1-4 are 0;
    # digit 4 c + p is place p (1-4) of group c + 1
    places = shown_of[groups[1:]]
    last = np.where(places > 0, places + np.arange(1, 14, 4)[:, None], 1)
    shown = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    layout = np.where((e10 >= -4) & (e10 < 17), e10 + 4, 21)
    words = np.empty((len(x), 6), "<u8")
    words[:, :5] = (digits + reals[:, 18 * layout + shown]).T
    words[:, 0] += np.signbit(x) * np.uint64(ord("-") << 8)
    words[:, 5] = exponents[e10 - _EXPONENTS.start]
    python = np.flatnonzero(~ok)
    if len(python):
        words.view(np.uint8)[python, 1:46] = _python_cells(x[python], json_rows)
    return words


def _python_cells(x: np.ndarray, json_rows: bool) -> np.ndarray:
    """``"%.17g" % x`` of each float64 as a NUL-padded 45-byte row, formatted once per distinct value."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    texts = [REAL % v for v in bits.view(np.float64).tolist()]
    if json_rows:
        texts = list(map(_json_numbers, texts))
    return np.array(texts, "S45").view(np.uint8).reshape(-1, 45)[inverse]


def write_columns(write, formats: list[str], data, json_rows: bool) -> None:
    """Write the rows of a table's columns, :data:`_BLOCK_CELLS` cells at a time.

    Each cell is one fixed 48-byte record (see :func:`_layouts`): the row's
    ``[`` in its first in JSON, and after it ``,``, or the row's end after the
    last: a newline, or ``],`` in JSON, whose last ``,`` the table drops.  The
    REAL cells of a block are formed at once, and so are its INT cells.  One
    ``bytes.translate`` per block drops the NULs.
    """
    kinds = []
    real_records = functools.partial(_real_records, json_rows=json_rows)
    for fmt, dtype, records in ((REAL, np.float64, real_records), (INT, np.int64, _int_records)):
        where = [c for c, f in enumerate(formats) if f == fmt]
        if where:
            kinds.append((where, records, np.column_stack([np.asarray(data[c], dtype) for c in where])))
    ends = np.full(len(formats), ord(",") << 48, "<u8")
    ends[-1] = (ord("]") | ord(",") << 8 if json_rows else ord("\n")) << 48
    rows, step = len(kinds[0][2]), max(1, _BLOCK_CELLS // len(formats))
    for first in range(0, rows, step):
        block = np.empty((min(step, rows - first), len(formats), 6), "<u8")
        for where, records, values in kinds:
            block[:, where] = records(values[first : first + len(block)].ravel()).reshape(len(block), -1, 6)
        block[:, :, 5] += ends
        if json_rows:
            block[:, 0, 0] += ord("[")
        text = block.tobytes().translate(None, b"\0").decode("ascii")
        write(text[:-1] if json_rows and first + len(block) == rows else text)
