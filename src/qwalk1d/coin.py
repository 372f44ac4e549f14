"""Coin matrices, initial states, and the four-letter step algebra.

A walk step is driven by a 2x2 unitary ``U = [[a, b], [c, d]]`` acting on the
chirality (left/right) degree of freedom.  Each letter places one coin row in
one move slot (slot 0 moves left, slot 1 right), as ``(slot, row)``:
``P = (0, 0)``, ``Q = (1, 1)``, ``R = (0, 1)``, ``S = (1, 0)``.  So
``U = P + Q``, and the four letters are an orthonormal basis of the 2x2
matrices under the trace inner product.  A product ``x @ y`` is the entry of
x's coin row at y's slot times the letter with x's slot and y's row; that
closure is what makes path sums tractable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitaryError

__all__ = [
    "Coin",
    "Qubit",
    "Letter",
    "validate_coin",
    "coin_from_angles",
    "hadamard_coin",
    "real_coin",
    "random_unitary_coin",
    "make_qubit",
    "random_qubit",
    "state_terms",
    "letter_matrix",
    "letter_product",
]

#: Branch labels assigned by :func:`validate_coin`.
BRANCH_GENERIC = "abcd_nonzero"
BRANCH_B_ZERO = "b_zero"
BRANCH_A_ZERO = "a_zero"

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class Coin:
    """A validated 2x2 unitary coin with its determinant and branch label.

    Construct through :func:`validate_coin` (or one of the factory helpers);
    direct construction skips the unitarity checks.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    delta: complex
    branch: str = BRANCH_GENERIC

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.complex128)

    @property
    def abs_a_sq(self) -> float:
        return abs(self.a) ** 2

    @property
    def abs_b_sq(self) -> float:
        return abs(self.b) ** 2

    @property
    def is_degenerate(self) -> bool:
        """True when a = 0 or b = 0 (then U is a permutation-like gate)."""
        return self.branch != BRANCH_GENERIC


@dataclass(frozen=True)
class Qubit:
    """A normalized initial chirality state ``(alpha, beta)``."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"qubit must be normalized, got |alpha|^2+|beta|^2 = {norm_sq!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=np.complex128)


def state_terms(coin: Coin, qubit: Qubit) -> tuple[float, float]:
    """``(weight_gap, cross)``, the two terms through which the initial state
    enters the symmetry test and the limit law.

    ``weight_gap = |alpha|^2 - |beta|^2``, and ``cross`` is the real
    interference term ``a*alpha*conj(b*beta) + conj``.
    """
    weight_gap = abs(qubit.alpha) ** 2 - abs(qubit.beta) ** 2
    cross = 2.0 * (coin.a * qubit.alpha * (coin.b * qubit.beta).conjugate()).real
    return weight_gap, cross


class Letter(enum.Enum):
    """The four rank-one step matrices built from the coin's rows."""

    P = "P"  # top row in the left-move slot:      [[a, b], [0, 0]]
    Q = "Q"  # bottom row in the right-move slot:  [[0, 0], [c, d]]
    R = "R"  # bottom row in the left-move slot:   [[c, d], [0, 0]]
    S = "S"  # top row in the right-move slot:     [[0, 0], [a, b]]


#: ``(slot, row)`` of each letter: coin row ``row`` placed in matrix row ``slot``.
_SLOT_ROW = {Letter.P: (0, 0), Letter.Q: (1, 1), Letter.R: (0, 1), Letter.S: (1, 0)}


def validate_coin(matrix) -> Coin:
    """Check all unitarity invariants of a 2x2 matrix and build a :class:`Coin`.

    Parameters
    ----------
    matrix:
        Anything ``np.asarray`` turns into a 2x2 complex array.  Each
        algebraic invariant may deviate by at most ``DEFAULT_TOL``.

    Returns
    -------
    Coin
        With ``delta = a*d - b*c`` and a branch label: ``abcd_nonzero``,
        ``b_zero`` (then also c = 0), or ``a_zero`` (then also d = 0).

    Raises
    ------
    NotUnitaryError
        If any invariant is violated beyond ``DEFAULT_TOL``, or an entry is not
        finite or has a real or imaginary part outside ``[-1, 1]`` by more.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise NotUnitaryError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.abs(m.view(np.float64)) <= 1.0 + DEFAULT_TOL):  # false for NaN too
        raise NotUnitaryError("coin entries must be finite with parts in [-1, 1]")
    a, b = complex(m[0, 0]), complex(m[0, 1])
    c, d = complex(m[1, 0]), complex(m[1, 1])
    delta = a * d - b * c

    checks = {
        "|a|^2 + |c|^2 = 1": abs(abs(a) ** 2 + abs(c) ** 2 - 1.0),
        "|b|^2 + |d|^2 = 1": abs(abs(b) ** 2 + abs(d) ** 2 - 1.0),
        "a*conj(c) + b*conj(d) = 0": abs(a * c.conjugate() + b * d.conjugate()),
        "|det| = 1": abs(abs(delta) - 1.0),
        "c = -det*conj(b)": abs(c + delta * b.conjugate()),
        "d = det*conj(a)": abs(d - delta * a.conjugate()),
    }
    for label, err in checks.items():
        if err > DEFAULT_TOL:
            raise NotUnitaryError(f"unitarity violated: {label} off by {err:.3e}")

    if abs(b) <= DEFAULT_TOL:
        branch = BRANCH_B_ZERO
    elif abs(a) <= DEFAULT_TOL:
        branch = BRANCH_A_ZERO
    else:
        branch = BRANCH_GENERIC
    return Coin(a=a, b=b, c=c, d=d, delta=delta, branch=branch)


def coin_from_angles(
    theta: float,
    phase_a: float = 0.0,
    phase_b: float = 0.0,
    phase_det: float = 0.0,
) -> Coin:
    """Build a coin that is unitary by construction.

    ``a = e^{i phase_a} cos(theta)``, ``b = e^{i phase_b} sin(theta)``, the
    determinant is ``e^{i phase_det}``, and the second row follows from the
    unitarity relations ``c = -det*conj(b)``, ``d = det*conj(a)``.
    """
    a = complex(math.cos(theta)) * complex(math.cos(phase_a), math.sin(phase_a))
    b = complex(math.sin(theta)) * complex(math.cos(phase_b), math.sin(phase_b))
    det = complex(math.cos(phase_det), math.sin(phase_det))
    c = -det * b.conjugate()
    d = det * a.conjugate()
    return validate_coin([[a, b], [c, d]])


def hadamard_coin() -> Coin:
    """The standard balanced coin ``(1/sqrt(2)) [[1, 1], [1, -1]]``."""
    s = 1.0 / math.sqrt(2.0)
    return validate_coin([[s, s], [s, -s]])


def real_coin(abs_a: float) -> Coin:
    """A real coin ``[[s, t], [t, -s]]`` with ``s = abs_a``, ``t = sqrt(1-s^2)``.

    Handy for parameter sweeps over ``|a|`` at fixed phases.
    """
    if not 0.0 < abs_a < 1.0:
        raise ValueError(f"abs_a must lie in (0, 1), got {abs_a}")
    s = abs_a
    t = math.sqrt(1.0 - s * s)
    return validate_coin([[s, t], [t, -s]])


def random_unitary_coin(rng: np.random.Generator, corner_margin: float = 0.1) -> Coin:
    """Draw a random coin, exactly unitary by construction.

    ``corner_margin`` keeps the mixing angle away from 0 and pi/2 so that all
    four entries are nonzero; pass 0.0 to allow the full range.
    """
    theta = rng.uniform(corner_margin, math.pi / 2.0 - corner_margin)
    phase_a, phase_b, phase_det = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return coin_from_angles(theta, phase_a, phase_b, phase_det)


def make_qubit(alpha: complex, beta: complex) -> Qubit:
    """Normalize ``(alpha, beta)`` and return a :class:`Qubit`."""
    alpha, beta = complex(alpha), complex(beta)
    norm = math.hypot(alpha.real, alpha.imag, beta.real, beta.imag)  # cannot overflow
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("qubit amplitudes must have a finite nonzero norm")
    return Qubit(alpha=alpha / norm, beta=beta / norm)


def random_qubit(rng: np.random.Generator) -> Qubit:
    """Draw a random normalized initial state."""
    t = rng.uniform(0.0, math.pi / 2.0)
    psi1, psi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    alpha = math.cos(t) * complex(math.cos(psi1), math.sin(psi1))
    beta = math.sin(t) * complex(math.cos(psi2), math.sin(psi2))
    return Qubit(alpha=alpha, beta=beta)


def letter_matrix(coin: Coin, letter: Letter) -> np.ndarray:
    """Materialize one of the four step matrices for this coin."""
    slot, row = _SLOT_ROW[letter]
    out = np.zeros((2, 2), dtype=np.complex128)
    out[slot] = coin.matrix[row]
    return out


def letter_product(coin: Coin, x: Letter, y: Letter) -> tuple[complex, Letter]:
    """Return ``(scalar, letter)`` with ``matrix(x) @ matrix(y) = scalar * matrix(letter)``."""
    (x_slot, x_row), (y_slot, y_row) = _SLOT_ROW[x], _SLOT_ROW[y]
    scalar = (coin.a, coin.b, coin.c, coin.d)[2 * x_row + y_slot]
    return scalar, next(letter for letter, key in _SLOT_ROW.items() if key == (x_slot, y_row))
