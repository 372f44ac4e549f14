"""Independent routes the benchmark checks the program against.

Nothing here imports ``qwalk1d``: inputs are the coin as eight reals
(re, im per entry, row-major) and the qubit as four.

- :func:`probabilities`: the exact law at time ``n`` in momentum space.  The
  walk is translation invariant, so the Fourier transform of the field at
  time ``n`` is ``(e^{i t} P + e^{-i t} Q)^n psi0``, a trigonometric
  polynomial of degree ``n``; sampling it at ``2n+2`` points and one inverse
  FFT recover every amplitude.
- :func:`limit_cdf`: the elementary closed form of the limit CDF.
"""

from __future__ import annotations

import math

import numpy as np


def _coin(coin: list[float]) -> tuple[complex, complex, complex, complex]:
    a, b, c, d = (complex(coin[2 * j], coin[2 * j + 1]) for j in range(4))
    return a, b, c, d


def _qubit(qubit: list[float]) -> tuple[complex, complex]:
    alpha, beta = complex(qubit[0], qubit[1]), complex(qubit[2], qubit[3])
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / norm, beta / norm


def probabilities(coin: list[float], qubit: list[float], n: int) -> np.ndarray:
    """``P(X_n = k)`` for ``k = -n, -n+2, ..., n``."""
    a, b, c, d = _coin(coin)
    size = 2 * n + 2
    phase = np.exp(2j * np.pi * np.arange(size) / size)
    symbol = np.empty((size, 2, 2), dtype=np.complex128)
    symbol[:, 0, 0], symbol[:, 0, 1] = phase * a, phase * b
    symbol[:, 1, 0], symbol[:, 1, 1] = c / phase, d / phase
    psi_hat = np.linalg.matrix_power(symbol, n) @ np.array(_qubit(qubit))
    psi = np.fft.ifft(psi_hat, axis=0)[np.arange(-n, n + 1, 2) % size]
    return np.sum(np.abs(psi) ** 2, axis=1)


def extreme_probabilities(coin: list[float], qubit: list[float], n: int) -> tuple[float, float]:
    """Single-term closed forms ``(P(X_n = -n), P(X_n = n))`` for ``n >= 1``."""
    a, b, _, _ = _coin(coin)
    alpha, beta = _qubit(qubit)
    a2, b2 = abs(a) ** 2, abs(b) ** 2
    wa, wb = abs(alpha) ** 2, abs(beta) ** 2
    cross = 2.0 * (a * alpha * (b * beta).conjugate()).real
    scale = a2 ** (n - 1)
    return scale * (a2 * wa + b2 * wb + cross), scale * (b2 * wa + a2 * wb - cross)


def _limit_params(coin: list[float], qubit: list[float]) -> tuple[float, float]:
    a, b, _, _ = _coin(coin)
    alpha, beta = _qubit(qubit)
    cross = 2.0 * (a * alpha * (b * beta).conjugate()).real
    slope = abs(alpha) ** 2 - abs(beta) ** 2 + cross / abs(a) ** 2
    return abs(a), slope


def limit_cdf(coin: list[float], qubit: list[float], xs) -> np.ndarray:
    """``F(x) = 1/2 + arctan(c x / r)/pi + lam arctan(r / c)/pi``, ``r = sqrt(|a|^2 - x^2)``,
    ``c = sqrt(1 - |a|^2)``; 0 below the support and 1 above it."""
    a, lam = _limit_params(coin, qubit)
    c = math.sqrt(1.0 - a * a)
    xs = np.asarray(xs, dtype=float)
    r = np.sqrt(np.maximum(a * a - xs * xs, 0.0))
    inside = 0.5 + np.arctan2(c * xs, r) / math.pi + lam * np.arctan2(r, c) / math.pi
    return np.where(xs <= -a, 0.0, np.where(xs >= a, 1.0, inside))


def limit_density(coin: list[float], qubit: list[float], xs) -> np.ndarray:
    a, lam = _limit_params(coin, qubit)
    xs = np.asarray(xs, dtype=float)
    inside = np.abs(xs) < a
    x = np.where(inside, xs, 0.0)
    value = math.sqrt(1.0 - a * a) * (1.0 - lam * x) / (math.pi * (1.0 - x * x) * np.sqrt(a * a - x * x))
    return np.where(inside, value, 0.0)


def ks_distance(coin: list[float], qubit: list[float], n: int) -> tuple[float, float]:
    """``(sup_x |F_n(x) - F(x)|, total probability)`` for the law of ``X_n / n``.

    ``F_n`` is a step function and ``F`` is continuous, so the sup is reached
    at an atom, approached from one side or the other.
    """
    probs = probabilities(coin, qubit, n)
    cum = np.cumsum(probs)
    f = limit_cdf(coin, qubit, np.arange(-n, n + 1, 2) / n)
    return float(max(np.abs(cum - f).max(), np.abs(cum - probs - f).max())), float(cum[-1])
