"""Closed-form probabilities, characteristic functions, and moments.

Everything the engine computes by evolving amplitudes also has an explicit
finite-sum expression.  This demo evaluates those expressions and checks them
against the engine, including at times where summing the alternating sums
term by term would have lost all accuracy: the closed forms never sum them,
but evaluate them as Jacobi-polynomial values by a float recurrence.
"""

import math

import numpy as np

from qwalk1d import distribution, hadamard_coin, law, make_qubit, random_qubit, random_unitary_coin
from qwalk1d.coin import state_terms

rng = np.random.default_rng(1)
coin = random_unitary_coin(rng)
qubit = random_qubit(rng)
weight_gap, cross = state_terms(coin, qubit)
mu = (coin.abs_a_sq - coin.abs_b_sq) * weight_gap + 2.0 * cross
print(f"random coin: |a| = {abs(coin.a):.4f}, drift parameter mu = {mu:+.4f}")

# Both routes hand out the same law type with one signature: law(coin, qubit, n)
# from the closed form, distribution(coin, qubit, n) from evolution.
n = 9
dist = distribution(coin, qubit, n)
closed_law = law(coin, qubit, n)
print(f"\nclosed form vs engine at n = {n}:")
print("   k   closed         engine         |diff|")
for k, closed, eng in zip(dist.positions, closed_law.probs, dist.probs):
    print(f"  {int(k):+3d}  {closed:.11f}  {eng:.11f}  {abs(closed - eng):.1e}")

# The characteristic function packages the whole distribution; spot-check it
# against the same Fourier sum over the engine's law.
print(f"\ncharacteristic function at n = {n}:")
for xi in (0.0, 0.5, 1.5, 3.0):
    closed = closed_law.characteristic_function(xi)
    direct = dist.characteristic_function(xi)
    print(f"  xi = {xi:3.1f}: {closed:.8f}  |diff| = {abs(closed - direct):.1e}")

# Odd moments remember the initial state; even moments do not.
print("\neven moments are initial-state independent:")
for m in (1, 2):
    values = [law(coin, random_qubit(rng), 8).moment(m) for _ in range(4)]
    spread = max(values) - min(values)
    print(f"  m = {m}: four random states give spread {spread:.2e} "
          f"({'state-dependent' if spread > 1e-6 else 'state-independent'})")

# At n = 500 the alternating sums would cancel ~75 digits for the balanced
# coin if summed term by term; the Jacobi recurrence cancels nothing, so the
# closed forms still match the engine in plain floats.
h = hadamard_coin()
q = make_qubit(0.0, 1.0)
c500, d500 = law(h, q, 500), distribution(h, q, 500)
print("\nn = 500, balanced coin, right-leaning state:")
print(f"  closed-form mean {c500.mean():+.8f} vs engine {d500.mean():+.8f}")
print(f"  closed-form rms  {math.sqrt(c500.moment(2)):.8f} vs engine {math.sqrt(d500.moment(2)):.8f}")
