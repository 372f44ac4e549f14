"""The four-letter algebra and path sums.

The coin splits as U = P + Q (top row / bottom row).  Together with the two
row-swapped companions R and S, products of any two of the four matrices
collapse to a scalar times a single letter, so a product over an entire step
word collapses letter by letter.  Summing over all words with l left steps
and m right steps gives the amplitude operator for that displacement, and
the collapse property turns that sum into a single closed form.
"""

import math

import numpy as np

from qwalk1d import (
    Letter,
    StepCount,
    closed_form_coefficients,
    cluster_count,
    evolve,
    hadamard_coin,
    letter_matrix,
    letter_product,
    make_qubit,
    path_sum,
    path_sum_exhaustive,
)

coin = hadamard_coin()

print("letter matrices:")
for letter in Letter:
    print(f"  {letter.value} =")
    print(np.round(letter_matrix(coin, letter), 4))

print("\nproduct table (scalar, letter):")
header = "      " + "   ".join(f"{y.value:>7}" for y in Letter)
print(header)
for x in Letter:
    cells = []
    for y in Letter:
        scalar, letter = letter_product(coin, x, y)
        cells.append(f"{scalar.real:+.2f}*{letter.value}")
    print(f"  {x.value}: " + "  ".join(f"{c:>8}" for c in cells))

# Every product of letters stays a scalar multiple of a letter, so the sum
# over all C(l+m, l) step words has exactly four coordinates.
sc = StepCount(l=3, m=1)
word_sum = path_sum_exhaustive(coin, sc)
print(f"\nsum over all words with (l, m) = (3, 1)  [{math.comb(4, 1)} words]:")
print(np.round(word_sum, 4))

# The closed form gives its four coordinates p, q, r, s without enumerating
# anything, and pP + qQ + rR + sS is the same operator.
xi = closed_form_coefficients(coin, sc)
print(f"closed-form coordinates in the letter basis: p={xi.p:.4f} q={xi.q:.4f} r={xi.r:.4f} s={xi.s:.4f}")
print(f"closed form matches enumeration: max|diff| = {np.max(np.abs(xi.materialize() - word_sum)):.2e}")

# Behind the closed form: words grouped by their number of letter clusters.
print("\nwords with l=5 P's, m=4 Q's that start and end with a P block,")
print("counted by the number of Q blocks g:")
for g in range(1, 5):
    print(f"  g = {g}: {cluster_count(g, 5, 4)} words")

# The number of words explodes; the closed form does not care.
big = StepCount(l=7, m=7)
enumerated = path_sum_exhaustive(coin, big)
print(f"\n(l, m) = (7, 7): {math.comb(14, 7)} words;"
      f" closed form still exact: {np.max(np.abs(path_sum(coin, big) - enumerated)):.2e}")

# Far beyond enumeration, check the amplitude Xi(l, m) phi against the engine.
qubit = make_qubit(1 / math.sqrt(2), 1j / math.sqrt(2))
huge = StepCount(l=300, m=500)
amplitude = path_sum(coin, huge) @ qubit.vector
engine_amplitude = evolve(coin, qubit, huge.n).amplitude(huge.k)
print(f"(l, m) = (300, 500): about 10^{math.log10(math.comb(800, 300)):.0f} words;"
      f" closed form vs engine amplitude: {np.max(np.abs(amplitude - engine_amplitude)):.2e}")
