"""Which initial states produce a symmetric walk?

Three conditions turn out to pick the same states (for coins with all
entries nonzero): mirror symmetry of the distribution at every time, zero
mean at every time, and a two-line algebraic test on the initial state:
balanced weights plus a vanishing interference term.
"""

import math

import numpy as np

from qwalk1d import (
    distribution,
    hadamard_coin,
    is_symmetric_state,
    make_qubit,
    mean_zero_check,
    random_qubit,
    random_unitary_coin,
    symmetry_evidence,
)

coin = hadamard_coin()

candidates = {
    "phase-balanced (1, i)/sqrt(2)": make_qubit(1.0, 1j),
    "real balanced  (1, 1)/sqrt(2)": make_qubit(1.0, 1.0),
    "left-loaded    (1, 0)        ": make_qubit(1.0, 0.0),
    "right-loaded   (0, 1)        ": make_qubit(0.0, 1.0),
}

print("balanced coin, four initial states, evidence up to n = 12:")
for label, qubit in candidates.items():
    member = is_symmetric_state(coin, qubit)
    report = symmetry_evidence(coin, qubit, 12)
    worst = max(gap for _, gap, _ in report.rows)
    mean12 = distribution(coin, qubit, 12).mean()
    print(f"  {label}: algebraic member = {member!s:5}, "
          f"worst asymmetry = {worst:.2e}, mean at n=12 = {mean12:+.4f}")

# The real balanced state looks symmetric in its weights, yet interferes
# constructively to the left: amplitudes, not probabilities, decide.
qubit = make_qubit(1.0, 1.0)
print("\nreal balanced state, early distributions:")
for n in (1, 2, 3):
    d = distribution(coin, qubit, n)
    row = ", ".join(f"P({int(k):+d})={d.probability(int(k)):.4f}" for k in d.positions)
    print(f"  n = {n}: {row}")

# The three tests agree on random (coin, state) pairs as well.
rng = np.random.default_rng(7)
print("\nthree-way agreement on 200 random (coin, state) pairs:", end=" ")
agreed = sum(
    1
    for _ in range(200)
    if len({
        is_symmetric_state(c := random_unitary_coin(rng), q := random_qubit(rng)),
        symmetry_evidence(c, q, 8).symmetric,
        mean_zero_check(c, q, 8),
    }) == 1
)
print(f"{agreed}/200")

# Membership is a knife edge: perturb the balancing phase slightly and the
# mean creeps back.
print("\nperturbing the phase of the second amplitude away from i:")
for eps in (0.0, 0.01, 0.1):
    qubit = make_qubit(1.0, complex(math.sin(eps), math.cos(eps)))
    mean = distribution(coin, qubit, 40).mean()
    print(f"  phase offset {eps:4.2f} rad: mean at n=40 = {mean:+.5f}")
