"""Hypergeometric series, Jacobi polynomials, and the sum identities.

The alternating binomial sums inside the walk's closed forms are terminating
hypergeometric series, hence Jacobi polynomial values.  This demo evaluates
both sides of that identity, checks the Pfaff transformation as an accuracy
diagnostic, and shows the scaled Jacobi values staying bounded as n grows
(the boundedness that drives the limit law).
"""

import math

from qwalk1d import (
    asymptotics_envelope,
    hadamard_coin,
    hyp2f1,
    jacobi_p,
    jacobi_sum_identity,
    pfaff_residual,
    real_coin,
)

print("building blocks:")
print(f"  2F1(1/2, 1; 1; 1/2)        = {hyp2f1(0.5, 1.0, 1.0, 0.5):.15f}  (sqrt(2))")
print(f"  2F1(1/2, 1; 1; z) vs (1-z)^-1/2 at z=0.9: "
      f"{abs(hyp2f1(0.5, 1.0, 1.0, 0.9) - (1 - 0.9) ** -0.5):.1e}")
print(f"  Pfaff residual (-3, 5; 2; 0.3) = {pfaff_residual(-3.0, 5.0, 2.0, 0.3):.1e}")
print(f"  P_3^(1,3)(0.25)            = {jacobi_p(3, 1.0, 3.0, 0.25):.10f}")

# The identity: an alternating binomial sum equals a scaled Jacobi value.
print("\nbinomial sum = scaled Jacobi value (balanced coin):")
coin = hadamard_coin()
for n, k, i in [(8, 3, 0), (12, 5, 1), (20, 9, 0), (20, 10, 1)]:
    lhs, rhs = jacobi_sum_identity(coin, n, k, i)
    print(f"  n={n:2d} k={k:2d} i={i}: sum = {lhs:+.10f}, jacobi = {rhs:+.10f}, "
          f"|diff| = {abs(lhs - rhs):.1e}")

print("\nsame identity across coin amplitudes:")
for abs_a_sq in (0.2, 0.5, 0.8):
    coin_a = real_coin(math.sqrt(abs_a_sq))
    worst = max(
        abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        for n in range(2, 19)
        for k in range(1, n // 2 + 1)
        for i in (0, 1)
        for lhs, rhs in [jacobi_sum_identity(coin_a, n, k, i)]
    )
    print(f"  |a|^2 = {abs_a_sq}: worst relative residual {worst:.1e}")

# Inside the oscillatory window the normalized Jacobi values decay like
# 1/sqrt(n); multiplied back by sqrt(n) they hover around a constant.
print("\nscaled Jacobi values at ratio k/n = 0.4 (local max over nearby k):")
coin = hadamard_coin()
for i in (0, 1):
    row = []
    for n in (40, 80, 160, 320):
        k0 = round(0.4 * n)
        peak = max(asymptotics_envelope(coin, n, k, i) for k in range(k0 - 2, k0 + 3))
        row.append(f"n={n}: {peak:.3f}")
    print(f"  i = {i}: " + ",  ".join(row))
