"""The limit law of the rescaled position.

Scaled by n (not sqrt(n)), the walk position converges in law to a random
variable on (-|a|, |a|) whose density blows up at the edges like an inverse
square root and is tilted by the initial state through a single slope
parameter.  This demo evaluates that density, its moments, and the exact
Kolmogorov-Smirnov distance between the finite-time law and the limit.
"""

import math

from qwalk1d import (
    LimitDensity,
    density,
    distribution,
    hadamard_coin,
    ks_convergence,
    limit_cdf,
    limit_moment,
    make_qubit,
    parity_smoothed_ks,
    two_point_limit,
)

coin = hadamard_coin()
symmetric = make_qubit(1.0, 1j)
right = make_qubit(0.0, 1.0)

ld = LimitDensity(coin=coin, qubit=symmetric)
print(f"support: ({-ld.a_abs:.4f}, {ld.a_abs:.4f}), slope = {ld.slope:+.3f}")
print("\ndensity of the symmetric case (edge spikes, flat center):")
for x in (0.0, 0.3, 0.5, 0.65, 0.7, 0.705):
    bar = "#" * min(60, int(round(density(ld, x) * 25)))
    print(f"  f({x:5.3f}) = {density(ld, x):8.4f} {bar}")
print(f"  f(0) = 1/pi = {1.0 / math.pi:.6f}")

print("\nmass and moments:")
print(f"  total mass       : {limit_cdf(ld, ld.a_abs):.10f}")
print(f"  sd, symmetric    : {math.sqrt(limit_moment(ld, 2)):.5f}  (0.54119...)")
ldr = LimitDensity(coin=coin, qubit=right)
mean = limit_moment(ldr, 1)
sd = math.sqrt(limit_moment(ldr, 2) - mean**2)
print(f"  mean, right state: {mean:.5f}  (0.29289...)")
print(f"  sd, right state  : {sd:.5f}  (0.45508...)")

# Convergence is slow near the edge spikes; the exact KS distance decays
# steadily once adjacent-parity times are averaged.
print("\nexact KS distance of X_n/n to the limit (symmetric case):")
for n, d, _ in ks_convergence(coin, symmetric, [50, 100, 200, 400]):
    print(f"  n = {n:3d}: KS = {d:.5f}")
print("parity-smoothed (average of n and n+1):")
for n, d in parity_smoothed_ks(coin, symmetric, [50, 100, 200, 400]):
    print(f"  n = {n:3d}: KS = {d:.5f}")

# Compare the scaled finite-time moments with the limit moments.
n = 400
d = distribution(coin, right, n)
print(f"\nscaled moments at n = {n} vs the limit:")
print(f"  mean/n = {d.mean() / n:.5f} vs {mean:.5f}")
print(f"  rms/n  = {math.sqrt(d.moment(2)) / n:.5f} vs {math.sqrt(limit_moment(ldr, 2)):.5f}")

# When the coin does not mix at all (|a| = 1) the limit is two atoms.
tp = two_point_limit(make_qubit(0.6, 0.8))
print(f"\nno-mixing limit for weights (0.36, 0.64): atoms "
      f"P(-1) = {tp.p_minus:.2f}, P(+1) = {tp.p_plus:.2f}")
