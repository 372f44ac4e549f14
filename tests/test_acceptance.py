"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import cmath
import itertools
import math
import time

import numpy as np

from qwalk1d.analytic import law
from qwalk1d.coin import hadamard_coin, make_qubit, random_qubit, random_unitary_coin, real_coin, validate_coin
from qwalk1d.engine import distribution
from qwalk1d.limit import (
    LimitDensity,
    asymptotics_envelope,
    ks_convergence,
    limit_cdf,
    limit_moment,
    parity_smoothed_ks,
)
from qwalk1d.paths import path_sums_by_time
from qwalk1d.special import hyp2f1, jacobi_sum_identity, pfaff_residual
from qwalk1d.symmetry import is_symmetric_state, symmetry_evidence

# Regression bound frozen from the first calibrated run (parity-smoothed KS
# for the balanced coin and symmetric state at n = 400 was 0.0290938...).
FROZEN_SMOOTHED_KS_400 = 0.0292

SWEEP_SEED = 918273


def report(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_hadamard_n4_exactness():
    coin = hadamard_coin()
    qubit = make_qubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    expected = {-4: 0.0625, -2: 0.375, 0: 0.125, 2: 0.375, 4: 0.0625}
    distribution(coin, qubit, 4)  # warm imports and caches before timing
    start = time.perf_counter()
    dist = distribution(coin, qubit, 4)
    closed = {k: law(coin, qubit, 4).probability(k) for k in expected}
    elapsed = time.perf_counter() - start
    worst = max(
        max(abs(dist.probability(k) - p) for k, p in expected.items()),
        max(abs(closed[k] - p) for k, p in expected.items()),
    )
    ok = worst < 1e-12 and elapsed < 0.010
    report(1, ok, f"max deviation {worst:.2e}, runtime {elapsed * 1e3:.2f} ms")
    assert worst < 1e-12
    assert elapsed < 0.010


def test_criterion_2_oracle_equivalence_sweep():
    rng = np.random.default_rng(SWEEP_SEED)
    start = time.perf_counter()
    coins = [random_unitary_coin(rng) for _ in range(25)]
    qubits = [random_qubit(rng) for _ in range(10)]
    xi_grid = np.linspace(-math.pi, math.pi, 20, endpoint=False)

    worst_paths = 0.0
    for coin in coins:
        # every l + m <= 12; the rows are the per-entry word sums and closed forms bit for bit
        _, _, exhaustive, closed = path_sums_by_time(coin, 12)
        worst_paths = max(worst_paths, float(np.max(np.abs(exhaustive - closed))))

    worst_prob = worst_cf = worst_mom = 0.0
    for coin, qubit in itertools.product(coins, qubits):
        for n in range(1, 13):
            dist = distribution(coin, qubit, n)
            closed = law(coin, qubit, n)
            positions = dist.positions
            for k in positions:
                worst_prob = max(worst_prob, abs(closed.probability(int(k)) - dist.probability(int(k))))
            phases = np.exp(1j * np.outer(xi_grid, positions.astype(float)))
            direct_cf = phases @ np.asarray(dist.probs)
            for xi, direct in zip(xi_grid, direct_cf):
                worst_cf = max(worst_cf, abs(closed.characteristic_function(float(xi)) - direct))
            for m in range(1, 5):
                worst_mom = max(worst_mom, abs(closed.moment(m) - dist.moment(m)))
    elapsed = time.perf_counter() - start

    ok = worst_paths < 1e-10 and worst_prob < 1e-10 and worst_cf < 1e-9 and worst_mom < 1e-8 and elapsed < 60.0
    report(
        2,
        ok,
        f"paths {worst_paths:.2e}, prob {worst_prob:.2e}, cf {worst_cf:.2e}, "
        f"moments {worst_mom:.2e}, runtime {elapsed:.1f} s",
    )
    assert worst_paths < 1e-10
    assert worst_prob < 1e-10
    assert worst_cf < 1e-9
    assert worst_mom < 1e-8
    assert elapsed < 60.0


def test_criterion_3_degenerate_branch_tables():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    diag = validate_coin([[complex(math.cos(0.4), math.sin(0.4)), 0], [0, complex(math.cos(1.7), -math.sin(1.7))]])
    antidiag = validate_coin([[0, complex(math.cos(0.9), math.sin(0.9))], [complex(math.cos(2.2), math.sin(2.2)), 0]])
    worst = 0.0
    for _ in range(10):
        qubit = random_qubit(rng)
        wa, wb = abs(qubit.alpha) ** 2, abs(qubit.beta) ** 2
        for n in range(1, 9):
            dist_b0 = distribution(diag, qubit, n)
            dist_a0 = distribution(antidiag, qubit, n)
            law_b0 = law(diag, qubit, n)
            law_a0 = law(antidiag, qubit, n)
            for xi in (0.0, 0.6, -2.3):
                table_b0 = complex(math.cos(n * xi), (wb - wa) * math.sin(n * xi))
                if n % 2 == 1:
                    table_a0 = complex(math.cos(xi), (wa - wb) * math.sin(xi))
                else:
                    table_a0 = 1.0 + 0.0j
                engine_b0 = complex(
                    np.sum(np.exp(1j * xi * dist_b0.positions) * np.asarray(dist_b0.probs))
                )
                engine_a0 = complex(
                    np.sum(np.exp(1j * xi * dist_a0.positions) * np.asarray(dist_a0.probs))
                )
                worst = max(
                    worst,
                    abs(law_b0.characteristic_function(xi) - table_b0),
                    abs(law_a0.characteristic_function(xi) - table_a0),
                    abs(engine_b0 - table_b0),
                    abs(engine_a0 - table_a0),
                )
            for m in range(1, 5):
                table_b0 = float(n**m) * ((wb - wa) if m % 2 == 1 else 1.0)
                if n % 2 == 0:
                    table_a0 = 0.0
                else:
                    table_a0 = (wa - wb) if m % 2 == 1 else 1.0
                worst = max(
                    worst,
                    abs(law_b0.moment(m) - table_b0) / max(1.0, float(n**m)),
                    abs(law_a0.moment(m) - table_a0),
                    abs(dist_b0.moment(m) - table_b0) / max(1.0, float(n**m)),
                    abs(dist_a0.moment(m) - table_a0),
                )
    ok = worst < 1e-12
    report(3, ok, f"max deviation from branch tables {worst:.2e}")
    assert worst < 1e-12


def test_criterion_4_three_way_symmetry_agreement():
    # per coin: an algebraic member (balanced, arg(beta) = arg(a conj(b)) +- pi/2),
    # a near-member 1e-3 off that phase, and a random state
    rng = np.random.default_rng(SWEEP_SEED + 2)
    mismatches = members = 0
    for _ in range(50):
        coin = random_unitary_coin(rng)
        phase = cmath.phase(coin.a * coin.b.conjugate()) + rng.choice([-1.0, 1.0]) * math.pi / 2
        for qubit in (make_qubit(1.0, cmath.exp(1j * phase)),
                      make_qubit(1.0, cmath.exp(1j * (phase + 1e-3))),
                      random_qubit(rng)):
            algebraic = is_symmetric_state(coin, qubit)
            evidence = symmetry_evidence(coin, qubit, 10)
            members += algebraic
            if not (algebraic == evidence.symmetric == evidence.zero_mean):
                mismatches += 1
    ok = mismatches == 0 and members == 50
    report(4, ok, f"{mismatches} mismatches over 150 (coin, qubit) pairs, {members} members")
    assert mismatches == 0
    assert members == 50


def test_criterion_5_limit_law_constants():
    coin = hadamard_coin()
    symmetric = make_qubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    right = make_qubit(0.0, 1.0)
    ld_sym = LimitDensity(coin=coin, qubit=symmetric)
    ld_right = LimitDensity(coin=coin, qubit=right)
    sd_sym = math.sqrt(limit_moment(ld_sym, 2) - limit_moment(ld_sym, 1) ** 2)
    mean_right = limit_moment(ld_right, 1)
    sd_right = math.sqrt(limit_moment(ld_right, 2) - mean_right**2)

    rng = np.random.default_rng(SWEEP_SEED + 3)
    worst_norm = 0.0
    worst_bound = -math.inf
    for _ in range(20):
        ld = LimitDensity(coin=random_unitary_coin(rng), qubit=random_qubit(rng))
        worst_norm = max(worst_norm, abs(limit_cdf(ld, ld.a_abs) - 1.0))
        for m in range(1, 9):
            worst_bound = max(worst_bound, abs(limit_moment(ld, m)) - 2.0 * ld.a_abs**m)

    ok = (
        abs(sd_sym - 0.54119) < 1e-4
        and abs(mean_right - 0.29289) < 1e-4
        and abs(sd_right - 0.45508) < 1e-4
        and worst_norm < 1e-8
        and worst_bound <= 1e-9
    )
    report(
        5,
        ok,
        f"sd_sym {sd_sym:.6f}, mean {mean_right:.6f}, sd {sd_right:.6f}, "
        f"norm err {worst_norm:.2e}, bound slack {worst_bound:.2e}",
    )
    assert abs(sd_sym - 0.54119) < 1e-4
    assert abs(mean_right - 0.29289) < 1e-4
    assert abs(sd_right - 0.45508) < 1e-4
    assert worst_norm < 1e-8
    assert worst_bound <= 1e-9


def test_criterion_6_special_function_identities():
    worst_identity = 0.0
    for abs_a_sq in np.arange(0.1, 0.95, 0.1):
        coin = real_coin(math.sqrt(float(abs_a_sq)))
        for n in range(2, 21):
            for k in range(1, n // 2 + 1):
                for i in (0, 1):
                    lhs, rhs = jacobi_sum_identity(coin, n, k, i)
                    worst_identity = max(
                        worst_identity, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
                    )

    worst_pfaff = 0.0
    grid = [
        (a, b, c, z)
        for a in (-5.0, -3.0, -1.0, 0.5)
        for b in (0.5, 2.0, 4.5)
        for c in (1.5, 3.0, 5.25)
        for z in (-0.75, -0.2, 0.3)
    ]
    for a, b, c, z in grid:
        if a > 0 and not (abs(z) < 1 and abs(z / (z - 1)) < 1):
            continue
        worst_pfaff = max(worst_pfaff, pfaff_residual(a, b, c, z))

    worst_series = max(
        abs(hyp2f1(0.5, 1.0, 1.0, float(z)) - (1.0 - float(z)) ** -0.5)
        for z in np.arange(0.1, 1.0, 0.1)
    )
    ok = worst_identity < 1e-10 and worst_pfaff < 1e-11 and worst_series < 1e-12
    report(
        6,
        ok,
        f"identity {worst_identity:.2e} (rel), pfaff {worst_pfaff:.2e} over {len(grid)} points, "
        f"series {worst_series:.2e}",
    )
    assert worst_identity < 1e-10
    assert worst_pfaff < 1e-11
    assert worst_series < 1e-12


def test_criterion_7_weak_convergence():
    coin = hadamard_coin()
    qubit = make_qubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    start = time.perf_counter()
    smoothed = parity_smoothed_ks(coin, qubit, [50, 100, 200, 400])
    elapsed = time.perf_counter() - start
    values = [v for _, v in smoothed]
    monotone = all(earlier >= later for earlier, later in zip(values, values[1:]))
    ok = monotone and values[-1] <= FROZEN_SMOOTHED_KS_400 and elapsed < 30.0
    report(
        7,
        ok,
        "smoothed KS " + ", ".join(f"n={n}: {v:.5f}" for n, v in smoothed)
        + f", runtime {elapsed:.1f} s",
    )
    assert monotone
    assert values[-1] <= FROZEN_SMOOTHED_KS_400
    assert elapsed < 30.0


def test_criterion_8_envelope_boundedness():
    def peak(coin, n, x, i, spread=2):
        k0 = round(x * n)
        lo, hi = (1 - abs(coin.a)) / 2, (1 + abs(coin.a)) / 2
        return max(
            asymptotics_envelope(coin, n, k, i)
            for k in range(k0 - spread, k0 + spread + 1)
            if 1 <= k <= n // 2 and lo < k / n < hi
        )

    worst_ratio = 0.0
    for coin, x in ((hadamard_coin(), 0.4), (real_coin(0.6), 0.45)):
        for i in (0, 1):
            values = [peak(coin, n, x, i) for n in (40, 80, 160)]
            worst_ratio = max(worst_ratio, max(values) / min(values))
    ok = worst_ratio < 5.0
    report(8, ok, f"worst max/min envelope ratio {worst_ratio:.2f}")
    assert worst_ratio < 5.0
