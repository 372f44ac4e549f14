import cmath
import math
import weakref
from itertools import islice

import numpy as np
import pytest

from qwalk1d import engine, symmetry
from qwalk1d.analytic import law
from qwalk1d.coin import (
    coin_from_angles,
    hadamard_coin,
    make_qubit,
    random_qubit,
    random_unitary_coin,
    state_terms,
    validate_coin,
)
from qwalk1d.engine import SWEEP_TIME_CAP, distribution
from qwalk1d.errors import CapExceededError
from qwalk1d.symmetry import (
    MEMBERSHIP_TOL,
    is_symmetric_state,
    symmetry_evidence,
)


def test_symmetric_state_accepted(hadamard, symmetric_qubit):
    assert is_symmetric_state(hadamard, symmetric_qubit)
    minus = make_qubit(1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0))
    assert is_symmetric_state(hadamard, minus)


def test_one_sided_state_rejected(hadamard):
    for theta in (0.0, 1.2):
        phase = complex(math.cos(theta), math.sin(theta))
        assert not is_symmetric_state(hadamard, make_qubit(0.0, phase))


def test_balanced_but_interfering_state_rejected(hadamard):
    qubit = make_qubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    assert not is_symmetric_state(hadamard, qubit)
    # the drift is visible immediately
    assert abs(distribution(hadamard, qubit, 1).mean()) > 0.1


def test_classification_on_degenerate_coins(rng):
    # a = 0 or b = 0: the cross term vanishes and each law is atoms |alpha|^2
    # and |beta|^2 at mirror positions, so every verdict reads |alpha| = |beta|
    coins = [validate_coin(m) for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [1j, 0]])]
    cases = [(make_qubit(1.0, cmath.exp(0.0j)), True), (make_qubit(1.0, cmath.exp(1.3j)), True),
             (make_qubit(0.6, 0.8j), False), (random_qubit(rng), False)]
    for coin in coins:
        for qubit, expected in cases:
            report = symmetry_evidence(coin, qubit, 10)
            assert (is_symmetric_state(coin, qubit), report.symmetric, report.zero_mean) == (expected,) * 3
            for n, _, mean in report.rows:
                assert abs(mean - law(coin, qubit, n).mean()) <= 1e-12


def test_global_phase_invariance(hadamard, rng):
    for _ in range(10):
        qubit = random_qubit(rng)
        for theta in (0.7, 2.1, 4.4):
            phase = complex(math.cos(theta), math.sin(theta))
            rotated = make_qubit(phase * qubit.alpha, phase * qubit.beta)
            assert is_symmetric_state(hadamard, qubit) == is_symmetric_state(hadamard, rotated)


def test_symmetry_evidence_symmetric_case(hadamard, symmetric_qubit):
    report = symmetry_evidence(hadamard, symmetric_qubit, 20)
    assert report.symmetric
    assert all(gap < 1e-12 for _, gap, _ in report.rows)


def test_symmetry_evidence_one_sided_case(hadamard, left_qubit):
    report = symmetry_evidence(hadamard, left_qubit, 3)
    assert not report.symmetric
    assert {n: gap for n, gap, _ in report.rows}[3] > 0.1


def test_symmetry_evidence_degenerate_coin_balanced_state():
    coin = validate_coin([[1, 0], [0, 1]])
    qubit = make_qubit(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    report = symmetry_evidence(coin, qubit, 12)
    assert report.symmetric
    assert all(gap < 1e-12 for _, gap, _ in report.rows)


def test_mean_zero_symmetric_case(hadamard, symmetric_qubit):
    assert symmetry_evidence(hadamard, symmetric_qubit, 10).zero_mean


def test_mean_zero_rejects_one_sided(hadamard, right_qubit):
    assert not symmetry_evidence(hadamard, right_qubit, 10).zero_mean


def test_mean_zero_rejects_balanced_drift_free_but_unequal_weights(hadamard):
    # mu vanishes yet |alpha| != |beta|: the mean reappears from n = 3 on.
    qubit = make_qubit(math.cos(0.5), 1j * math.sin(0.5))
    assert not symmetry_evidence(hadamard, qubit, 10).zero_mean


def member_qubit(coin, rng, offset=0.0):
    """A balanced state with ``arg(beta) = arg(a conj(b)) +- pi/2 + offset``:
    an algebraic member at offset 0, a near-member otherwise."""
    phase = cmath.phase(coin.a * coin.b.conjugate()) + rng.choice([-1.0, 1.0]) * math.pi / 2
    return make_qubit(1.0, cmath.exp(1j * (phase + offset)))


def test_three_way_agreement(rng):
    # members, near-members and random states, so each verdict is seen both ways
    for _ in range(40):
        coin = random_unitary_coin(rng)
        cases = [(member_qubit(coin, rng), True), (member_qubit(coin, rng, 1e-3), False),
                 (random_qubit(rng), False)]
        for qubit, expected in cases:
            report = symmetry_evidence(coin, qubit, 10)
            assert (is_symmetric_state(coin, qubit), report.symmetric, report.zero_mean) == (expected,) * 3



def test_mean_column_matches_the_closed_form_law(rng):
    # the swept means against the closed-form law, on the same three kinds of state
    for _ in range(10):
        coin = random_unitary_coin(rng)
        for qubit in (member_qubit(coin, rng), member_qubit(coin, rng, 1e-3), random_qubit(rng)):
            for n, _, mean in symmetry_evidence(coin, qubit, 10).rows:
                assert abs(mean - law(coin, qubit, n).mean()) <= 1e-12

def test_zero_mean_tolerance_scales_with_time(hadamard):
    # a rounding error away from a member: the mean grows like n * 1e-12, past
    # a fixed 1e-10 by n = 200, yet stays far below 1e-10 * n
    eps = 3e-12
    qubit = make_qubit(1.0, complex(math.sin(eps), math.cos(eps)))
    report = symmetry_evidence(hadamard, qubit, 200)
    assert max(abs(mean) for _, _, mean in report.rows) > 1e-10
    assert is_symmetric_state(hadamard, qubit)
    assert report.symmetric and report.zero_mean
    for n, _, mean in report.rows:
        assert abs(mean - law(hadamard, qubit, n).mean()) <= 1e-12


def qubit_with(coin, weight_gap, cross):
    """The state with ``|alpha|^2 - |beta|^2 = weight_gap`` and the given interference term."""
    alpha, beta = math.sqrt((1.0 + weight_gap) / 2.0), math.sqrt((1.0 - weight_gap) / 2.0)
    z = coin.a * coin.b.conjugate()
    # cross = 2 alpha beta Re(z e^{-i phase})
    phase = cmath.phase(z) - math.acos(cross / (2.0 * alpha * beta * abs(z)))
    return make_qubit(alpha, beta * cmath.exp(1j * phase))


def test_members_at_the_tolerance_pass_both_verdicts(rng):
    # the algebraic test must accept no state that an empirical verdict rejects,
    # down to coins with small |a|, where the gaps are most sensitive to the cross term
    coins = [hadamard_coin()] + [coin_from_angles(theta, *rng.uniform(-3.0, 3.0, 3))
                                 for theta in (0.05, 0.6, 1.2, 1.5, 1.565)]
    for coin in coins:
        for w_sign, c_sign in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            weight_gap = 0.99 * w_sign * MEMBERSHIP_TOL
            cross = 0.99 * c_sign * abs(coin.a) * MEMBERSHIP_TOL / 2.0
            qubit = qubit_with(coin, weight_gap, cross)
            assert state_terms(coin, qubit) == pytest.approx((weight_gap, cross), rel=1e-4)
            assert is_symmetric_state(coin, qubit)
            report = symmetry_evidence(coin, qubit, 300)
            assert report.symmetric and report.zero_mean


def test_sweep_over_the_cap_is_refused_before_any_step(hadamard, symmetric_qubit, fieldless_sweeps):
    with pytest.raises(CapExceededError, match="exceeds the sweep cap"):
        symmetry_evidence(hadamard, symmetric_qubit, SWEEP_TIME_CAP + 1)


def reference_rows(coin, qubit, n_max):
    """The rows of :func:`symmetry_evidence`, from each field's own ``to_distribution()``."""
    rows = []
    for field in islice(engine.sweep(coin, qubit, n_max), 1, None):
        dist = field.to_distribution()
        rows.append((dist.n, float(np.max(np.abs(dist.probs - dist.probs[::-1]))), dist.mean()))
    return rows


def block_cases(rng):
    """Hadamard and a random coin, and the a = 0 and b = 0 coins, each from the
    symmetric qubit and from a random one."""
    coins = [hadamard_coin(), random_unitary_coin(rng),
             validate_coin([[0, cmath.exp(2.1j)], [cmath.exp(0.4j), 0]]),
             validate_coin([[cmath.exp(1.3j), 0], [0, cmath.exp(-0.7j)]])]
    symmetric = make_qubit(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    return [(coin, qubit) for coin in coins for qubit in (symmetric, random_qubit(rng))]


# One block up to n_max = 255; two at 256, the second of one time; three at 400,
# of 163, 163 and 74 times.
@pytest.mark.parametrize("n_max", (1, 2, 3, 255, 256, 400))
def test_block_rows_equal_the_per_field_rows_bit_for_bit(n_max, rng):
    for coin, qubit in block_cases(rng):
        report = symmetry_evidence(coin, qubit, n_max)
        reference = reference_rows(coin, qubit, n_max)
        assert [row[0] for row in report.rows] == list(range(1, n_max + 1))
        assert np.array(report.rows).tobytes() == np.array(reference).tobytes()


def test_no_field_outlives_its_block(rng, monkeypatch):
    coin, qubit = random_unitary_coin(rng), random_qubit(rng)
    n_max = 400
    block = symmetry._BLOCK_CELLS // (n_max + 1)
    fields = []
    true_sweep = engine.sweep

    def watched(*args):
        for field in true_sweep(*args):
            alive = [ref().n for ref in fields if ref() is not None]
            assert all((n - 1) // block == (field.n - 1) // block for n in alive), (field.n, alive)
            fields.append(weakref.ref(field))
            yield field

    monkeypatch.setattr(engine, "sweep", watched)
    report = symmetry_evidence(coin, qubit, n_max)
    assert len(report.rows) == n_max and len(fields) == n_max + 1
    assert (n_max - 1) // block == 2
