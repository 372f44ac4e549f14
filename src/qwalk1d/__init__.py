"""Exact tools for the one-dimensional two-state quantum walk.

The package splits into: the coin/letter algebra (:mod:`qwalk1d.coin`), path
sums over step words (:mod:`qwalk1d.paths`), the exact evolution engine
(:mod:`qwalk1d.engine`), the closed-form law (:mod:`qwalk1d.analytic`),
symmetry classification (:mod:`qwalk1d.symmetry`), hypergeometric and Jacobi
machinery (:mod:`qwalk1d.special`), the rescaled-position limit law
(:mod:`qwalk1d.limit`), and a command-line surface (:mod:`qwalk1d.cli`) with
its writer of large tables (:mod:`qwalk1d.render`).
"""

from .analytic import law
from .coin import (
    Coin,
    Letter,
    Qubit,
    coin_from_angles,
    hadamard_coin,
    letter_matrix,
    letter_product,
    make_qubit,
    random_qubit,
    random_unitary_coin,
    real_coin,
    validate_coin,
)
from .engine import (
    AmplitudeField,
    Distribution,
    distribution,
    evolve,
    sweep,
)
from .errors import (
    CapExceededError,
    DegenerateCoinError,
    NonConvergentError,
    NotUnitaryError,
    NumericalHealthError,
    OutOfWindowError,
    ParityViolationError,
    PoleAtCError,
    QWalkError,
)
from .limit import (
    LimitDensity,
    TwoPointLimit,
    asymptotics_envelope,
    density,
    ks_convergence,
    limit_cdf,
    limit_moment,
    parity_smoothed_ks,
    two_point_limit,
)
from .paths import (
    PqrsMatrix,
    StepCount,
    closed_form_coefficients,
    cluster_count,
    path_sum,
    path_sum_coefficients,
    path_sum_exhaustive,
)
from .special import hyp2f1, jacobi_p, jacobi_sum_identity, pfaff_residual, rho_value
from .symmetry import SymmetryReport, is_symmetric_state, symmetry_evidence

__version__ = "0.1.0"
