"""Checks of each job's output against an independent route.

:func:`check` returns ``(passed, discrepancy)``.  ``passed`` needs the
program's own verdict (``ok`` in the JSON) and agreement with the route in
:mod:`reference` within the tolerance below.  ``discrepancy`` is the largest
realised difference from that route.  Checks run after the timed jobs and never call the program, so
they neither add to the timings nor fill the program's caches.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference

#: Engine probabilities against the Fourier route, per position.  Also the
#: slack on the CLI's own tolerances, which compare against the engine.
ENGINE_TOL = 1e-11
#: Total-probability drift of an evolution.
DRIFT_TOL = 1e-9
#: Limit CDF, density, KS distances and mirror gaps against their routes.
LIMIT_TOL = 1e-9
#: Residual of the special-function identities, relative to the sum of the
#: absolute terms.
IDENTITY_TOL = 1e-12


def _positions(n: int) -> np.ndarray:
    return np.arange(-n, n + 1, 2)


def _dist(job: dict, doc: dict) -> tuple[bool, float]:
    n = job["n"]
    ref = reference.probabilities(job["coin"], job["qubit"], n)
    rows = doc["rows"]
    engine_err = max(abs(r[1] - p) for r, p in zip(rows, ref))
    closed_err = max(abs(r[2] - p) for r, p in zip(rows, ref))
    same_support = [r[0] for r in rows] == _positions(n).tolist()
    passed = same_support and engine_err <= ENGINE_TOL and closed_err <= doc["tolerance"] + ENGINE_TOL
    return passed, max(engine_err, closed_err)


def _charfn(job: dict, doc: dict) -> tuple[bool, float]:
    n = job["n"]
    ref_p = reference.probabilities(job["coin"], job["qubit"], n)
    ks = _positions(n)
    worst = 0.0
    for xi, re_c, im_c, re_d, im_d, _ in doc["rows"]:
        ref = complex(np.sum(np.exp(1j * xi * ks) * ref_p))
        worst = max(worst, abs(complex(re_c, im_c) - ref), abs(complex(re_d, im_d) - ref))
    return len(doc["rows"]) == job["xi_points"] and worst <= doc["tolerance"] + ENGINE_TOL, worst


def _moments(job: dict, doc: dict) -> tuple[bool, float]:
    n = job["n"]
    ref_p = reference.probabilities(job["coin"], job["qubit"], n)
    ks = _positions(n).astype(float)
    worst = 0.0
    for m, closed, direct, _ in doc["rows"]:
        ref = float(np.dot(ks**m, ref_p))
        scale = max(1.0, float(n) ** m)
        worst = max(worst, abs(closed - ref) / scale, abs(direct - ref) / scale)
    return len(doc["rows"]) == job["max_order"] and worst <= doc["tolerance"] + ENGINE_TOL, worst


def _symmetry(job: dict, doc: dict) -> tuple[bool, float]:
    # The ``mean`` column is the closed-form first moment, which the
    # ``moments`` jobs check; here the classification and the mirror gaps.
    coin, qubit = job["coin"], job["qubit"]
    gaps = []
    for t in range(1, job["n"] + 1):
        p = reference.probabilities(coin, qubit, t)
        gaps.append(float(np.max(np.abs(p - p[::-1]))))
    worst = max(abs(row[1] - gap) for row, gap in zip(doc["rows"], gaps))
    a, b = complex(coin[0], coin[1]), complex(coin[2], coin[3])
    alpha, beta = complex(qubit[0], qubit[1]), complex(qubit[2], qubit[3])
    cross = 2.0 * (a * alpha * (b * beta).conjugate()).real
    half = math.sqrt(0.5)
    member = abs(abs(alpha) - half) < 1e-9 and abs(abs(beta) - half) < 1e-9 and abs(cross) < 1e-9
    passed = (
        len(doc["rows"]) == job["n"]
        and worst <= LIMIT_TOL
        and doc["algebraic_member"] == member
        and doc["empirically_symmetric"] == all(g < 1e-10 for g in gaps)
    )
    return passed, worst


def _converge(job: dict, doc: dict) -> tuple[bool, float]:
    worst, drift = 0.0, 0.0
    for (n, ks, total), n_ref in zip(doc["rows"], job["ns"]):
        ks_ref, total_ref = reference.ks_distance(job["coin"], job["qubit"], n_ref)
        worst = max(worst, abs(ks - ks_ref), abs(total - total_ref))
        drift = max(drift, abs(total - 1.0))
    same_times = [row[0] for row in doc["rows"]] == job["ns"]
    return same_times and worst <= LIMIT_TOL and drift <= DRIFT_TOL, worst


def _limit(job: dict, doc: dict) -> tuple[bool, float]:
    xs = np.array([row[0] for row in doc["rows"]])
    a = math.hypot(job["coin"][0], job["coin"][1])
    cdf = reference.limit_cdf(job["coin"], job["qubit"], xs)
    dens = reference.limit_density(job["coin"], job["qubit"], xs)
    worst = 0.0
    for (_, d, f), d_ref, f_ref in zip(doc["rows"], dens, cdf):
        worst = max(worst, abs(f - f_ref), abs(d - d_ref) / max(1.0, abs(d_ref)))
    grid_ok = np.allclose(xs, np.linspace(-a, a, job["grid"]), rtol=0.0, atol=1e-12)
    return len(xs) == job["grid"] and grid_ok and worst <= LIMIT_TOL, worst


def _oracle(job: dict, doc: dict) -> tuple[bool, float]:
    words = sum(n + 1 for n in range(1, job["n_cap"] + 1))
    return len(doc["rows"]) == words and doc["max_abs_diff"] <= doc["tolerance"], doc["max_abs_diff"]


_CLI = {
    "dist": _dist,
    "charfn": _charfn,
    "moments": _moments,
    "symmetry": _symmetry,
    "converge": _converge,
    "limit": _limit,
    "oracle": _oracle,
}


def _abs_hyp_terms(deg: int, b: float, c: float, z: float) -> float:
    """Sum of the absolute terms of the terminating ``2F1(-deg, b; c; z)``."""
    term, total = 1.0, 1.0
    for j in range(deg):
        term *= abs((deg - j) * (b + j) * z / ((c + j) * (j + 1)))
        total += term
    return total


def _abs_jacobi_terms(n: int, k: int, i: int, ratio: float) -> float:
    """Sum of the absolute terms of the binomial sum in ``jacobi_sum_identity``."""
    return sum(ratio ** (g - 1) * math.comb(k - 1, g - 1) * math.comb(n - k - 1, g - 1) / g**i
               for g in range(1, k + 1))


def _sweep(job: dict, results: list) -> tuple[bool, float]:
    # Both identities are alternating sums evaluated from rounded inputs, so
    # their realised error scales with the sum of absolute terms, not with
    # the (possibly cancelled) value.
    n = job["n"]
    a2 = job["coin"][0] ** 2 + job["coin"][1] ** 2
    ratio = (job["coin"][2] ** 2 + job["coin"][3] ** 2) / a2
    z = (1.0 - (2.0 * a2 - 1.0)) / 2.0
    w = z / (z - 1.0)
    worst = 0.0
    for k, i, lhs, rhs, residual in results:
        worst = max(worst, abs(lhs - rhs) / _abs_jacobi_terms(n, k, i, ratio))
        deg, b, c = k - 1, n - k + i, i + 1.0
        scale = max(_abs_hyp_terms(deg, b, c, z), (1.0 - z) ** deg * _abs_hyp_terms(deg, c - b, c, w))
        worst = max(worst, residual / scale)
    return len(results) == 2 * (n // 2) and worst <= IDENTITY_TOL, worst


def _distribution(job: dict, probs: np.ndarray) -> tuple[bool, float]:
    n = job["n"]
    ref = reference.probabilities(job["coin"], job["qubit"], n)
    low, high = reference.extreme_probabilities(job["coin"], job["qubit"], n)
    worst = max(float(np.max(np.abs(probs - ref))), abs(probs[0] - low), abs(probs[-1] - high))
    drift = abs(float(np.sum(probs)) - 1.0)
    return len(probs) == n + 1 and drift <= DRIFT_TOL and worst <= ENGINE_TOL, max(worst, drift)


def check(job: dict, output) -> tuple[bool, float]:
    """Verdict and realised discrepancy for one job's output.

    ``output`` is the captured stdout of a CLI job, the probabilities of a
    ``distribution`` job, or the ``(k, i, lhs, rhs, residual)`` tuples of a
    ``sweep`` job.
    """
    if job["kind"] == "distribution":
        return _distribution(job, output)
    if job["kind"] == "sweep":
        return _sweep(job, output)
    doc = json.loads(output)
    passed, discrepancy = _CLI[job["cmd"]](job, doc)
    return bool(doc["ok"]) and passed, discrepancy
