"""Seeded job lists for the four benchmark workloads.

A job is a JSON-able dict.  ``kind`` is ``cli`` (an argv for
``qwalk1d.cli.main``), ``distribution`` (one ``qwalk1d.distribution`` call) or
``sweep`` (``jacobi_sum_identity`` and ``pfaff_residual`` over every
``k <= n//2`` and ``i in {0, 1}``).  Every job carries its coin as eight reals
and its qubit as four, so the checks can rebuild the inputs without the
program.

A run has several job lists.  The inputs that set a job's cost and accuracy,
its size n and (for generic coins) the coin's mixing angle, sit at the
centres of equal slices of their ranges, or of the cells of a grid over
both.  The seed draws everything else (phases, qubits, the order of the jobs
and which list each joins), so the work of a run is the same for every seed
and the run-to-run spread is the machine's.
"""

from __future__ import annotations

import math

import numpy as np

from qwalk1d.coin import Coin, Qubit, coin_from_angles, hadamard_coin, random_qubit, random_unitary_coin

WORKLOADS = ("closed-form", "evolve-large", "limit-converge", "identities")

#: Job lists per run and their sizes.  Each list runs in its own fresh
#: process; ``tiny`` is for the harness self-test.
SIZES = {
    "full": {
        "closed-form": {"lists": 2, "sessions": 20, "n": (8, 160)},
        "evolve-large": {"lists": 2, "jobs": 6, "n": (2000, 8000)},
        "limit-converge": {"lists": 2, "sessions": 12, "n": (50, 800), "grid": 2001},
        "identities": {"lists": 3, "coins": 10, "n_cap": 12, "n": (20, 40, 60)},
    },
    "tiny": {
        "closed-form": {"lists": 2, "sessions": 4, "n": (8, 24)},
        "evolve-large": {"lists": 2, "jobs": 2, "n": (200, 400)},
        "limit-converge": {"lists": 2, "sessions": 1, "n": (50, 120), "grid": 101},
        "identities": {"lists": 2, "coins": 1, "n_cap": 6, "n": (20,)},
    },
}

#: Range of the mixing angle of a drawn coin, as in ``random_unitary_coin``.
_ANGLES = (0.1, math.pi / 2 - 0.1)
#: Steps of the R3 sequence: powers of 1/g, where g^4 = g + 1 (Roberts 2018).
_R3_STEPS = 1.0 / 1.2207440846057596 ** np.arange(1, 4)


def coin_reals(coin: Coin) -> list[float]:
    return [v for z in (coin.a, coin.b, coin.c, coin.d) for v in (z.real, z.imag)]


def qubit_reals(qubit: Qubit) -> list[float]:
    return [qubit.alpha.real, qubit.alpha.imag, qubit.beta.real, qubit.beta.imag]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cli(cmd: str, args: list[str], coin: list[float], qubit: list[float], **extra) -> dict:
    # ``--coin=<csv>``: a value starting with '-' given as a separate
    # argument would be parsed as a flag.
    argv = [cmd, *args, f"--coin={_csv(coin)}", f"--qubit={_csv(qubit)}", "--format", "json"]
    return {"kind": "cli", "cmd": cmd, "argv": argv, "coin": coin, "qubit": qubit, **extra}


def _centres(count: int, lo: float, hi: float) -> np.ndarray:
    """Centres of ``count`` equal slices of ``[lo, hi)``."""
    return lo + (hi - lo) * (np.arange(count) + 0.5) / count


def _grid(count: int, box_x: tuple, box_y: tuple) -> list[tuple[float, float]]:
    """Centres of the cells of a ``rows x cols = count`` grid over the box,
    as square as possible, ``rows >= cols``."""
    cols = math.isqrt(count)
    while count % cols:
        cols -= 1
    return [(float(x), float(y)) for x in _centres(count // cols, *box_x) for y in _centres(cols, *box_y)]


def _chunks(items: list, size: int) -> list[list]:
    return [items[k : k + size] for k in range(0, len(items), size)]


def _closed_form(rng: np.random.Generator, size: dict) -> list[list[dict]]:
    lo, hi = size["n"]
    per_list = size["sessions"]
    hadamard = size["lists"] * (per_list // 4)
    hadamard_ns = [int(n) for n in rng.permutation(_centres(hadamard, lo, hi + 1))]
    points = _grid(size["lists"] * per_list - hadamard, _ANGLES, (lo, hi + 1))
    points = [points[k] for k in rng.permutation(len(points))]
    lists = []
    for _ in range(size["lists"]):
        jobs = []
        for j in range(per_list):
            if j % 4 == 3:
                coin, n = hadamard_coin(), hadamard_ns.pop()
            else:
                theta, x = points.pop()
                coin, n = coin_from_angles(theta, *rng.uniform(0.0, 2.0 * math.pi, size=3)), int(x)
            c, q = coin_reals(coin), qubit_reals(random_qubit(rng))
            jobs.append(_cli("dist", ["-n", str(n)], c, q, n=n))
            jobs.append(_cli("charfn", ["-n", str(n), "--xi-points", "32"], c, q, n=n, xi_points=32))
            jobs.append(_cli("moments", ["-n", str(n), "-m", "4"], c, q, n=n, max_order=4))
            if j % 4 == 1:
                jobs.append(_cli("symmetry", ["--n-max", "40"], c, q, n=40))
        lists.append(jobs)
    return lists


def _evolve_large(rng: np.random.Generator, size: dict) -> list[list[dict]]:
    # The engine's speed depends on the coin's entries, not only on |a|.  When
    # the real or imaginary part of an entry exceeds 1/2 in magnitude, the
    # smallest subnormal amplitudes never round to zero, the tail fills with
    # them and each step runs up to 3.5x slower.  So the phases are fixed
    # too, from the R3 low-discrepancy sequence; the qubits do not change the
    # speed.
    jobs = []
    for k, (theta, x) in enumerate(_grid(size["lists"] * size["jobs"], _ANGLES, size["n"])):
        phases = 2.0 * math.pi * ((0.5 + (k + 1) * _R3_STEPS) % 1.0)
        coin = coin_from_angles(theta, *phases)
        jobs.append({"kind": "distribution", "n": int(x), "coin": coin_reals(coin),
                     "qubit": qubit_reals(random_qubit(rng))})
    return _chunks([jobs[k] for k in rng.permutation(len(jobs))], size["jobs"])


def _limit_converge(rng: np.random.Generator, size: dict) -> list[list[dict]]:
    sessions = size["lists"] * size["sessions"]
    lo, hi = size["n"]
    times = _chunks([int(n) for n in rng.permutation(_centres(4 * sessions, lo, hi + 1))], 4)
    jobs = []
    for ns in times:
        c = coin_reals(random_unitary_coin(rng))
        q = qubit_reals(random_qubit(rng))
        ns = sorted(ns)
        jobs.append(_cli("converge", ["--n-list", ",".join(map(str, ns))], c, q, ns=ns))
        jobs.append(_cli("limit", ["--grid-points", str(size["grid"])], c, q, grid=size["grid"]))
    return _chunks(jobs, 2 * size["sessions"])


def _identities(rng: np.random.Generator, size: dict) -> list[list[dict]]:
    jobs = []
    for _ in range(size["lists"] * size["coins"]):
        c = coin_reals(random_unitary_coin(rng))
        q = qubit_reals(random_qubit(rng))
        jobs.append(_cli("oracle", ["--n-cap", str(size["n_cap"])], c, q, n_cap=size["n_cap"]))
        jobs.extend({"kind": "sweep", "n": n, "coin": c, "qubit": q} for n in size["n"])
    return _chunks(jobs, (1 + len(size["n"])) * size["coins"])


_MAKERS = {
    "closed-form": _closed_form,
    "evolve-large": _evolve_large,
    "limit-converge": _limit_converge,
    "identities": _identities,
}


def make_lists(workload: str, seed: int, scale: str = "full") -> list[list[dict]]:
    """The job lists of ``workload`` for ``seed``; equal seeds give equal lists."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _MAKERS[workload](rng, SIZES[scale][workload])


def warmup_argv() -> list[str]:
    """A small ``dist`` call on a fixed coin that no seeded list draws.

    It touches no ``lru_cache`` entry that a workload job uses: ``dist`` does
    not build the characteristic-function tables.
    """
    coin = coin_reals(coin_from_angles(0.61, 0.17, 0.29, 0.43))
    return _cli("dist", ["-n", "6"], coin, [1.0, 0.0, 0.0, 0.0])["argv"]
