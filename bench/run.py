"""qwalk1d benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 42 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
package is imported from its ``src/``.  The job lists come from ``--seed``
(see ``workloads.py``).  Each list runs in a fresh worker process, one job at
a time (a closed loop with one client).  Passes over all lists repeat while
another fits in ``--seconds``, at least three times.  The end-to-end times
are in units of a reference loop that each worker times after every job
(``ref``); ``wall_ref`` is the median pass, the other times are medians over
the whole run too.  The last line of stdout is the result,
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics of traced workers for
``--trace 1``.  The line before it holds the details: the times in seconds,
failure kinds, sample counts, versions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Every job runs at least this often.  The tail is taken over each job's
#: median latency counted this many times, so its rank does not move with
#: the number of passes that fit in a run.
MIN_PASSES = 3
#: One worker gets this long before the run is abandoned.
WORKER_TIMEOUT_S = 150
#: Floor for a discrepancy of exactly zero, so ``err_digits`` stays finite.
_DISCREPANCY_FLOOR = 1e-17
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One client, one thread: BLAS may not fan out behind the closed loop.
    env.update({name: "1" for name in _THREAD_VARS})
    return env


def _run_worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_worker_env(),
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _tail(samples: list[float]) -> tuple[float, int]:
    """Highest order statistic with at least ten samples beyond it (the
    largest if there are fewer than eleven), and how many lie beyond."""
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], len(ordered) - 1 - index


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {name: "1" for name in _THREAD_VARS},
        "git_sha": _git_sha(),
    }


def _measure(lists: list[list[dict]], warmup: list[str], seconds: float, trace: bool) -> list[dict]:
    """Run every job list in its own fresh worker, in passes over all lists,
    while another pass of average length fits in ``seconds`` (at least
    ``MIN_PASSES``).  With ``trace`` each list runs untraced and then traced."""
    results, started = [], time.perf_counter()
    for pass_no in itertools.count():
        for index, jobs in enumerate(lists):
            for traced in (False, True) if trace else (False,):
                result = _run_worker({"jobs": jobs, "warmup": warmup, "trace": traced})
                result.update({"list": index, "pass": pass_no, "traced": traced})
                results.append(result)
        elapsed = time.perf_counter() - started
        if pass_no + 1 >= MIN_PASSES and elapsed * (pass_no + 2) / (pass_no + 1) > seconds:
            return results


def _wall(results: list[dict]) -> float:
    """Median over the passes of the time the pass's jobs took, all lists
    together.  Set-up and checks are not timed."""
    by_pass: dict[int, float] = {}
    for r in results:
        by_pass[r["pass"]] = by_pass.get(r["pass"], 0.0) + sum(r["latencies"])
    return statistics.median(by_pass.values())


def _in_reference_units(results: list[dict]) -> list[dict]:
    """The results with every latency divided by the median time of the
    reference loop in the same worker."""
    out = []
    for r in results:
        unit = statistics.median(r["reference_s"])
        out.append({**r, "latencies": [latency / unit for latency in r["latencies"]]})
    return out


def _tail_pool(results: list[dict]) -> list[float]:
    """Each job's median latency over the passes, ``MIN_PASSES`` times.

    A slow stretch of the host that hits some passes does not reach the
    pool, and the pool's size does not depend on how many passes fitted.
    """
    by_job: dict[tuple, list[float]] = {}
    for r in results:
        for j, latency in enumerate(r["latencies"]):
            by_job.setdefault((r["list"], j), []).append(latency)
    return [statistics.median(v) for v in by_job.values() for _ in range(MIN_PASSES)]


def _per_list(results: list[dict], value) -> float:
    """Sum over the lists of each list's median ``value`` over its passes."""
    by_list: dict[int, list[float]] = {}
    for r in results:
        by_list.setdefault(r["list"], []).append(value(r))
    return sum(statistics.median(v) for v in by_list.values())


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(results: list[dict]) -> tuple[dict, dict]:
    plain = [r for r in results if not r["traced"]]
    latencies = [latency for r in plain for latency in r["latencies"]]
    # The host's speed drifts by a third and more within minutes, and the job
    # times with it.  The end-to-end times are given in units of the
    # reference loop timed after every job in the same worker, which drifts
    # alike; the seconds are in the details.
    relative = _in_reference_units(plain)
    verdicts = [v for r in results for v in r["verdicts"]]
    passed = [v for v in verdicts if v["outcome"] == "ok"]
    worst_ok = max((v["discrepancy"] for v in passed if v["discrepancy"] is not None), default=None)
    worst_all = max((v["discrepancy"] for v in verdicts if v["discrepancy"] is not None), default=None)
    pool = _tail_pool(plain)
    tail, beyond = _tail(pool)
    tail_ref, _ = _tail(_tail_pool(relative))

    def digits(worst):
        # No passing job with a number: no digits are vouched for.
        return 0.0 if worst is None else -math.log10(max(worst, _DISCREPANCY_FLOOR))

    metrics = {
        "setup_s": _metric(statistics.median(r["setup_s"] for r in results), "s"),
        "wall_ref": _metric(_wall(relative), "ref"),
        "job_p50_ref": _metric(statistics.median(t for r in relative for t in r["latencies"]), "ref"),
        "job_tail_ref": _metric(tail_ref, "ref"),
        "ok_frac": _metric(len(passed) / len(verdicts), "frac"),
        "err_digits": _metric(digits(worst_ok), "digits"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    detail = {
        "wall_s": _wall(plain),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "reference_s": statistics.median(t for r in plain for t in r["reference_s"]),
        "latency_samples": len(latencies),
        "tail_pool": len(pool),
        "tail_samples_beyond": beyond,
        "tail_percentile": 100.0 * (len(pool) - beyond) / len(pool),
        "err_digits_all_jobs": digits(worst_all),
    }
    return metrics, detail


def _per_layer(results: list[dict]) -> dict:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    first = [r["trace"] for r in traced if r["pass"] == 0]

    def total(key: str, name: str):
        return sum(s[key].get(name, 0) for s in first)

    def self_s(layer: str) -> float:
        return _per_list(traced, lambda r: r["trace"]["self_s"].get(layer, 0.0))

    def fn_s(name: str) -> float:
        return _per_list(traced, lambda r: r["trace"]["fn_s"].get(name, 0.0))

    wall = _wall(traced)
    cell_steps = total("counts", "engine.cell_steps")
    positions = total("fn_calls", "analytic.position_probability")
    m = {
        "engine.self_s": (self_s("engine"), "s"),
        "engine.calls": (total("layer_calls", "engine"), "count"),
        "engine.cell_steps": (cell_steps, "count"),
        "engine.cell_steps_per_s": (cell_steps / self_s("engine") if cell_steps else 0.0, "1/s"),
        "engine.redundant_frac": (
            total("counts", "engine.redundant_cell_steps") / cell_steps if cell_steps else 0.0, "frac"),
        "engine.bytes_computed": (total("counts", "engine.bytes_computed"), "B"),
        "engine.drift_max": (max(s["drift_max"] for s in first), "prob"),
        "analytic.self_s": (self_s("analytic"), "s"),
        "analytic.position_probability_s": (fn_s("analytic.position_probability"), "s"),
        "analytic.characteristic_function_s": (fn_s("analytic.characteristic_function"), "s"),
        "analytic.moment_s": (fn_s("analytic.moment"), "s"),
        "analytic.calls": (total("layer_calls", "analytic"), "count"),
        "analytic.us_per_position": (
            1e6 * fn_s("analytic.position_probability") / positions if positions else 0.0, "us"),
        "limit.self_s": (self_s("limit"), "s"),
        "limit.ks_distance_s": (fn_s("limit.ks_distance"), "s"),
        "limit.limit_cdf_s": (fn_s("limit.limit_cdf"), "s"),
        "limit.cdf_points": (total("counts", "limit.cdf_points"), "count"),
        "symmetry.self_s": (self_s("symmetry"), "s"),
        "paths.self_s": (self_s("paths"), "s"),
        "paths.path_sum_exhaustive_s": (fn_s("paths.path_sum_exhaustive"), "s"),
        "paths.closed_form_s": (fn_s("paths.closed_form_coefficients"), "s"),
        "paths.words_enumerated": (total("counts", "paths.words_enumerated"), "count"),
        "special.self_s": (self_s("special"), "s"),
        "special.jacobi_sum_identity_s": (fn_s("special.jacobi_sum_identity"), "s"),
        "special.pfaff_residual_s": (fn_s("special.pfaff_residual"), "s"),
        "special.calls": (total("layer_calls", "special"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.bytes_out": (sum(r["cli_bytes"] for r in traced if r["pass"] == 0), "B"),
        "coin.self_s": (self_s("coin"), "s"),
        "harness.self_s": (_per_list(traced, lambda r: sum(r["latencies"]) - r["trace"]["top_s"]), "s"),
        "trace.overhead_frac": (wall / _wall(plain) - 1.0, "frac"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qwalk1d" / "__init__.py").is_file():
        print(f"error: no qwalk1d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    lists = workloads.make_lists(args.workload, args.seed)
    results = _measure(lists, workloads.warmup_argv(), args.seconds, bool(args.trace))

    verdicts = [v for r in results for v in r["verdicts"]]
    kinds = Counter(v["outcome"] for v in verdicts if v["outcome"] != "ok")
    e2e, detail = _end_to_end(results)
    metrics = _per_layer(results) if args.trace else e2e
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "lists": len(lists),
        "jobs": sum(len(jobs) for jobs in lists),
        "passes": 1 + max(r["pass"] for r in results),
        "workers": len(results),
        "failure_kinds": dict(sorted(kinds.items())),
        "warmup_outcomes": dict(Counter(r["warmup"] for r in results)),
        "fail_frac": sum(kinds.values()) / len(verdicts),
        "environment": _environment(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        # A wrong answer reported as a success; failures the program
        # reports itself (exit 2 or 3, an exception) count in ``failed``.
        "correct": kinds["check"] == 0,
        "attempted": len(verdicts),
        "failed": sum(kinds.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
