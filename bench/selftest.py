"""Self-test of the benchmark harness: every workload at a tiny size.

    python3 bench/selftest.py

For each workload it asserts that

1. every job the program completes passes its independent check, and the
   same output with its numbers nudged fails it;
2. two traced workers given the same seed compute identical counts;
3. the layers' self times plus the harness's own time add up to the traced
   wall time.

Exits 0 when all hold; an ``AssertionError`` names the first that does not.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

_NUDGE = 1e-6


def _nudged(job: dict, output):
    """The output with every reported number moved by a relative ``_NUDGE``."""
    if job["kind"] == "distribution":
        return output * (1.0 + _NUDGE) + _NUDGE
    if job["kind"] == "sweep":
        return [(k, i, lhs * (1.0 + _NUDGE) + _NUDGE, rhs, res) for k, i, lhs, rhs, res in output]
    doc = json.loads(output)
    if job["cmd"] == "oracle":  # only the reported difference is checked
        doc["max_abs_diff"] = 2.0 * doc["tolerance"]
    else:
        doc["rows"] = [[row[0]] + [v * (1.0 + _NUDGE) + _NUDGE if isinstance(v, float) else v for v in row[1:]]
                       for row in doc["rows"]]
    return json.dumps(doc)


def _check_outputs(name: str, jobs: list[dict]) -> None:
    calls = worker.build_calls(jobs)
    _, outcomes, outputs, _ = worker.run_jobs(jobs, calls, tracing.Tracer(), traced=False)
    for job, outcome, output in zip(jobs, outcomes, outputs):
        if outcome != "exit0":
            continue
        passed, _ = checks.check(job, output)
        assert passed, f"{name}: a completed job fails its check: {job.get('argv', job['kind'])}"
        passed, _ = checks.check(job, _nudged(job, output))
        assert not passed, f"{name}: a nudged output passes its check: {job.get('argv', job['kind'])}"


def _traced(jobs: list[dict]) -> dict:
    return run._run_worker({"jobs": jobs, "warmup": workloads.warmup_argv(), "trace": True})


def main() -> int:
    for name in workloads.WORKLOADS:
        lists = workloads.make_lists(name, seed=7, scale="tiny")
        assert lists == workloads.make_lists(name, seed=7, scale="tiny"), f"{name}: inputs depend on more than the seed"
        for jobs in lists:
            _check_outputs(name, jobs)

        first, second = _traced(lists[0]), _traced(lists[0])
        for key in ("counts", "fn_calls", "layer_calls"):
            assert first["trace"][key] == second["trace"][key], f"{name}: {key} differ between runs"

        for result in (first, second):
            snap = result["trace"]
            wall = sum(result["latencies"])
            harness = wall - snap["top_s"]
            layers = sum(snap["self_s"].values())
            assert min(snap["self_s"].values()) >= 0.0 and harness >= 0.0, f"{name}: negative self time"
            assert abs(layers + harness - wall) <= 1e-9 * max(wall, 1.0), (
                f"{name}: self times {layers} + harness {harness} != wall {wall}"
            )
        print(f"ok  {name}: {sum(len(j) for j in lists)} jobs checked, counts repeat, self times add up")
    return 0


if __name__ == "__main__":
    sys.exit(main())
