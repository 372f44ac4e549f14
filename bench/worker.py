"""One job list of a workload, in a fresh process.

Reads ``{"jobs": [...], "warmup": argv, "trace": bool}`` as JSON on stdin and
writes one JSON result on stdout.  The process imports ``qwalk1d`` and makes one warm-up call
(set-up time), runs the jobs one after another with the CLI in-process and its
stdout captured (each job timed on its own, and the reference loop timed after
each), reads the peak resident memory, and only then checks every output
against its independent route.

Run from the root of a checkout with ``PYTHONPATH=src``.
"""

import contextlib
import io
import json
import sys
import time


def _run_cli(main, argv):
    """``(outcome, stdout)``; the outcome is ``exit<code>`` or an exception type."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return f"SystemExit{exc.code}", out.getvalue()
    except Exception as exc:  # noqa: BLE001  every escape is a failure kind
        return type(exc).__name__, out.getvalue()
    return f"exit{code}", out.getvalue()


#: A job is followed by one reference loop for each this many seconds it took.
REFERENCE_EVERY_S = 0.05


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes; it calls nothing of the program.

    Timed after every job, once per ``REFERENCE_EVERY_S`` of the job's time
    and at least once, it gauges how fast the host runs the interpreter at
    that moment, so that job times can be given in units of it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    return time.perf_counter() - start


def build_calls(jobs: list[dict]) -> list:
    """The argument of each job's program call, built before any timing."""
    import qwalk1d

    calls = []
    for job in jobs:
        if job["kind"] == "cli":
            calls.append(job["argv"])
        else:
            c, q = job["coin"], job["qubit"]
            coin = qwalk1d.validate_coin([[complex(c[0], c[1]), complex(c[2], c[3])],
                                          [complex(c[4], c[5]), complex(c[6], c[7])]])
            calls.append((coin, qwalk1d.make_qubit(complex(q[0], q[1]), complex(q[2], q[3]))))
    return calls


def _sweep(coin, n: int) -> list:
    import qwalk1d

    z = (1.0 - (2.0 * coin.abs_a_sq - 1.0)) / 2.0
    out = []
    for k in range(1, n // 2 + 1):
        for i in (0, 1):
            lhs, rhs = qwalk1d.jacobi_sum_identity(coin, n, k, i)
            out.append((k, i, lhs, rhs, qwalk1d.pfaff_residual(-(k - 1), n - k + i, i + 1.0, z)))
    return out


def run_jobs(jobs: list[dict], calls: list, tracer, traced: bool) -> tuple[list, list, list, list]:
    """Run every job once, in order: ``(latencies, outcomes, outputs,
    reference times)``."""
    import qwalk1d
    import qwalk1d.cli

    latencies, outcomes, outputs, references = [], [], [], []
    for job, call in zip(jobs, calls):
        tracer.start_job()
        tracer.on = traced
        start = time.perf_counter()
        if job["kind"] == "cli":
            outcome, output = _run_cli(qwalk1d.cli.main, call)
        else:
            try:
                if job["kind"] == "distribution":
                    output = qwalk1d.distribution(*call, job["n"]).probs
                else:
                    output = _sweep(call[0], job["n"])
                outcome = "exit0"
            except Exception as exc:  # noqa: BLE001  every escape is a failure kind
                outcome, output = type(exc).__name__, None
        latencies.append(time.perf_counter() - start)
        tracer.on = False
        references.extend(reference_loop() for _ in range(1 + int(latencies[-1] / REFERENCE_EVERY_S)))
        outcomes.append(outcome)
        outputs.append(output)
    return latencies, outcomes, outputs, references


def verdicts(jobs: list[dict], outcomes: list, outputs: list) -> list[dict]:
    """Outcome and discrepancy per job; a clean exit whose output fails its
    check becomes the failure kind ``check``."""
    import checks

    out = []
    for job, outcome, output in zip(jobs, outcomes, outputs):
        passed, discrepancy = False, None
        if output is not None and len(output):
            try:
                passed, discrepancy = checks.check(job, output)
            except (ValueError, KeyError, IndexError, TypeError):  # malformed output
                pass
        if outcome == "exit0":
            outcome = "ok" if passed else "check"
        out.append({"outcome": outcome, "discrepancy": discrepancy})
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import qwalk1d.cli

    warmup, _ = _run_cli(qwalk1d.cli.main, spec["warmup"])
    setup_s = time.perf_counter() - t0

    import resource

    import tracing

    tracer = tracing.Tracer()
    if spec["trace"]:
        tracing.install(tracer)
    calls = build_calls(spec["jobs"])
    latencies, outcomes, outputs, references = run_jobs(spec["jobs"], calls, tracer, spec["trace"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "warmup": warmup,
        "latencies": latencies,
        "reference_s": references,
        "verdicts": verdicts(spec["jobs"], outcomes, outputs),
        "peak_rss_mb": peak_rss_mb,
        "cli_bytes": sum(len(o) for o in outputs if isinstance(o, str)),
    }
    if spec["trace"]:
        result["trace"] = tracer.snapshot()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
