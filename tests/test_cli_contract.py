"""Property test of the CLI exit-code contract over drawn argument vectors.

Whatever the input, ``qwalk1d`` exits 0 (all checks pass), 2 (bad input) or 3
(a self-check failed), never with a traceback, and a 0 exit never prints NaN.
A non-positive count (``--xi-points``, ``--max-order``, ``--n-max``,
``--grid-points``, ``--n-cap``) is bad input: it never exits 0.  A time over
the law's time cap, or a ``--n-max`` over the symmetry sweep's cap, each
drawn up to ten times its cap, exits 2 at once, and so does a ``converge``
run of distinct times whose cells pass the cells cap.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qwalk1d.cli as cli
from qwalk1d.coin import coin_from_angles
from qwalk1d.engine import LAW_TIME_CAP
from qwalk1d.limit import KS_CELLS_CAP
from qwalk1d.engine import SWEEP_TIME_CAP

# Out-of-range and malformed tokens, mixed into the numeric fields (unbounded
# st.floats() adds NaN and infinities).  The 400-digit integer parses as an
# int that no float holds, and as an infinite real.
BAD_TOKENS = ["1e400", "-1e400", "-nan", "x", "", "1,", "0x1p3", str(10**400)]


def _coin_text(coin) -> str:
    return ",".join(repr(part) for z in (coin.a, coin.b, coin.c, coin.d) for part in (z.real, z.imag))


COIN_TEXTS = [
    "0.70710678118654757,0,0.70710678118654757,0,0.70710678118654757,0,-0.70710678118654757,0",
    "1,0,0,0,0,0,1,0",  # b = 0
    "0,0,1,0,1,0,0,0",  # a = 0
    "0,0,0,1,0,1,0,0",  # a = 0, complex
    "1,1,1,1,1,1,1,1",  # not unitary
    _coin_text(coin_from_angles(0.7, 0.3, 1.9, 4.0)),
    _coin_text(coin_from_angles(1.4706, 2.0, 0.1, 0.5)),  # |a|^2 ~ 0.01
    _coin_text(coin_from_angles(0.1002, 5.0, 3.0, 1.0)),  # |a|^2 ~ 0.99
    _coin_text(coin_from_angles(1.5607, 0.0, 0.0, 0.0)),  # |a| ~ 0.01
]

token = st.sampled_from(BAD_TOKENS)


def sometimes_bad(good):
    """``good`` four times in five, a malformed or non-finite token otherwise."""
    return st.integers(0, 4).flatmap(lambda pick: token if pick == 0 else good)


real = sometimes_bad(st.one_of(st.floats(-4.0, 4.0), st.floats()).map(repr))
xi = st.one_of(st.floats(-4.0, 4.0).map(repr), st.sampled_from(["nan", "inf", "-inf", "1e400"]))


def integer(lo: int, hi: int):
    return sometimes_bad(st.integers(lo, hi).map(str))


def real_list(min_size: int, max_size: int):
    return st.lists(real, min_size=min_size, max_size=max_size).map(",".join)


def cells_run(top: int) -> list[int]:
    """Consecutive distinct times down from ``top`` whose ``n + 1`` just pass the cells cap."""
    times, cells = [], 0
    while cells <= KS_CELLS_CAP:
        times.append(top - len(times))
        cells += times[-1] + 1
    return times


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._HANDLERS)))
    argv = [command]
    if command in ("dist", "charfn", "moments"):
        # small times, or times over the cap: no draw starts a long run
        steps = st.one_of(st.integers(-2, 64), st.integers(LAW_TIME_CAP + 1, 10 * LAW_TIME_CAP))
        argv.append("--steps=" + draw(sometimes_bad(steps.map(str))))
    if command == "charfn":
        if draw(st.booleans()):
            argv.append("--xi=" + draw(st.lists(xi, min_size=1, max_size=3).map(",".join)))
        else:
            argv.append("--xi-points=" + draw(integer(-1, 64)))
    elif command == "moments":
        argv.append("--max-order=" + draw(integer(-1, 300)))
    elif command == "symmetry":
        # short sweeps, or sweeps over the cap
        n_max = st.one_of(st.integers(-1, 64), st.integers(SWEEP_TIME_CAP + 1, 10 * SWEEP_TIME_CAP))
        argv.append("--n-max=" + draw(sometimes_bad(n_max.map(str))))
    elif command == "limit":
        argv.append("--grid-points=" + draw(integer(-1, 200)))
    elif command == "converge":
        # a few small times, and sometimes one time over the time cap or a run
        # of large times over the cells cap: no draw starts a long run
        times = draw(st.lists(integer(-1, 64), min_size=1, max_size=3))
        over = draw(st.sampled_from(["none", "time", "cells"]))
        if over == "time":
            times.append(str(draw(st.integers(LAW_TIME_CAP + 1, 10 * LAW_TIME_CAP))))
        elif over == "cells":
            times += map(str, cells_run(draw(st.integers(LAW_TIME_CAP // 2, LAW_TIME_CAP))))
        argv.append("--n-list=" + ",".join(draw(st.permutations(times))))
    elif command == "oracle":
        argv.append("--n-cap=" + draw(integer(-1, 9)))
    if draw(st.booleans()):
        argv.append("--coin=" + draw(st.one_of(st.sampled_from(COIN_TEXTS), real_list(7, 9))))
    if draw(st.booleans()):
        argv.append("--qubit=" + draw(st.one_of(st.sampled_from(["1,0,0,0", "0.6,0,0,0.8"]), real_list(3, 5))))
    argv.append("--format=" + draw(st.sampled_from(["csv", "json"])))
    return argv


COUNT_FLAGS = ("--xi-points=", "--max-order=", "--n-max=", "--grid-points=", "--n-cap=")


def _int_values(argv, flags) -> list[int]:
    """The comma-separated integers of the first of ``flags`` in ``argv``, none
    if it is absent or malformed."""
    for arg in argv:
        if arg.startswith(flags):
            try:
                return [int(part) for part in arg.split("=", 1)[1].split(",")]
            except ValueError:  # a malformed token; the command refuses it
                return []
    return []


def non_positive_count(argv) -> bool:
    return any(count < 1 for count in _int_values(argv, COUNT_FLAGS))


def over_the_cap(argv) -> bool:
    times = _int_values(argv, ("--steps=", "--n-list="))
    return (
        any(n > LAW_TIME_CAP for n in times)
        or any(n_max > SWEEP_TIME_CAP for n_max in _int_values(argv, ("--n-max=",)))
        or sum(n + 1 for n in set(_int_values(argv, ("--n-list=",)))) > KS_CELLS_CAP
    )


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed options with exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_exit_code_contract(argv):
    start = time.perf_counter()
    code, out, err = run_main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if non_positive_count(argv):
        assert code != 0, argv
    if over_the_cap(argv):
        assert code == 2, argv
        assert elapsed < 1.0, (argv, elapsed)
    if code == 0:
        assert "nan" not in out, argv



DEGENERATE_COIN_TEXTS = COIN_TEXTS[1:4] + [
    "5e-13,0,1,0,1,0,-5e-13,0",  # within 5e-13 of a = 0
]


def test_degenerate_coins_gate_every_column():
    # every subcommand with a closed form compares it to the engine, whatever the coin
    qubits = ["--qubit=0.6,0,0,0.8", "--preset-qubit=symmetric"]
    for coin_text in DEGENERATE_COIN_TEXTS:
        for n in (0, 1, 2, 3, 64, 1000):
            argvs = [[command, f"--steps={n}", qubits[0]] for command in ("dist", "charfn", "moments")]
            # --n-max counts times, so it starts at 1
            argvs += [["symmetry", f"--n-max={n}", qubit] for qubit in qubits if n]
            for argv in argvs:
                code, out, err = run_main(argv + ["--coin=" + coin_text, "--format=json"])
                assert code == 0, (argv, coin_text, err)
                doc = json.loads(out)
                assert None not in doc.values(), (argv, coin_text)
                assert all(len(row) == len(doc["columns"]) and None not in row for row in doc["rows"])
