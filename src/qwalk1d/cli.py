"""Command-line surface: every computation, machine-readable output.

Exit codes: 0 = success and all self-checks pass, 2 = input/parse error,
3 = a numerical self-check failed.  Each command returns its table and its
verdict, the head's last field ``ok``; :func:`main` alone refuses bad input,
writes the table and maps the verdict to the exit code.  A reader that closes
stdout before the table ends changes neither the code nor stderr.  Any other
failure to write the table (a full disk, ``> /dev/full``) exits 2 with
``error: cannot write output: ...`` on stderr and no traceback.  Output is
CSV (a header row of the column names, none of which needs quoting) or JSON
(one object per invocation).  Each command declares its columns' formats next
to their names, ``INT`` or ``REAL`` (17 significant digits), and hands its
columns to :func:`_emit`.  A table of fewer than :data:`_WRITER_CELLS` cells
is rendered by one ``%`` template applied to all its cells at once; a larger
one by :mod:`qwalk1d.render`, which forms each cell's digits in float64
double-double, certifies them, and leaves every cell it cannot certify to
Python's own ``"%.17g"``.  Both write the bytes of ``"%d"`` and ``"%.17g"``
per cell, so identical invocations are byte-identical and JSON round-trips
bit-exactly (``-0.0`` reads back as ``0``).  Non-finite JSON values are
spelled ``NaN``, ``Infinity`` and ``-Infinity``, as ``json.loads`` reads
them; CSV spells them ``nan``, ``inf`` and ``-inf``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import engine, limit
from .analytic import law
from .coin import Coin, Qubit, hadamard_coin, make_qubit, validate_coin
from .errors import NumericalHealthError, QWalkError
from .paths import path_sums_by_time
from .symmetry import is_symmetric_state, symmetry_evidence

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SELF_CHECK = 3

DIST_TOL = 1e-8
CHARFN_TOL = 1e-8
MOMENT_TOL = 1e-8
ORACLE_TOL = 1e-9
NORM_TOL = 1e-8

#: Options that count something; each must be at least 1.
COUNT_OPTIONS = {
    "xi_points": "--xi-points",
    "max_order": "--max-order",
    "n_max": "--n-max",
    "grid_points": "--grid-points",
    "n_cap": "--n-cap",
}
#: Most rows a row-count option may ask for, and most values a row-list option
#: (``--xi``, ``--n-list``) may name.  At the cap, end to end through the
#: console script on a 2-vCPU VM, printing included, ``limit`` took 0.28-0.29 s
#: and peaked at 38 MB, and ``charfn -n 4`` took 0.5-0.75 s and peaked at 49
#: MB, in CSV and in JSON.
GRID_POINTS_CAP = 100_000
ROW_OPTIONS = ("xi_points", "max_order", "grid_points")
#: Most cells, points x (n + 1) positions, that a ``charfn`` table may have.
#: Each route sums one exactly rounded row of n + 1 terms per point and part,
#: so the cells bound the time, which the grid cap does not: at the cap the
#: command took 0.24-0.31 s at n = 100 and 0.15-0.33 s at n = 2692, 5000 and
#: 20000 on a 2-vCPU VM, in-process with both laws cached, printing included;
#: end to end it peaked at 35 MB (n = 100) and 43 MB (n = 20000).
CHARFN_CELLS_CAP = 1_500_000

QUBIT_PRESETS = {
    "symmetric": (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)),
    "left": (1.0, 0.0),
    "right": (0.0, 1.0),
}


class CliInputError(Exception):
    pass


def _worst(diffs) -> float:
    """The largest difference, NaN if any is NaN (so a NaN fails its gate)."""
    return float(np.max(diffs, initial=0.0))


def _gate(name: str, diffs, tolerance: float) -> dict:
    """Head fields of a tolerance gate: the worst difference as ``name``, the tolerance, the verdict."""
    worst = _worst(diffs)
    return {name: worst, "tolerance": tolerance, "ok": worst <= tolerance}


#: Column formats.  Each table declares one per column rather than reading it
#: off a cell, since ``"%d" % 2.5`` prints ``2``.
INT = "%d"
REAL = "%.17g"


def _json_numbers(text: str) -> str:
    """``%``-formatted numbers with ``nan``/``inf`` spelled as JSON reads them."""
    if "n" not in text:  # no finite number holds the letter n
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _dump_json(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _json_numbers(REAL % value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_dump_json(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dump_json(v) for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


#: Fewest cells of a table that :func:`qwalk1d.render.write_columns` writes;
#: a smaller table is one ``%`` template.  On a 2-vCPU VM the two broke even
#: near 400 cells (three REAL columns) and 500 (an INT and three REAL
#: columns); the writer took 0.57-0.65 of the template's time at 1024 cells
#: and 0.5-0.6 from 1536 cells on.
_WRITER_CELLS = 1024


def _parse_floats(text: str, count: int, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"{flag}: expected comma-separated reals, got {text!r}") from exc
    if len(values) != count:
        raise CliInputError(f"{flag}: expected {count} reals, got {len(values)}")
    return values


def _parse_rows(text: str, parse, flag: str) -> list:
    """The values of a row-list option, refused above :data:`GRID_POINTS_CAP`."""
    parts = text.split(",")
    if len(parts) > GRID_POINTS_CAP:
        raise CliInputError(f"{flag} must name at most {GRID_POINTS_CAP} values, got {len(parts)}")
    return [parse(part) for part in parts]


def _coin_from_args(args) -> Coin:
    if args.coin is not None:
        v = _parse_floats(args.coin, 8, "--coin")
        matrix = [
            [complex(v[0], v[1]), complex(v[2], v[3])],
            [complex(v[4], v[5]), complex(v[6], v[7])],
        ]
        return validate_coin(matrix)
    return hadamard_coin()


def _qubit_from_args(args) -> Qubit:
    if args.qubit is not None:
        v = _parse_floats(args.qubit, 4, "--qubit")
        return make_qubit(complex(v[0], v[1]), complex(v[2], v[3]))
    alpha, beta = QUBIT_PRESETS[args.preset_qubit]
    return make_qubit(alpha, beta)


def _emit(args, command: str, columns: dict[str, str], data, extra: dict) -> None:
    """Write one table; ``columns`` maps each column's name to its format and
    ``data`` holds one sequence of values per column."""
    json_rows = args.format == "json"
    if json_rows:
        head = _dump_json({"command": command, **extra, "columns": list(columns)})
        sys.stdout.write(head[:-1] + ',"rows":[')  # head without its "}"
    else:
        sys.stdout.write(",".join(columns) + "\n")
    formats, rows = list(columns.values()), len(data[0])
    if rows * len(formats) >= _WRITER_CELLS:
        from . import render  # imported on first use: a command with a small table never loads it

        render.write_columns(sys.stdout.write, formats, data, json_rows)
    else:
        cells = tuple(itertools.chain.from_iterable(zip(*(np.asarray(column).tolist() for column in data))))
        if json_rows:
            sys.stdout.write(_json_numbers(",".join(["[" + ",".join(formats) + "]"] * rows) % cells))
        else:
            sys.stdout.write((",".join(formats) + "\n") * rows % cells)
    if json_rows:
        sys.stdout.write("]}\n")


def _cmd_dist(args, coin: Coin, qubit: Qubit) -> tuple[dict, list, dict]:
    closed = law(coin, qubit, args.steps).probs
    dist = engine.distribution(coin, qubit, args.steps)
    diffs = np.abs(dist.probs - closed)
    return ({"k": INT, "p_engine": REAL, "p_closed": REAL, "abs_diff": REAL},
            [dist.positions, dist.probs, closed, diffs],
            {"n": args.steps, **_gate("max_abs_diff", diffs, DIST_TOL)})


def _xi_grid(args) -> list[float]:
    if args.xi is not None:
        return _parse_rows(args.xi, float, "--xi")
    count = args.xi_points
    return [-math.pi + 2.0 * math.pi * j / count for j in range(count)]


def _cmd_charfn(args, coin: Coin, qubit: Qubit) -> tuple[dict, list, dict]:
    xis = _xi_grid(args)
    cells = len(xis) * (args.steps + 1)
    if cells > CHARFN_CELLS_CAP:
        raise CliInputError(
            f"charfn table of {len(xis)} points x {args.steps + 1} positions = {cells} cells "
            f"exceeds the cap of {CHARFN_CELLS_CAP}"
        )
    # The cells cap has refused every n that no float holds.  xi * n bounds
    # every phase xi * k, so this also refuses inf and NaN.
    if args.xi is not None and not all(math.isfinite(xi * args.steps) for xi in xis):
        raise CliInputError(f"--xi: expected finite reals with finite phases xi * n, got {args.xi!r}")
    closed = law(coin, qubit, args.steps).characteristic_function(xis)
    direct = engine.distribution(coin, qubit, args.steps).characteristic_function(xis)
    delta = closed - direct
    diffs = np.hypot(delta.real, delta.imag)  # libm's hypot, as abs(complex) rounds
    return ({"xi": REAL, "re_closed": REAL, "im_closed": REAL, "re_direct": REAL, "im_direct": REAL,
             "abs_diff": REAL}, [xis, closed.real, closed.imag, direct.real, direct.imag, diffs],
            {"n": args.steps, **_gate("max_abs_diff", diffs, CHARFN_TOL)})


def _cmd_moments(args, coin: Coin, qubit: Qubit) -> tuple[dict, list, dict]:
    orders = np.arange(1, args.max_order + 1)
    closed = law(coin, qubit, args.steps).moment(orders)
    direct = engine.distribution(coin, qubit, args.steps).moment(orders)
    scales = [max(1.0, float(args.steps) ** m) for m in orders.tolist()]
    diffs = np.abs(closed - direct) / scales
    return ({"m": INT, "closed": REAL, "direct": REAL, "rel_diff": REAL}, [orders, closed, direct, diffs],
            {"n": args.steps, **_gate("max_rel_diff", diffs, MOMENT_TOL)})


def _cmd_symmetry(args, coin: Coin, qubit: Qubit) -> tuple[dict, list, dict]:
    # Every law at n <= 2 is mirror-symmetric, so the verdicts look to n = 3.
    report = symmetry_evidence(coin, qubit, max(args.n_max, 3))
    member = is_symmetric_state(coin, qubit)
    return ({"n": INT, "max_asymmetry": REAL, "mean": REAL}, list(zip(*report.rows[: args.n_max])), {
        "n_max": args.n_max,
        "algebraic_member": member,
        "empirically_symmetric": report.symmetric,
        "zero_mean": report.zero_mean,
        "ok": member == report.symmetric == report.zero_mean,
    })


def _cmd_limit(args, coin: Coin, qubit: Qubit) -> tuple[dict, list, dict]:
    ld = limit.LimitDensity(coin=coin, qubit=qubit)
    a = ld.a_abs
    xs = np.linspace(-a, a, args.grid_points)
    cdf = limit.limit_cdf(ld, xs)
    norm = limit.limit_cdf(ld, a)
    m1 = limit.limit_moment(ld, 1)
    m2 = limit.limit_moment(ld, 2)
    # the norm is 1 by construction, so check that the emitted column is a CDF
    # (NaN fails the range test)
    cdf_valid = np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= 0.0)
    return ({"x": REAL, "density": REAL, "cdf": REAL}, [xs, limit.density(ld, xs), cdf], {
        "slope": ld.slope,
        "support": [-a, a],
        "mean": m1,
        "sd": math.sqrt(m2 - m1 * m1),
        "norm": norm,
        "ok": abs(norm - 1.0) <= NORM_TOL and bool(cdf_valid),
    })


def _cmd_converge(args, coin: Coin, qubit: Qubit) -> tuple[dict, list, dict]:
    n_list = _parse_rows(args.n_list, int, "--n-list")
    times, distances, totals = zip(*limit.ks_convergence(coin, qubit, n_list))
    worst_drift = _worst([abs(total - 1.0) for total in totals])
    return ({"n": INT, "ks_distance": REAL, "total_probability": REAL}, [times, distances, totals],
            {"max_probability_drift": worst_drift, "ok": worst_drift <= 1e-9})


def _cmd_oracle(args, coin: Coin, qubit: Qubit) -> tuple[dict, list, dict]:
    l, m, exhaustive, closed = path_sums_by_time(coin, args.n_cap)
    diffs = np.abs(exhaustive - closed).max(axis=(1, 2))  # per row, the largest entry of |word sum - closed|
    return ({"l": INT, "m": INT, "enum_vs_closed": REAL}, [l, m, diffs],
            {"n_cap": args.n_cap, **_gate("max_abs_diff", diffs, ORACLE_TOL)})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so it is built once."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--coin", help="8 reals: re,im per entry, row-major")
    shared.add_argument("--qubit", help="4 reals: re,im of alpha then beta")
    shared.add_argument("--preset-qubit", choices=sorted(QUBIT_PRESETS), default="symmetric")
    shared.add_argument("--format", choices=["csv", "json"], default="csv")

    parser = argparse.ArgumentParser(prog="qwalk1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[shared], help="exact distribution vs closed form")
    p.add_argument("-n", "--steps", type=int, required=True)

    p = sub.add_parser("charfn", parents=[shared], help="characteristic function vs direct sum")
    p.add_argument("-n", "--steps", type=int, required=True)
    p.add_argument("--xi", help="comma-separated evaluation points")
    p.add_argument("--xi-points", type=int, default=20)

    p = sub.add_parser("moments", parents=[shared], help="closed-form moments vs direct sums")
    p.add_argument("-n", "--steps", type=int, required=True)
    p.add_argument("-m", "--max-order", type=int, default=4)

    p = sub.add_parser("symmetry", parents=[shared], help="symmetry classification and evidence")
    p.add_argument("--n-max", type=int, default=10)

    p = sub.add_parser("limit", parents=[shared], help="limit density, cdf, and moments")
    p.add_argument("--grid-points", type=int, default=41)

    p = sub.add_parser("converge", parents=[shared], help="KS distances to the limit law")
    p.add_argument("--n-list", default="50,100,200,400")

    p = sub.add_parser("oracle", parents=[shared], help="exact word sums vs closed forms")
    p.add_argument("--n-cap", type=int, default=8)

    return parser


_HANDLERS = {
    "dist": _cmd_dist,
    "charfn": _cmd_charfn,
    "moments": _cmd_moments,
    "symmetry": _cmd_symmetry,
    "limit": _cmd_limit,
    "converge": _cmd_converge,
    "oracle": _cmd_oracle,
}


def _discard_stdout() -> None:
    """Point stdout's file descriptor at devnull once its reader has closed, so
    the interpreter's last flush of what is still buffered cannot raise
    ``BrokenPipeError`` again (the "Note on SIGPIPE" of Python's ``signal``
    documentation).  A stream without a descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        steps = getattr(args, "steps", None)
        if steps is not None and steps < 0:
            raise CliInputError("-n must be non-negative")
        for dest, flag in COUNT_OPTIONS.items():
            count = getattr(args, dest, None)
            if count is not None and count < 1:
                raise CliInputError(f"{flag} must be >= 1, got {count}")
            if dest in ROW_OPTIONS and count is not None and count > GRID_POINTS_CAP:
                raise CliInputError(f"{flag} must be <= {GRID_POINTS_CAP}, got {count}")
        if args.command == "moments" and args.max_order * math.log(max(steps, 1)) > 700.0:
            raise CliInputError(f"moments needs n^m within the float range, got n={steps}, m={args.max_order}")
        coin = _coin_from_args(args)
        qubit = _qubit_from_args(args)
        columns, rows, head = _HANDLERS[args.command](args, coin, qubit)
        try:
            _emit(args, args.command, columns, rows, head)
            sys.stdout.flush()
        except BrokenPipeError:
            _discard_stdout()
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            _discard_stdout()
            return EXIT_PARSE
        return EXIT_OK if head["ok"] else EXIT_SELF_CHECK
    except NumericalHealthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except (CliInputError, QWalkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
