"""The table renderer of ``qwalk1d.cli`` against the per-cell reference.

``reference_render`` is the renderer the CLI used before each table got one
``%`` template: a recursive JSON serialiser and one ``format(x, ".17g")`` call
per cell.  Every finite table must come out byte-identical to it, whether the
``%`` template writes it or, from ``cli._WRITER_CELLS`` cells on, the
column-wise writer of ``qwalk1d.render``.  The writer's cells are also checked
one by one against ``format(x, ".17g")`` over random bit patterns and the
edges of its certificate.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk1d.cli as cli
import qwalk1d.render as render
from qwalk1d.coin import random_qubit, random_unitary_coin


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_dump_json(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _dump_json(v) for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_render(fmt: str, command: str, columns, rows, extra: dict) -> str:
    if fmt == "json":
        doc = {"command": command, **extra, "columns": list(columns), "rows": [list(r) for r in rows]}
        return _dump_json(doc) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(cell if isinstance(cell, (str, int)) else _format_float(cell) for cell in row)
    return buffer.getvalue()


def _reals(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _walk_args(seed):
    """Hadamard and the symmetric state for ``None``, else a seeded random pair."""
    if seed is None:
        return []
    rng = np.random.default_rng(seed)
    coin, qubit = random_unitary_coin(rng), random_qubit(rng)
    entries = [coin.a, coin.b, coin.c, coin.d]
    return [f"--coin={_reals(v for z in entries for v in (z.real, z.imag))}",
            f"--qubit={_reals([qubit.alpha.real, qubit.alpha.imag, qubit.beta.real, qubit.beta.imag])}"]


COMMANDS = [
    ["dist", "-n", "24"],
    ["dist", "-n", "0"],
    # -0.0, the smallest subnormal and a tiny normal as grid points
    ["charfn", "-n", "9", "--xi=-0.0,5e-324,1e-300,1.5,-3"],
    ["charfn", "-n", "12", "--xi-points", "7"],
    ["moments", "-n", "15", "-m", "5"],
    ["moments", "-n", "0"],
    ["symmetry", "--n-max", "12"],
    ["limit", "--grid-points", "201"],
    ["converge", "--n-list", "50,10,800"],
    ["oracle", "--n-cap", "5"],
]
#: Tables of at least ``cli._WRITER_CELLS`` cells, which the column-wise writer writes.
LARGE_N_LIST = ",".join(map(str, range(1, 401)))
LARGE_COMMANDS = [
    ["limit", "--grid-points", "2001"],
    ["dist", "-n", "400"],
    ["symmetry", "--n-max", "400"],
    ["converge", "--n-list", LARGE_N_LIST],
    ["charfn", "-n", "9", "--xi-points", "200"],
]


def run_recorded(capsys, monkeypatch, argv):
    """Run the CLI and return its exit code, its stdout and the one table it emitted."""
    tables = []
    true_emit = cli._emit

    def recording_emit(args, command, columns, data, extra):
        rows = [list(row) for row in zip(*(np.asarray(column).tolist() for column in data))]
        tables.append((command, list(columns), rows, dict(extra)))
        true_emit(args, command, columns, data, extra)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    code = cli.main(argv)
    assert len(tables) == 1
    return code, capsys.readouterr().out, tables[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("seed", [None, 11, 29])
@pytest.mark.parametrize(
    "argv", COMMANDS + LARGE_COMMANDS, ids=lambda argv: "_".join(argv).replace(LARGE_N_LIST, "1..400")
)
def test_every_table_matches_the_per_cell_reference(capsys, monkeypatch, argv, seed, fmt):
    code, out, table = run_recorded(capsys, monkeypatch, argv + _walk_args(seed) + ["--format", fmt])
    assert code == 0
    rows = table[2]
    assert (len(rows) * len(rows[0]) >= cli._WRITER_CELLS) == (argv in LARGE_COMMANDS)
    assert out == reference_render(fmt, *table)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "_".join(argv))
def test_small_tables_never_enter_the_writer(capsys, monkeypatch, argv):
    def no_writer(*args):
        raise AssertionError("a table below the threshold entered the writer")

    monkeypatch.setattr(render, "write_columns", no_writer)
    for fmt in ("csv", "json"):
        assert cli.main(argv + ["--format", fmt]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["limit", "--grid-points", "100000"], ["dist", "-n", "20000"]], ids=["limit", "dist"])
def test_tables_at_the_caps_equal_the_template(capsys, monkeypatch, argv, fmt):
    assert cli.main(argv + ["--format", fmt]) == 0
    written = capsys.readouterr().out
    monkeypatch.setattr(cli, "_WRITER_CELLS", math.inf)
    assert cli.main(argv + ["--format", fmt]) == 0
    assert written == capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_positions_up_to_n_on_a_ballistic_coin(capsys, monkeypatch, fmt):
    # b = 0: the atoms sit at -n and +n, and every other cell is 0
    argv = ["dist", "--coin", "1,0,0,0,0,0,1,0", "-n", "37", "--format", fmt]
    code, out, table = run_recorded(capsys, monkeypatch, argv)
    assert code == 0
    rows = table[2]
    assert [rows[0][0], rows[-1][0]] == [-37, 37]
    assert out == reference_render(fmt, *table)


EDGE_ROWS = [[-40, -0.0], [-38, 5e-324], [0, 1e-300], [2, 2.0], [38, 1.0 / 3.0], [40, 1e300]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_template_on_edge_values(capsys, fmt):
    extra = {"n": 40, "worst": -0.0, "support": [-1e-300, 5e-324], "ok": True}
    cli._emit(SimpleNamespace(format=fmt), "edge", {"k": cli.INT, "x": cli.REAL}, list(zip(*EDGE_ROWS)), extra)
    out = capsys.readouterr().out
    assert out == reference_render(fmt, "edge", ["k", "x"], EDGE_ROWS, extra)
    if fmt == "json":
        assert json.loads(out)["rows"] == EDGE_ROWS


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_on_edge_values(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "_WRITER_CELLS", 1)
    test_template_on_edge_values(capsys, fmt)


def test_non_finite_cells(capsys):
    rows = [[1, math.nan], [2, math.inf], [3, -math.inf], [4, 0.5]]
    extra = {"worst": math.nan, "support": [-math.inf, math.inf]}
    columns = {"k": cli.INT, "x": cli.REAL}
    cli._emit(SimpleNamespace(format="json"), "bad", columns, list(zip(*rows)), extra)
    out = capsys.readouterr().out
    assert "NaN" in out and "-Infinity" in out
    doc = json.loads(out)
    assert math.isnan(doc["worst"])
    assert doc["support"] == [-math.inf, math.inf]
    assert math.isnan(doc["rows"][0][1])
    assert [row[1] for row in doc["rows"][1:]] == [math.inf, -math.inf, 0.5]
    # CSV keeps Python's spelling, as before
    cli._emit(SimpleNamespace(format="csv"), "bad", columns, list(zip(*rows)), extra)
    assert capsys.readouterr().out == reference_render("csv", "bad", list(columns), rows, extra)
    assert reference_render("csv", "bad", list(columns), rows, extra) == "k,x\n1,nan\n2,inf\n3,-inf\n4,0.5\n"


def test_non_finite_cells_in_the_writer(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_WRITER_CELLS", 1)
    test_non_finite_cells(capsys)


def written_cells(values, fmt: str = "csv", kind: str = cli.REAL) -> list[str]:
    """The cells of a one-column table of ``values`` as the column-wise writer writes them."""
    out = io.StringIO()
    with mock.patch.object(cli, "_WRITER_CELLS", 1), contextlib.redirect_stdout(out):
        cli._emit(SimpleNamespace(format=fmt), "cells", {"x": kind}, [values], {})
    if fmt == "json":
        return out.getvalue().split('"rows":[[')[1][: -len("]]}\n")].split("],[")
    return out.getvalue().split("\n")[1:-1]


def assert_cells_match(values):
    values = np.asarray(values, np.float64)
    values = np.concatenate([values, -values])
    assert written_cells(values) == [format(x, ".17g") for x in values.tolist()]


def test_random_bit_patterns():
    values = np.random.default_rng(20261020).integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64)
    assert written_cells(values) == [format(x, ".17g") for x in values.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_floats(values):
    assert written_cells(values) == [format(x, ".17g") for x in values]
    finite = [x for x in values if math.isfinite(x)]
    if finite:
        assert written_cells(finite, "json") == [format(x, ".17g") for x in finite]


def test_exact_ties_round_half_even():
    assert written_cells([1234567890123456.25, 1234567890123456.75]) == ["1234567890123456.2", "1234567890123456.8"]
    rng = np.random.default_rng(7)
    # 18 significant digits ending in 5, each exactly a float: a tie at 17
    ties = [float(n) + f for n in rng.integers(10**15, 2**51, 200) for f in (0.25, 0.75)]
    ties += [float(n) + f for n in rng.integers(10**14, 10**15, 200) for f in (0.125, 0.375, 0.625, 0.875)]
    ties += [float(n) + f for n in rng.integers(10**13, 10**14, 200) for f in (0.0625, 0.1875, 0.9375)]
    assert all(Decimal(x).as_tuple().digits[17:] == (5,) for x in ties)
    assert_cells_match(ties)


def test_powers_of_ten_and_decade_edges():
    values = []
    for e in range(-323, 309):
        power = float(f"1e{e}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf), float(f"9.9999999999999999e{e}")]
        values += [float(f"9.999999999999999e{e}"), float(f"9.9999999999999995e{e}"), float(f"1.0000000000000001e{e}")]
    assert_cells_match([v for v in values if math.isfinite(v)])


@pytest.mark.parametrize("shift", [-1e-12, 1e-12], ids=["low", "high"])
def test_an_exponent_estimate_one_off_falls_back(monkeypatch, shift):
    # log10 moved off by 1e-12 puts floor(log10 |x|) one decade off for the
    # values at (low) or just under (high) each power of ten
    true_log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: true_log10(x) + shift)
    values = [float(f"1e{e}") for e in range(-280, 281)]
    values += [np.nextafter(v, s) for v in values for s in (0.0, math.inf)]
    assert_cells_match(values + [10.0**k * f for k in range(-5, 20) for f in (1.0, 1 - 2**-52, 1 - 2**-50)])


def test_integers_and_the_range_edges():
    rng = np.random.default_rng(11)
    integers = [float(2**k + j) for k in range(61) for j in (-1, 0, 1)] + [float(10**k) for k in range(19)]
    integers += rng.integers(0, 2**60, 10_000).astype(np.float64).tolist()
    low, high = render._REAL_RANGE
    edges = [v * s for v in (low, high, 1e-281, 1e281, 1e-279, 1e279) for s in (1.0, 1 - 2**-52, 1 + 2**-52, 2.0, 0.5)]
    tiny = [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 2.2250738585072019e-308]
    huge = [1.7976931348623157e308, np.nextafter(1.7976931348623157e308, 0.0)]
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64).tolist()
    assert_cells_match(integers + edges + tiny + huge + subnormals + [0.0, math.nan, math.inf])


def test_ordinary_values_are_written_from_the_estimate(monkeypatch):
    values = np.random.default_rng(5).uniform(-1e3, 1e3, 100_000)
    from_python = []
    true_python_cells = render._python_cells

    def counted(x, json_rows):
        from_python.extend(x.tolist())
        return true_python_cells(x, json_rows)

    monkeypatch.setattr(render, "_python_cells", counted)
    assert written_cells(values) == [format(x, ".17g") for x in values.tolist()]
    assert len(from_python) < 10


def test_every_cell_from_python_still_matches(capsys, monkeypatch):
    # no estimate is certain with a margin of 1, so Python writes every cell
    monkeypatch.setattr(render, "_TIE_MARGIN", 1.0)
    values = np.random.default_rng(3).integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    assert_cells_match(np.concatenate([values, [0.0, 1.0, 0.1, 1e-5, 1e16, 1e17, math.nan, math.inf]]))
    for fmt in ("csv", "json"):
        code, out, table = run_recorded(capsys, monkeypatch, ["dist", "-n", "400", "--format", fmt])
        assert code == 0
        assert out == reference_render(fmt, *table)


def test_int_cells():
    values = [0, 1, -1, 9, 10, -10, 99, 100, 2**31, -(2**31), 10**18, 2**63 - 1, -(2**63)]
    values += np.random.default_rng(9).integers(-(2**63), 2**63 - 1, 10_000).tolist()
    for fmt in ("csv", "json"):
        assert written_cells(values, fmt, cli.INT) == [str(v) for v in values]


def test_power_table_is_exact_to_2_pow_minus_104():
    hi, lo = render._powers_of_ten()
    assert len(hi) == len(render._EXPONENTS)
    for e, h, l in zip(render._EXPONENTS, hi.tolist(), lo.tolist()):
        power = Fraction(10) ** (16 - e)
        assert abs(Fraction(h) + Fraction(l) - power) <= power / 2**104
        assert h == float(power)  # hi rounded once


def test_import_builds_no_table():
    # the CLI loads the writer for its first large table, and the writer
    # builds its tables on first use
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys, qwalk1d, qwalk1d.cli; print('qwalk1d.render' in sys.modules); "
        "import qwalk1d.render as r; "
        "print(*(f.cache_info().currsize for f in (r._powers_of_ten, r._layouts, r._groups)))"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.stdout.split() == ["False", "0", "0", "0"], result.stderr
