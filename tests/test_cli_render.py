"""The table renderer of ``qwalk1d.cli`` against the per-cell reference.

``reference_render`` is the renderer the CLI used before each table got one
``%`` template: a recursive JSON serialiser and one ``format(x, ".17g")`` call
per cell.  Every finite table must come out byte-identical to it.
"""

import csv
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import qwalk1d.cli as cli
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


def run_recorded(capsys, monkeypatch, argv):
    """Run the CLI and return its exit code, its stdout and the one table it emitted."""
    tables = []
    true_emit = cli._emit

    def recording_emit(args, command, columns, rows, extra):
        tables.append((command, list(columns), [list(row) for row in rows], dict(extra)))
        true_emit(args, command, columns, rows, extra)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    code = cli.main(argv)
    assert len(tables) == 1
    return code, capsys.readouterr().out, tables[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("seed", [None, 11, 29])
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "_".join(argv))
def test_every_table_matches_the_per_cell_reference(capsys, monkeypatch, argv, seed, fmt):
    code, out, table = run_recorded(capsys, monkeypatch, argv + _walk_args(seed) + ["--format", fmt])
    assert code == 0
    assert out == reference_render(fmt, *table)


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
    cli._emit(SimpleNamespace(format=fmt), "edge", {"k": cli.INT, "x": cli.REAL}, EDGE_ROWS, extra)
    out = capsys.readouterr().out
    assert out == reference_render(fmt, "edge", ["k", "x"], EDGE_ROWS, extra)
    if fmt == "json":
        assert json.loads(out)["rows"] == EDGE_ROWS


def test_non_finite_cells(capsys):
    rows = [[1, math.nan], [2, math.inf], [3, -math.inf], [4, 0.5]]
    extra = {"worst": math.nan, "support": [-math.inf, math.inf]}
    columns = {"k": cli.INT, "x": cli.REAL}
    cli._emit(SimpleNamespace(format="json"), "bad", columns, rows, extra)
    out = capsys.readouterr().out
    assert "NaN" in out and "-Infinity" in out
    doc = json.loads(out)
    assert math.isnan(doc["worst"])
    assert doc["support"] == [-math.inf, math.inf]
    assert math.isnan(doc["rows"][0][1])
    assert [row[1] for row in doc["rows"][1:]] == [math.inf, -math.inf, 0.5]
    # CSV keeps Python's spelling, as before
    cli._emit(SimpleNamespace(format="csv"), "bad", columns, rows, extra)
    assert capsys.readouterr().out == reference_render("csv", "bad", list(columns), rows, extra)
    assert reference_render("csv", "bad", list(columns), rows, extra) == "k,x\n1,nan\n2,inf\n3,-inf\n4,0.5\n"
