"""Print every table cell and check verdict of exp1-exp4, compare them with
an earlier printout, or write them as a golden file.

Run from the root of a checkout, with the package to measure on the path:

    PYTHONPATH=src python tests/table_cells.py --seeds 0 1 2 3 34 99 > cells.tsv
    PYTHONPATH=src python tests/table_cells.py --seeds 0 99 --against cells.tsv
    PYTHONPATH=src python tests/table_cells.py --seeds 0 99 --write tests/golden_tables.json

Each line is ``key<TAB>value``.  A cell's key is
``seed/experiment/table/row/column`` and its value is the float's
``float.hex`` (or the ``repr`` of any other value); a verdict's key is
``seed/experiment/check/name`` and its value ``pass`` or ``FAIL``.  The
``*_ms`` columns are left out, since they are timings.  With ``--against``,
only the differences are printed: each moved cell with its old value, new
value, distance in units in the last place and absolute difference, each
changed verdict, and each key that one side lacks, then one summary line per
moved ``seed/experiment/table/column`` with its count of moved cells and
their largest distance in units in the last place and largest absolute
difference.  ``--write`` stores the cells as JSON together with the machine
they were made on (CPU model, NumPy version, BLAS), and ``--against`` reads
such a file too.  The golden file ``tests/golden_tables.json`` is checked
by ``test_experiments_reference.py::test_tables_match_the_golden_file``.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import platform
import struct
import sys

import numpy as np

from socicnn.experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    Exp4Config,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
)

EXPERIMENTS = (
    ("exp1", Exp1Config, run_exp1),
    ("exp2", Exp2Config, run_exp2),
    ("exp3", Exp3Config, run_exp3),
    ("exp4", Exp4Config, run_exp4),
)


def output_cells(seed, name, tables, checks) -> dict:
    """``{key: value}`` for every non-``*_ms`` cell and every check verdict
    of one experiment's output at one config seed."""
    cells = {}
    for table in tables:
        for r, row in enumerate(table.rows):
            for column, value in zip(table.columns, row):
                if not column.endswith("_ms"):
                    key = f"{seed}/{name}/{table.name}/{r}/{column}"
                    cells[key] = value.hex() if isinstance(value, float) else repr(value)
    for check in checks:
        cells[f"{seed}/{name}/check/{check.name}"] = "pass" if check.passed else "FAIL"
    return cells


def table_cells(seeds) -> dict:
    """``output_cells`` of exp1-exp4 at their default configs, at each
    config seed in order."""
    cells = {}
    for seed in seeds:
        for name, config, run in EXPERIMENTS:
            out = run(config(seed=seed))
            cells.update(output_cells(seed, name, out.tables, out.checks))
    return cells


def machine() -> dict:
    """What a float cell's last bits can depend on: the CPU model, the NumPy
    version and the BLAS NumPy was built with."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}"}


def _ordinal(x: float) -> int:
    """The position of ``x`` in the ordered doubles, so that neighbours
    differ by one and ``-0.0`` sits with ``+0.0``."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def distance(old: str, new: str) -> tuple | None:
    """Doubles between two cell values and their absolute difference, None
    unless both are the ``float.hex`` of finite floats.  Across 0.0 the
    first counts every double of the smaller magnitude (about 4.4e18 from
    1e-12), so only the second says how far such a cell moved."""
    if "0x" not in old or "0x" not in new:
        return None
    old_f, new_f = float.fromhex(old), float.fromhex(new)
    return abs(_ordinal(old_f) - _ordinal(new_f)), abs(new_f - old_f)


def read_cells(path) -> dict:
    """The cells of a printout, or of a file that ``--write`` made."""
    with open(path, encoding="utf-8") as fh:
        if str(path).endswith(".json"):
            return json.load(fh)["cells"]
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())


def differences(old: dict, new: dict) -> list:
    """One line per key whose value differs or that one side lacks, in
    ``new``'s order and then ``old``'s."""
    lines = []
    for key, value in new.items():
        before = old.get(key)
        if before is None:
            lines.append(f"{key}\tnew only\t{value}")
        elif before != value:
            moved = distance(before, value)
            if moved is None:
                lines.append(f"{key}\t{before} -> {value}")
            else:
                old_f, new_f = float.fromhex(before), float.fromhex(value)
                ulps, absolute = moved
                lines.append(f"{key}\t{old_f!r} -> {new_f!r}\t{ulps} ulp\t{absolute:.3g} abs")
    lines += [f"{key}\told only\t{old[key]}" for key in old if key not in new]
    return lines


def column_summary(old: dict, new: dict) -> list:
    """One line per ``seed/experiment/table/column`` with a cell in both
    ``old`` and ``new`` that moved: the count of moved cells, the largest
    ULP distance and the largest absolute difference among them (``-`` when
    no moved cell is a finite float)."""
    moved = {}
    for key, value in new.items():
        before = old.get(key)
        seed, name, table, *rest = key.split("/")
        if before is None or before == value or table == "check":
            continue
        column = f"{seed}/{name}/{table}/{rest[-1]}"
        count, ulps, absolute = moved.get(column, (0, None, None))
        dist = distance(before, value)
        if dist is not None:
            ulps = dist[0] if ulps is None else max(ulps, dist[0])
            absolute = dist[1] if absolute is None else max(absolute, dist[1])
        moved[column] = (count + 1, ulps, absolute)
    return [
        f"{column}\t{count} moved\tmax {'-' if ulps is None else ulps} ulp"
        f"\tmax {'-' if absolute is None else f'{absolute:.3g}'} abs"
        for column, (count, ulps, absolute) in moved.items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 34, 99])
    parser.add_argument("--against", metavar="FILE", help="an earlier printout to compare with")
    parser.add_argument("--write", metavar="FILE", help="write the cells as a golden JSON file")
    args = parser.parse_args(argv)
    cells = table_cells(args.seeds)
    if args.write is not None:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump({"made_on": machine(), "seeds": args.seeds, "cells": cells}, fh, indent=1)
            fh.write("\n")
        return 0
    if args.against is None:
        for key, value in cells.items():
            print(f"{key}\t{value}")
        return 0
    old = read_cells(args.against)
    old = {k: v for k, v in old.items() if int(k.split("/", 1)[0]) in args.seeds}
    lines = differences(old, cells)
    print("\n".join(lines) if lines else "no cell or verdict differs")
    summary = column_summary(old, cells)
    if summary:
        print("moved cells per column:")
        print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
