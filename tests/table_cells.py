"""Print every table cell and check verdict of exp1-exp4, or compare them
with an earlier printout.

Run from the root of a checkout, with the package to measure on the path:

    PYTHONPATH=src python tests/table_cells.py --seeds 0 1 2 3 34 99 > cells.tsv
    PYTHONPATH=src python tests/table_cells.py --seeds 0 99 --against cells.tsv

Each line is ``key<TAB>value``.  A cell's key is
``seed/experiment/table/row/column`` and its value is the float's
``float.hex`` (or the ``repr`` of any other value); a verdict's key is
``seed/experiment/check/name`` and its value ``pass`` or ``FAIL``.  The
``*_ms`` columns are left out, since they are timings.  With ``--against``,
only the differences are printed: each moved cell with its old value, new
value and distance in units in the last place, each changed verdict, and
each key that one side lacks.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import struct
import sys

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


def table_cells(seeds) -> dict:
    """``{key: value}`` for every non-``*_ms`` cell and every check verdict
    of exp1-exp4 at their default configs, at each config seed in order."""
    cells = {}
    for seed in seeds:
        for name, config, run in EXPERIMENTS:
            out = run(config(seed=seed))
            for table in out.tables:
                for r, row in enumerate(table.rows):
                    for column, value in zip(table.columns, row):
                        if not column.endswith("_ms"):
                            key = f"{seed}/{name}/{table.name}/{r}/{column}"
                            cells[key] = value.hex() if isinstance(value, float) else repr(value)
            for check in out.checks:
                cells[f"{seed}/{name}/check/{check.name}"] = "pass" if check.passed else "FAIL"
    return cells


def _ordinal(x: float) -> int:
    """The position of ``x`` in the ordered doubles, so that neighbours
    differ by one and ``-0.0`` sits with ``+0.0``."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_distance(old: str, new: str) -> int | None:
    """Doubles between two cell values, None unless both are the
    ``float.hex`` of finite floats."""
    if "0x" not in old or "0x" not in new:
        return None
    return abs(_ordinal(float.fromhex(old)) - _ordinal(float.fromhex(new)))


def read_cells(path) -> dict:
    with open(path, encoding="utf-8") as fh:
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
            ulps = ulp_distance(before, value)
            if ulps is None:
                lines.append(f"{key}\t{before} -> {value}")
            else:
                old_f, new_f = float.fromhex(before), float.fromhex(value)
                lines.append(f"{key}\t{old_f!r} -> {new_f!r}\t{ulps} ulp")
    lines += [f"{key}\told only\t{old[key]}" for key in old if key not in new]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 34, 99])
    parser.add_argument("--against", metavar="FILE", help="an earlier printout to compare with")
    args = parser.parse_args(argv)
    cells = table_cells(args.seeds)
    if args.against is None:
        for key, value in cells.items():
            print(f"{key}\t{value}")
        return 0
    old = read_cells(args.against)
    old = {k: v for k, v in old.items() if int(k.split("/", 1)[0]) in args.seeds}
    lines = differences(old, cells)
    print("\n".join(lines) if lines else "no cell or verdict differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
