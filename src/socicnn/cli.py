"""Command-line front end.

Subcommands: ``exp1`` through ``exp4``, one per experiment, each run at
its default config but for ``--seed`` and its count flags; every other
field is set from Python (``run_exp4(Exp4Config(solver=InferenceConfig(...)))``).
Exit codes: 0 on success, 2 on a usage error or a refusal (a
``SocIcnnError``, an ``OSError`` or a ``MemoryError``), 3 when ``--check``
finds a failed criterion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments
from .errors import SocIcnnError

# Per experiment: config class, driver, help line and count flags, each flag
# overriding the config field of its name.
_EXPERIMENTS = {
    "exp1": (experiments.Exp1Config, experiments.run_exp1,
             "gradient readout agreement on random inputs", ("samples",)),
    "exp2": (experiments.Exp2Config, experiments.run_exp2,
             "Hessian formula and quadratic-model accuracy", ("points", "trials")),
    "exp3": (experiments.Exp3Config, experiments.run_exp3,
             "set-valued geometry at the degenerate anchor", ("directions", "branches", "probes")),
    "exp4": (experiments.Exp4Config, experiments.run_exp4,
             "white-box versus finite-difference inference", ("queries",)),
}


def _csv_lines(table: experiments.Table) -> list:
    return [",".join(table.columns)] + [
        ",".join(str(v) for v in row) for row in table.rows
    ]


def _cmd_exp(args, name: str) -> int:
    cls, runner, _, flags = _EXPERIMENTS[name]
    overrides = {key: getattr(args, key) for key in ("seed",) + flags}
    out = runner(cls(**{k: v for k, v in overrides.items() if v is not None}))
    for table in out.tables:
        print(f"[{table.name}]")
        print("\n".join(_csv_lines(table)))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for table in out.tables:
            path = out_dir / f"{name}_{table.name}.csv"
            path.write_text("\n".join(_csv_lines(table)) + "\n", encoding="utf-8")
            print(f"wrote {path}")
    if args.check:
        failed = 0
        for check in out.checks:
            tag = "PASS" if check.passed else "FAIL"
            print(f"[{tag}] {check.name}: {check.detail}")
            failed += 0 if check.passed else 1
        if failed:
            print(f"{failed} check(s) failed")
            return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socicnn",
        description="Exact dual geometry and white-box inference experiments "
        "for second-order-cone input convex networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, _, help_line, flags) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="directory for the CSV result tables")
        p.add_argument("--check", action="store_true", help="evaluate pass/fail criteria")
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _cmd_exp(args, args.command)
    except (SocIcnnError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
