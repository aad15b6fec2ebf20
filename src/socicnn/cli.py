"""Command-line front end.

Subcommands: ``exp1`` through ``exp4``, one per experiment.  Their configs
load from a JSON file (``--config``) whose keys mirror the config dataclass
fields; individual flags override file values.  Exit codes:
0 on success, 2 on configuration or input errors, 3 when ``--check`` finds a
failed criterion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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


class CliError(Exception):
    """User-facing configuration problem; maps to exit code 2."""


def _csv_lines(table: experiments.Table) -> list:
    return [",".join(table.columns)] + [
        ",".join(str(v) for v in row) for row in table.rows
    ]


def _coerce(default, value):
    """The JSON ``value`` of the field whose default is ``default`` in the
    field's Python shape: an object as a nested config, and an array as a
    tuple (each element shaped like the default's first).  The config
    itself checks the rest; an int in a float field is a number there."""
    if isinstance(value, dict) and dataclasses.is_dataclass(default):
        return _build_config(type(default), value)
    if isinstance(value, list):
        item = default[0] if isinstance(default, tuple) else None
        return tuple(_coerce(item, v) for v in value)
    return value


def _build_config(cls, values: dict):
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    defaults = cls()
    try:
        return cls(**{k: _coerce(getattr(defaults, k), v) for k, v in values.items()})
    except ValueError as exc:
        raise CliError(f"bad config value: {exc}") from exc


def _load_config(cls, path: str | None, overrides: dict):
    values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid JSON in config file {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise CliError("config file must hold a JSON object")
    values.update({k: v for k, v in overrides.items() if v is not None})
    return _build_config(cls, values)


def _cmd_exp(args, name: str) -> int:
    cls, runner, _, flags = _EXPERIMENTS[name]
    overrides = {key: getattr(args, key) for key in ("seed",) + flags}
    cfg = _load_config(cls, args.config, overrides)
    out = runner(cfg)
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
        p.add_argument("--config", help="JSON config file")
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
    except (CliError, SocIcnnError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
