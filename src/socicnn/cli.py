"""Command-line front end.

Subcommands: ``model gen``, ``model info``, and ``exp1`` through ``exp4``.
Experiment configs load from a JSON file (``--config``) whose keys mirror the
config dataclass fields; individual flags override file values.  Exit codes:
0 on success, 2 on configuration or input errors, 3 when ``--check`` finds a
failed criterion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, model
from .errors import SocIcnnError
from .model import ArchSpec

_EXPERIMENTS = {
    "exp1": (experiments.Exp1Config, experiments.run_exp1),
    "exp2": (experiments.Exp2Config, experiments.run_exp2),
    "exp3": (experiments.Exp3Config, experiments.run_exp3),
    "exp4": (experiments.Exp4Config, experiments.run_exp4),
}

# Per-experiment count flags; each overrides the config field of its name.
_EXTRA_FLAGS = {
    "exp1": ("samples",),
    "exp2": ("points", "trials"),
    "exp3": ("directions", "branches", "probes"),
    "exp4": ("queries",),
}


class CliError(Exception):
    """User-facing configuration problem; maps to exit code 2."""


def _plain(value):
    """A table cell as a plain Python value; its ``str`` is the CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _csv_lines(table: experiments.Table) -> list:
    return [",".join(table.columns)] + [
        ",".join(str(_plain(v)) for v in row) for row in table.rows
    ]


def _table_text(table: experiments.Table, fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(_csv_lines(table)) + "\n"
    rows = [[_plain(v) for v in row] for row in table.rows]
    obj = {"name": table.name, "columns": list(table.columns), "rows": rows}
    return json.dumps(obj, indent=1) + "\n"


def _coerce(key: str, default, value):
    """``value`` from JSON as the type of the field default ``default``: a
    nested config from an object, a tuple from an array (each element typed
    like the default's first), a non-negative integer (or null where the
    default is None), or a float from a finite non-negative number."""
    if dataclasses.is_dataclass(default):
        if not isinstance(value, dict):
            raise CliError(f"{key} takes a JSON object, got {value!r}")
        return _build_config(type(default), value)
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise CliError(f"{key} takes a JSON array, got {value!r}")
        return tuple(_coerce(key, default[0], v) for v in value)
    if default is None and value is None:
        return None
    if isinstance(default, int) or default is None:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise CliError(f"{key} takes a non-negative integer, got {value!r}")
        return value
    if isinstance(default, float):
        finite = isinstance(value, (int, float)) and 0 <= value <= sys.float_info.max
        if isinstance(value, bool) or not finite:
            raise CliError(f"{key} takes a finite non-negative number, got {value!r}")
        return float(value)
    return value


def _build_config(cls, values: dict):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(values) - names
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    defaults = cls()
    values = {k: _coerce(k, getattr(defaults, k), v) for k, v in values.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
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


def _parse_dims(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"expected comma-separated integers, got {text!r}") from exc


def _cmd_model_gen(args) -> int:
    if args.seed < 0:
        raise CliError(f"--seed takes a non-negative integer, got {args.seed}")
    if args.preset == "degenerate-2d":
        params, _ = model.build_degenerate_2d()
    elif args.preset is not None:
        params = experiments._random_model(_EXPERIMENTS[args.preset][0](seed=args.seed))
    else:
        arch = ArchSpec(
            args.input_dim,
            (args.width,) * args.depth,
            _parse_dims(args.quad_dims),
            _parse_dims(args.cone_dims),
        )
        params = model.build_random(args.seed, arch)
    model.save_model(params, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_model_info(args) -> int:
    params = model.load_model(args.path)
    trace_dims = ", ".join(str(w) for w in params.widths)
    print(f"input_dim: {params.input_dim}")
    print(f"layers: {params.n_layers} (widths {trace_dims})")
    print(f"quadratic modules: {len(params.B)} (dims {[B.shape[0] for B in params.B]})")
    print(f"conic modules: {len(params.A)} (dims {[A.shape[0] for A in params.A]})")
    print(f"seed: {params.seed}")
    total = sum(W.size + U.size + b.size for W, U, b in zip(params.W, params.U, params.b))
    total += params.c.size + params.v.size + 1
    total += sum(B.size + e.size + 1 for B, e in zip(params.B, params.e))
    total += sum(A.size + d.size + 1 for A, d in zip(params.A, params.d))
    print(f"parameters: {total}")
    print("validation: ok")
    return 0


def _cmd_exp(args, name: str) -> int:
    cls, runner = _EXPERIMENTS[name]
    overrides = {key: getattr(args, key) for key in ("seed",) + _EXTRA_FLAGS[name]}
    cfg = _load_config(cls, args.config, overrides)
    out = runner(cfg)
    for table in out.tables:
        print(f"[{table.name}]")
        print("\n".join(_csv_lines(table)))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for table in out.tables:
            path = out_dir / f"{name}_{table.name}.{args.format}"
            path.write_text(_table_text(table, args.format), encoding="utf-8")
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

    p_model = sub.add_parser("model", help="generate or inspect model files")
    model_sub = p_model.add_subparsers(dest="model_command", required=True)
    p_gen = model_sub.add_parser("gen", help="draw a model and write it as JSON")
    p_gen.add_argument("--out", required=True, help="output path")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--preset",
        choices=("exp1", "exp2", "exp4", "degenerate-2d"),
        help="named architecture; degenerate-2d ignores --seed",
    )
    p_gen.add_argument("--input-dim", type=int, default=20)
    p_gen.add_argument("--width", type=int, default=64)
    p_gen.add_argument("--depth", type=int, default=4)
    p_gen.add_argument("--quad-dims", default="20,20", help="comma-separated module dims")
    p_gen.add_argument("--cone-dims", default="20,20", help="comma-separated module dims")
    p_info = model_sub.add_parser("info", help="validate and summarize a model file")
    p_info.add_argument("path")

    help_text = {
        "exp1": "gradient readout agreement on random inputs",
        "exp2": "Hessian formula and quadratic-model accuracy",
        "exp3": "set-valued geometry at the degenerate anchor",
        "exp4": "white-box versus finite-difference inference",
    }
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=help_text[name])
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="directory for result tables")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--check", action="store_true", help="evaluate pass/fail criteria")
        for flag in _EXTRA_FLAGS[name]:
            p.add_argument(f"--{flag}", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "model":
            if args.model_command == "gen":
                return _cmd_model_gen(args)
            return _cmd_model_info(args)
        return _cmd_exp(args, args.command)
    except (CliError, SocIcnnError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
