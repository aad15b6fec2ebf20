"""Time one experiment of two checkouts against each other in one process.

    python tests/ab_inprocess.py --parent ../parent-checkout --experiment exp4 --seed 0 --pairs 60

The ``src/socicnn`` trees of the two checkouts (``--change`` defaults to the
checkout holding this file) are copied into a temporary directory as the
packages ``socicnn_change`` and ``socicnn_parent``, next to a second copy of
the parent, ``socicnn_control``.  The script first prints each side's table
digest, a SHA-256 of every table cell but the ``*_ms`` timings (floats as
``float.hex``) and of every check verdict, so equal digests mean bitwise
equal tables.  It then runs ``run_expN`` at the config seed ``--seed`` in
``--pairs`` pairs of change and parent, and as many pairs of control and
parent, the two kinds interleaved, and alternates which side of a pair runs
first.  Each pair gives the ratio of the two wall times.  The last lines are
the median change/parent ratio with the number of pairs in which the change
ran faster, and the same for the A/A control, whose median sits near 1.0
when the process itself favours neither side.

Nothing is written into either checkout.  Set ``OPENBLAS_NUM_THREADS=1`` to
keep BLAS threads from adding noise.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("change", "parent", "control")


def table_digest(output) -> str:
    """SHA-256 of an experiment output's non-timing cells and check verdicts."""
    h = hashlib.sha256()
    for table in output.tables:
        keep = [i for i, col in enumerate(table.columns) if not col.endswith("_ms")]
        for row in table.rows:
            cells = [row[i].hex() if isinstance(row[i], float) else repr(row[i]) for i in keep]
            h.update(("\t".join(cells) + "\n").encode())
    for check in output.checks:
        h.update(f"{check.name}\t{check.passed}\n".encode())
    return h.hexdigest()


def load_sides(change: Path, parent: Path, into: Path) -> dict:
    """``{side: (run_expN, ConfigN)}`` loaders per side, from the copied trees."""
    for side, root in zip(SIDES, (change, parent, parent)):
        shutil.copytree(root / "src" / "socicnn", into / f"socicnn_{side}")
    sys.path.insert(0, str(into))
    return {side: importlib.import_module(f"socicnn_{side}.experiments") for side in SIDES}


def timed(module, experiment: str, seed: int) -> float:
    run = getattr(module, f"run_{experiment}")
    config = getattr(module, f"Exp{experiment[-1]}Config")(seed=seed)
    gc.collect()
    start = time.perf_counter()
    run(config)
    return time.perf_counter() - start


def summary(ratios) -> str:
    faster = sum(r < 1.0 for r in ratios)
    return f"median {statistics.median(ratios):.3f}, faster in {faster} of {len(ratios)} pairs"


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, default=here, help="root of the changed checkout")
    ap.add_argument("--experiment", default="exp4", choices=("exp1", "exp2", "exp3", "exp4"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=60)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        modules = load_sides(args.change.resolve(), args.parent.resolve(), Path(tmp))
        for side, module in modules.items():
            config = getattr(module, f"Exp{args.experiment[-1]}Config")(seed=args.seed)
            output = getattr(module, f"run_{args.experiment}")(config)
            print(f"{side}\tdigest {table_digest(output)}", flush=True)
        ratios = {"change": [], "control": []}
        for i in range(args.pairs):
            for side in ratios:
                order = (side, "parent") if i % 2 == 0 else ("parent", side)
                secs = {s: timed(modules[s], args.experiment, args.seed) for s in order}
                ratios[side].append(secs[side] / secs["parent"])
        print(f"{args.experiment} seed {args.seed}, change/parent: {summary(ratios['change'])}")
        print(f"{args.experiment} seed {args.seed}, control/parent (A/A): "
              f"{summary(ratios['control'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
