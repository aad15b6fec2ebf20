"""Count the minor page faults of each timed pass of one ``bench/run.py`` run.

    python tests/pass_faults.py --checkout ../parent-checkout --workload smooth \\
        --seed 760674352 --seconds 10

The checkout's ``bench/run.py`` is loaded before NumPy, as
``tests/ab_inprocess.py`` loads it, so it pins BLAS to one thread as the
benchmark does.  Its ``Runner.run_pass`` is wrapped to read this process's
``ru_minflt`` before and after every pass, and its ``main`` then runs with
``--trace 0``: the benchmark's own untimed warm-up pass, timed passes and
``setup_s`` children (whose faults are theirs, not this process's).  The
script prints the run's ``wall_s`` and ``check_fail_rate``, then the median
and quartiles of the minor faults per timed pass, the warm-up left out.

A pass that reuses memory the process has already touched takes a handful
of faults.  A page-fault storm, thousands of extra faults per pass, means
memory freed in one pass is faulted in afresh in the next.  Whether that
happens can depend on what the process allocated before the passes, not on
the passes' own code, so a storm can move ``wall_s`` between two checkouts
whose code runs at the same speed; the fault counts of both sides tell such
a move from a change in speed.

Nothing is written into the checkout but what ``bench/run.py`` writes there
itself (``.bench_out/``).  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path

from ab_inprocess import load_bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", required=True, type=Path, help="root of the checkout to run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    bench = load_bench(args.checkout.resolve())
    faults = []
    run_pass = bench.Runner.run_pass

    def counted(runner):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return run_pass(runner)
        finally:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    bench.Runner.run_pass = counted
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        bench.main(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    timed = faults[1:]
    q1, median, q3 = statistics.quantiles(timed, n=4, method="inclusive")
    print(f"wall_s {result['metrics']['wall_s']['value']:.4f}  "
          f"check_fail_rate {result['failed'] / result['attempted']:g}")
    print(f"minor faults per timed pass: median {median:g}, quartiles {q1:g} {q3:g}, "
          f"{len(timed)} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
