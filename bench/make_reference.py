"""Write ``reference_digests.json``: the table digests of one pass of each
workload at each experiment config seed given, for later runs to compare
against.

    python3 bench/make_reference.py 0 1 2 3 99
"""

import json
import sys

import run


def main(seeds):
    experiments = run._import_package()
    reference = {}
    for workload in sorted(run.WORKLOADS):
        for seed in seeds:
            runner = run.Runner(experiments, workload, seed)
            runner.run_pass()
            if runner.failed:
                raise SystemExit(f"{workload} seed {seed}: {runner.failures}")
            reference.setdefault(workload, {})[str(seed)] = {
                name: digests.pop() for name, digests in runner.digests.items()
            }
    path = run.BENCH_DIR / "reference_digests.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
