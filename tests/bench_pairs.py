"""Run ``bench/run.py`` in two checkouts as interleaved pairs and compare them.

    python tests/bench_pairs.py --parent ../parent-checkout --workload kink \\
        --seed 760674352 --pairs 10 --seconds 30 [--change .] [--write BENCH_n.json]

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one run at a time and each from its own root, so each
side measures its own ``src/``; the side that runs first alternates from pair
to pair.  ``--change`` defaults to the checkout holding this file.  The
end-to-end metrics, their better direction and their bounds are read from the
change's ``BENCHMARK.json``.  For each metric the script prints each side's
median and quartiles, the pairs in which the change read better, the change
median over the parent median against the bound, and whether the change is a
claimable gain: better in at least 9 of 10 pairs and better in the median by
more than the parent's interquartile distance.  ``--write`` adds every run and
that summary to a JSON file, under keys ``"<workload> seed <S> <metric>"``, so
one file can gather several workloads and seeds.  A run that reports a failed
check, or exits nonzero, stops the script.  Nothing is written into either checkout but what
``bench/run.py`` writes there itself (``.bench_out/``).  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (last stdout line) of one untraced ``bench/run.py`` run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: {result['failed']} of {result['attempted']} checks failed")
    return result


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles, wins and the claim and bound verdicts of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    q_parent = statistics.quantiles(parent, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (q_parent[1] - q_change[1])
    ratio = q_change[1] / q_parent[1] if q_parent[1] else float("nan")
    return {
        "parent": parent,
        "change": change,
        "parent_quartiles": q_parent,
        "change_quartiles": q_change,
        "parent_iqr": q_parent[2] - q_parent[0],
        "median_ratio": ratio,
        "change_better": wins,
        "pairs": len(parent),
        "claim_holds": wins >= 0.9 * len(parent) and gain > q_parent[2] - q_parent[0],
        "within_bound": sign * (ratio - 1.0) <= bound,
    }


def environment() -> dict:
    import numpy

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "cpu": models[0] if models else platform.processor()}


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, default=here, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--write", type=Path, help="JSON file for the runs and the summary")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, args.seed, args.seconds))
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.5g} -> "
            f"{runs['change'][-1]['metrics'][m['name']]['value']:.5g}" for m in spec),
            file=sys.stderr, flush=True)

    results = {}
    for m in spec:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES}
        results[m["name"]] = summarize(values["parent"], values["change"], m["better"], m["bound"])
        s = results[m["name"]]
        print(f"{args.workload} seed {args.seed} {m['name']}: parent median "
              f"{s['parent_quartiles'][1]:.5g} [{s['parent_quartiles'][0]:.5g}, "
              f"{s['parent_quartiles'][2]:.5g}], change median {s['change_quartiles'][1]:.5g} "
              f"[{s['change_quartiles'][0]:.5g}, {s['change_quartiles'][2]:.5g}], ratio "
              f"{s['median_ratio']:.4f} (bound {m['bound']}: "
              f"{'within' if s['within_bound'] else 'OUTSIDE'}), change better in "
              f"{s['change_better']}/{s['pairs']}, claimable gain: {s['claim_holds']}")
    if args.write:
        record = json.loads(args.write.read_text()) if args.write.exists() else {}
        record["environment"] = environment()
        record["method"] = ("tests/bench_pairs.py: interleaved pairs of bench/run.py --trace 0, "
                            "the side that runs first alternating; each result names its --seconds")
        for name, summary in results.items():
            key = f"{args.workload} seed {args.seed} {name}"
            record.setdefault("results", {})[key] = {"seconds": args.seconds, **summary}
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
