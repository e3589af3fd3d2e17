#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed + 1,
...) for each workload (default: all of BENCHMARK.json), then prints, per
metric, the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median. A
spread at or above a third of the metric's bound is flagged; setup_s is
exempt, since its bound governs only the drift between two sets of runs.
Exits 1 if any run fails or any spread is flagged.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload} ({args.runs} seeds)")
        for m in spec["end_to_end"]:
            series = values[m["name"]]
            if len(series) < 2:
                continue
            spread = benchlib.spread(series)
            flagged = m["name"] != "setup_s" and spread >= m["bound"] / 3
            ok = ok and not flagged
            print(f"  {m['name']:20} median {benchlib.median(series):<14.6g}"
                  f" spread {spread:7.2%}  bound {m['bound']:.0%}"
                  f"{'  <-- too wide' if flagged else ''}")
            print("    " + " ".join(f"{v:.6g}" for v in series))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
