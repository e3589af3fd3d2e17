#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the fountain library and the
perfbench binary from that checkout in Release mode (into the directory
$CARGO_TARGET_DIR names, default .bench_build), runs one workload of
BENCHMARK.json, checks its outputs, prints every metric with its unit, and
prints the result as one JSON object on the last line of standard output.
--trace 0 reports the end-to-end metrics of an undecorated run, --trace 1
the per-layer metrics of a traced run; the traced run's spans are written
to <build dir>/spans/.

Exit status: 0 when every output was correct; 1 when a check failed, the
build failed or the binary crashed; 2 for bad arguments, an invalid
BENCHMARK.json, a non-Release build or a forced kernel tier.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"run.py: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    errors = benchlib.validate_spec(spec)
    if errors:
        print("run.py: invalid BENCHMARK.json:\n  " + "\n  ".join(errors),
              file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("run.py: --seconds must be positive, --seed non-negative",
              file=sys.stderr)
        return 2

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    spans = build_dir() / "spans"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}"
                                             ".jsonl")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    try:
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        print(f"run.py: unreadable perfbench output: {e}", file=sys.stderr)
        return 1

    result, info, problems = benchlib.summarize(spec, raw, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32} {metric['value']:<24.10g} {metric['unit']}")
    for name, value, unit in info:
        shown = (f"{value:<24.10g}" if isinstance(value, (int, float))
                 else value)
        print(f"  {name:32} {shown} {unit}".rstrip())
    for problem in problems:
        print(f"  WRONG: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
