"""Helpers of the repository benchmark: statistics, the BENCHMARK.json
schema, and the reduction of one perfbench run's raw output to metrics.

Kept free of I/O so perfbench/test_benchlib.py can test every rule:

    python3 -m unittest discover -s perfbench
"""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_.\-/]{1,200}")

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_BOUND = 0.25
TAIL_BEYOND = 10
TAIL_CAP = 90


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail(values, beyond=TAIL_BEYOND, cap=TAIL_CAP):
    """The highest percentile, at most `cap`, with at least `beyond` samples
    above it.

    Returns (value, percentile, sample count), or None when there are too
    few samples for any such percentile. With n sorted samples the value of
    rank r (1-based) has n - r samples above it, so the answer is rank
    min(n - beyond, ceil(cap / 100 * n)). Ties count as samples above: a
    rank's position, not its value, decides.

    The cap keeps the estimate off the last few samples of long-tailed
    runs: past p90, the tail of 240 UDP joins (a few need 20-68 decode
    attempts) spread by more than any allowed bound from run to run."""
    n = len(values)
    if n <= beyond:
        return None
    rank = min(n - beyond, math.ceil(cap * n / 100))
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def _valid_path(path):
    return (isinstance(path, str) and PATH_RE.fullmatch(path) is not None
            and not path.startswith("/")
            and ".." not in path.split("/"))


def _exact_keys(entry, keys, where, errors):
    if not isinstance(entry, dict) or set(entry) != set(keys):
        errors.append(f"{where}: needs exactly the keys {sorted(keys)}")
        return False
    return True


def validate_spec(spec):
    """Every way `spec` (parsed BENCHMARK.json) breaks the benchmark
    contract; an empty list means it is valid."""
    errors = []
    if not _exact_keys(spec, TOP_KEYS, "BENCHMARK.json", errors):
        return errors

    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and 0 < len(c) <= 200
                       for c in command)):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in arg.split("/"):
                errors.append(f"command: '{arg}' leaves the checkout")

    paths = spec["paths"]
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16
            or not all(_valid_path(p) for p in paths)):
        errors.append("paths: 1 to 16 relative paths of letters, digits, "
                      "_ . - /")

    seconds = spec["run_seconds"]
    if (not isinstance(seconds, int) or isinstance(seconds, bool)
            or not 1 <= seconds <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")

    names = []
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads: 2 to 8 entries")
    else:
        for i, w in enumerate(workloads):
            if not _exact_keys(w, {"name", "why"}, f"workloads[{i}]", errors):
                continue
            names.append(w["name"])
            why = w["why"]
            if (not isinstance(why, str) or not why or len(why) > 200
                    or "\n" in why):
                errors.append(f"workloads[{i}].why: one line of at most "
                              "200 characters")

    for section, keys, low, high in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
            ("per_layer", {"name", "unit", "better"}, 1, 128)):
        metrics = spec[section]
        if not isinstance(metrics, list) or not low <= len(metrics) <= high:
            errors.append(f"{section}: {low} to {high} metrics")
            continue
        for i, m in enumerate(metrics):
            where = f"{section}[{i}]"
            if not _exact_keys(m, keys, where, errors):
                continue
            names.append(m["name"])
            if not valid_unit(m["unit"]):
                errors.append(f"{where}.unit: invalid unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{where}.better: 'lower' or 'higher'")
            if "bound" in keys:
                bound = m["bound"]
                if (isinstance(bound, bool)
                        or not isinstance(bound, (int, float))
                        or not 0 < bound <= MAX_BOUND):
                    errors.append(f"{where}.bound: above 0, at most "
                                  f"{MAX_BOUND}")

    for name in names:
        if not valid_name(name):
            errors.append(f"invalid name {name!r}")
    if len(set(names)) != len(names):
        errors.append("names must be unique")
    if isinstance(spec["end_to_end"], list) and not any(
            isinstance(m, dict) and m.get("name") == "setup_s"
            and m.get("unit") == "s" and m.get("better") == "lower"
            for m in spec["end_to_end"]):
        errors.append("end_to_end: needs setup_s in s, lower is better")
    return errors


def summarize(spec, raw, trace):
    """Reduces one perfbench run's raw output to the result line.

    Returns (result, info, problems): `result` has exactly the keys
    correct, attempted, failed and metrics; `info` lists (name, value, unit)
    rows of the run's other figures for the human-readable report;
    `problems` says why the run is not correct, if it is not.

    End-to-end metrics are setup_s (median of the run's set-ups),
    rebuild_s_p50 and rebuild_s_tail (median and tail() of the rebuild
    samples), and named values the binary reports. Per-layer metrics are
    named values; a per-layer metric of a layer the workload never calls
    reads 0. Any failed check, missing or non-finite metric, or
    non-positive end-to-end metric makes the run incorrect."""
    problems = list(raw.get("failures", []))
    values = dict(raw.get("values", {}))
    samples = raw.get("samples", {})
    info = []

    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in values:
        if "." in name and name not in known:
            problems.append(f"binary reported unknown per-layer metric {name}")

    rebuild = samples.get("rebuild_s", [])
    if samples.get("setup_s"):
        values["setup_s"] = median(samples["setup_s"])
    if rebuild:
        values["rebuild_s_p50"] = median(rebuild)
        t = tail(rebuild)
        if t is not None:
            values["rebuild_s_tail"] = t[0]
            info.append(("rebuild_s_tail.percentile", t[1], "%"))
        info.append(("rebuild_s.samples", len(rebuild), "count"))

    metrics = {}
    section = spec["per_layer"] if trace else spec["end_to_end"]
    for m in section:
        name = m["name"]
        if name in values:
            v = values.pop(name)
        elif trace:
            v = 0.0
        else:
            problems.append(f"metric {name} was not measured")
            continue
        if v is None or not math.isfinite(v):
            problems.append(f"metric {name} is not a finite number")
            continue
        if not trace and v <= 0:
            problems.append(f"metric {name} is {v}, not positive")
        metrics[name] = {"value": v, "unit": m["unit"]}

    for name in sorted(values):
        info.append((name, values[name], ""))
    for name, text in sorted(raw.get("notes", {}).items()):
        info.append((name, text, ""))

    attempted = int(raw.get("attempted", 0))
    failed = int(raw.get("failed", 0))
    if attempted < 1:
        problems.append("nothing was attempted")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    result = {"correct": not problems, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    return result, info, problems
