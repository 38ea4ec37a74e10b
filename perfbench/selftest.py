#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

It checks, in about a minute:

* every workload runs at the tiny size, untraced and traced, with every
  output correct, and prints exactly the metric names and units that
  ``BENCHMARK.json`` declares;
* a deliberately wrong reference digest for each workload shows up as a
  failed operation (``correct`` false, ``failed`` at least 1);
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
  program), the benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN = os.path.join("perfbench", "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

#: one reference entry per workload, corrupted for the wrong-digest check
CORRUPTIONS = {
    "tutmac_sim": ("sim/tutmac@20000", "tutlog_sha256"),
    "corpus_sim": ("sim/corpus-0@20000", "events"),
    "tutmac_sweep": ("sweep/tiny/cold", "ranking_sha256"),
    "lint_models": ("lint/tutmac", None),
}


def run_bench(workload, trace=0, reference=None, cwd=ROOT):
    """(exit code, parsed last stdout line or None, stderr tail)."""
    command = [sys.executable, RUN, "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if reference is not None:
        command += ["--reference", reference]
    completed = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                               timeout=170)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return completed.returncode, result, completed.stderr[-2000:]


def check_shape(result, declared, problems, label):
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        problems.append(f"{label}: last line is not a result object: {result!r}")
        return
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{label}: {key} is not a whole number")
    if result["attempted"] < 1:
        problems.append(f"{label}: attempted < 1")
    metrics = result["metrics"]
    expected = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(expected):
        problems.append(f"{label}: metric names {sorted(metrics)} != {sorted(expected)}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            problems.append(f"{label}: {name} value {value!r} is not a number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [entry["name"] for entry in spec["workloads"]]
    problems = []

    for workload in workloads:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, result, stderr = run_bench(workload, trace)
            if code != 0:
                problems.append(f"{label}: exit code {code}\n{stderr}")
                continue
            check_shape(result, declared, problems, label)
            if result and not (result.get("correct") and result.get("failed") == 0):
                problems.append(f"{label}: outputs do not match the reference: {result}")
            if trace == 0 and result:
                for name, entry in result["metrics"].items():
                    if not entry["value"] > 0:
                        problems.append(f"{label}: end-to-end {name} is not positive")
        print(f"ok: {workload} runs and reports every declared metric", flush=True)

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    for workload in workloads:
        key, field = CORRUPTIONS[workload]
        wrong = json.loads(json.dumps(reference))
        if field is None:
            wrong[key] = wrong[key] + ["X000 deliberately wrong"]
        elif isinstance(wrong[key][field], int):
            wrong[key][field] += 1
        else:
            wrong[key][field] = "0" * len(wrong[key][field])
        path = os.path.join(OUT, f"selftest-wrong-{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(wrong, handle)
        code, result, stderr = run_bench(workload, reference=path)
        os.unlink(path)
        if code != 0 or result is None:
            problems.append(f"{workload} wrong reference: exit {code}\n{stderr}")
        elif result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: wrong reference digest not reported: {result}")
        else:
            print(f"ok: {workload} reports a wrong {key} as {result['failed']} failed",
                  flush=True)

    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, result, _ = run_bench(workloads[0], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append(f"without the program: exit {code}, result {result!r}")
    else:
        print(f"ok: without the program the benchmark exits {code} and prints no result")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
