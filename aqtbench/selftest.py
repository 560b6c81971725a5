#!/usr/bin/env python3
"""Behavioural self-test of the aqt benchmark.

    python3 aqtbench/selftest.py

Runs every workload once at self-test length, untraced and traced, and
asserts that:
  * the run passes its output checks and prints, as its last line, every
    metric BENCHMARK.json names for that mode, with BENCHMARK.json's unit;
  * every end-to-end metric is a positive number;
  * every traced job's layer spans sum to its traced wall time within the
    tolerance the harness states (re-checked here from its layer-sum lines);
  * a deliberately corrupted expected output makes the run fail (exit 1,
    "correct": false);
  * without the aqt sources the benchmark refuses to run and prints no
    result.
Exits 0 when everything holds, 1 otherwise.
"""
import json
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_SUM = re.compile(r"^note layer-sum (.*): wall (\S+) s, spans (\S+) s, "
                       r"tolerance (\S+) s$")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "aqtbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--short", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, lines, result


def expect_metrics(workload, result, spec_key):
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = result["metrics"]
    check(set(got) == set(want),
          f"{workload} {spec_key}: metric names match BENCHMARK.json"
          + ("" if set(got) == set(want)
             else f" (missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))})"))
    for name, unit in want.items():
        if name in got:
            check(got[name]["unit"] == unit
                  and isinstance(got[name]["value"], (int, float)),
                  f"{workload} {name} is a number in {unit}")


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        proc, _, result = run(w, "--trace", "0")
        check(proc.returncode == 0 and result and result["correct"],
              f"{w} untraced run passes its output checks")
        if result:
            expect_metrics(w, result, "end_to_end")
            check(all(m["value"] > 0 for m in result["metrics"].values()),
                  f"{w} end-to-end metrics are all positive")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{w} attempted >= 1, failed == 0")

        proc, lines, result = run(w, "--trace", "1")
        check(proc.returncode == 0 and result and result["correct"],
              f"{w} traced run passes its output checks")
        if result:
            expect_metrics(w, result, "per_layer")
        sums = [LAYER_SUM.match(line) for line in lines]
        sums = [m for m in sums if m]
        check(len(sums) > 0, f"{w} traced run reports its layer sums")
        for m in sums:
            wall, spans, tol = (float(m.group(i)) for i in (2, 3, 4))
            check(abs(wall - spans) <= tol,
                  f"{w} {m.group(1)}: spans {spans:.6f} s cover wall "
                  f"{wall:.6f} s within {tol:.6f} s")

        proc, lines, result = run(w, "--trace", "0", "--corrupt-check", "1")
        check(proc.returncode == 1 and result is not None
              and result["correct"] is False
              and any(line.startswith("FAILED ") for line in lines),
              f"{w} fails when an expected output is corrupted")

    # The benchmark alone, without the sources it builds, must refuse.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "aqtbench", bare / "aqtbench")
    proc, _, result = run(workloads[0], "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and result is None,
          "without the aqt sources the benchmark exits nonzero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
