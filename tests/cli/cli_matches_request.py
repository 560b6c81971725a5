#!/usr/bin/env python3
"""aqt-sim's command line and a RunRequest file are one job form.

Each leg runs aqt-sim from flags with --audit true (or an example request
with --request) and --replay-twice true, then runs the equivalent RunRequest
file (or the example itself) through `aqt-sim --batch`.  The determinism
hash the first prints must equal the trace_hash of the second's result
document, and both runs must pass their audit.

Usage: cli_matches_request.py AQT_SIM SOURCE_DIR WORK_DIR
"""

import json
import os
import re
import shutil
import subprocess
import sys

# (leg, aqt-sim flags, request fields).  Every request audits the constraint
# the flags audit: (w, r) for the windowed kinds, (b, r) for bucket, rate r
# for lps.
LEGS = [
    ("stochastic",
     "--topology grid:4x4 --protocol FIFO --adversary stochastic --w 12 "
     "--r 1/4 --d 3 --seed 5 --steps 2000",
     {"topology": "grid:4x4", "protocol": "FIFO", "seed": 5, "steps": 2000,
      "adversary": {"kind": "stochastic", "w": 12, "r": "1/4", "d": 3},
      "audit": {"w": 12, "r": "1/4"}}),
    ("hotspot",
     "--topology grid:5x5 --protocol LIS --adversary hotspot --w 10 "
     "--r 1/5 --d 4 --seed 2 --steps 2000",
     {"topology": "grid:5x5", "protocol": "LIS", "seed": 2, "steps": 2000,
      "adversary": {"kind": "hotspot", "w": 10, "r": "1/5", "d": 4},
      "audit": {"w": 10, "r": "1/5"}}),
    ("convoy",
     "--topology ring:16 --protocol NTG --adversary convoy --w 12 --r 1/3 "
     "--d 4 --steps 2000",
     {"topology": "ring:16", "protocol": "NTG", "seed": 1, "steps": 2000,
      "adversary": {"kind": "convoy", "w": 12, "r": "1/3", "d": 4},
      "audit": {"w": 12, "r": "1/3"}}),
    ("bucket",
     "--topology ring:8 --protocol NTG --adversary bucket --burst 2 "
     "--r 1/3 --d 6 --seed 3 --steps 2000",
     {"topology": "ring:8", "protocol": "NTG", "seed": 3, "steps": 2000,
      "adversary": {"kind": "bucket", "burst": 2, "r": "1/3", "d": 6},
      "audit": {"burst": 2, "r": "1/3"}}),
    ("lps",
     "--topology lps:9x8 --protocol FIFO --adversary lps --r 7/10 "
     "--iterations 1 --s-star 200 --steps 20000",
     {"topology": "lps:9x8", "protocol": "FIFO", "seed": 1, "steps": 20000,
      "adversary": {"kind": "lps", "r": "7/10", "iterations": 1,
                    "s_star": 200},
      "audit": {"r": "7/10"}}),
    ("random",
     "--topology grid:4x4 --protocol RANDOM --adversary stochastic --w 12 "
     "--r 1/4 --d 4 --seed 1 --steps 10000",
     {"topology": "grid:4x4", "protocol": "RANDOM", "seed": 1,
      "steps": 10000,
      "adversary": {"kind": "stochastic", "w": 12, "r": "1/4", "d": 4},
      "audit": {"w": 12, "r": "1/4"}}),
]
EXAMPLE = "ring_convoy"

HASH_LINE = re.compile(r"determinism: replay matched \(trace hash ([0-9a-f]{16})\)")


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL (exit {proc.returncode}): {' '.join(cmd)}\n"
                 f"{proc.stdout}{proc.stderr}")
    return proc.stdout


def cli_hash(sim, args):
    out = run([sim] + args + ["--replay-twice", "true"])
    match = HASH_LINE.search(out)
    if match is None:
        sys.exit(f"FAIL: no determinism line from {args}\n{out}")
    return match.group(1)


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sim, source, work = sys.argv[1:]
    batch = os.path.join(work, "jobs")
    results = os.path.join(work, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(batch)

    expected = {}
    for leg, flags, fields in LEGS:
        expected[leg] = cli_hash(sim, flags.split() + ["--audit", "true"])
        request = {"aqt_run_request": 1, "id": leg,
                   "artifacts": ["trace_hash"], **fields}
        with open(os.path.join(batch, leg + ".json"), "w") as f:
            json.dump(request, f)
    example = os.path.join(source, "examples", "requests", EXAMPLE + ".json")
    expected[EXAMPLE] = cli_hash(sim, ["--request", example])
    shutil.copy(example, batch)

    run([sim, "--batch", batch, "--results-dir", results])
    failed = False
    for leg, want in expected.items():
        with open(os.path.join(results, leg + ".json")) as f:
            got = json.load(f)["trace_hash"]
        verdict = "ok" if got == want else "MISMATCH"
        failed = failed or got != want
        print(f"{leg:12s} cli {want}  request {got}  {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
