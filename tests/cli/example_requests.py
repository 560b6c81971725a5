#!/usr/bin/env python3
"""Every example request records, replays, verifies and matches the batch.

For each examples/requests/*.json:
  * `aqt-sim --request F --record-run T --replay-twice true --events E`
    exits 0: the run passes its audit and a second run from the same seed
    hashes byte-identically;
  * `aqt-verify` accepts every recorded trace;
  * `aqt-sim --batch examples/requests --results-dir R` exits 0, and each
    result document's trace_hash equals the footer hash of the recorded
    trace (one job form: --request and --batch run the same RunSpec);
  * ring_convoy's trace earns its Theorem 4.3 certificate
    (`aqt-verify --require-certificate true`).

Usage: example_requests.py AQT_SIM AQT_VERIFY SOURCE_DIR WORK_DIR
"""

import json
import os
import re
import shutil
import subprocess
import sys

DETERMINISM = re.compile(r"determinism: replay matched \(trace hash ([0-9a-f]{16})\)")


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL (exit {proc.returncode}): {' '.join(cmd)}\n"
                 f"{proc.stdout}{proc.stderr}")
    return proc.stdout


def footer_hash(trace):
    with open(trace, encoding="utf-8") as f:
        hashes = [line.split()[1] for line in f if line.startswith("hash ")]
    if len(hashes) != 1:
        sys.exit(f"FAIL: {trace} has {len(hashes)} footer hash lines")
    return hashes[0]


def main():
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    sim, verify, source, work = sys.argv[1:]
    requests = os.path.join(source, "examples", "requests")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    names = sorted(f[:-len(".json")] for f in os.listdir(requests)
                   if f.endswith(".json"))
    if not names:
        sys.exit(f"FAIL: no example requests in {requests}")
    traces = []
    for name in names:
        trace = os.path.join(work, name + ".trace")
        events = os.path.join(work, name + ".events.jsonl")
        out = run([sim, "--request", os.path.join(requests, name + ".json"),
                   "--record-run", trace, "--replay-twice", "true",
                   "--events", events])
        if DETERMINISM.search(out) is None:
            sys.exit(f"FAIL: no determinism line for {name}\n{out}")
        if os.path.getsize(events) == 0:
            sys.exit(f"FAIL: {name} wrote no events")
        traces.append(trace)
    run([verify] + traces)

    results = os.path.join(work, "batch")
    run([sim, "--batch", requests, "--results-dir", results])
    failed = False
    for name in names:
        recorded = footer_hash(os.path.join(work, name + ".trace"))
        with open(os.path.join(results, name + ".json"),
                  encoding="utf-8") as f:
            batch = json.load(f)["trace_hash"]
        verdict = "ok" if recorded == batch else "MISMATCH"
        failed = failed or recorded != batch
        print(f"{name:18s} recorded {recorded}  batch {batch}  {verdict}")

    cert = os.path.join(work, "ring_convoy.cert")
    run([verify, "--require-certificate", "true", "--certificate", cert,
         os.path.join(work, "ring_convoy.trace")])
    with open(cert, encoding="utf-8") as f:
        if "verdict: VERIFIED" not in f.read():
            sys.exit("FAIL: ring_convoy's certificate is not VERIFIED")
    print("ring_convoy: Theorem 4.3 certificate VERIFIED")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
