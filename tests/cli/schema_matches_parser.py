#!/usr/bin/env python3
"""The RunRequest schema bans what the request parser bans.

For every adversary kind in schemas/run_request.schema.json and every
adversary parameter the schema knows, a request of that kind carrying that
parameter goes through `aqt-sim --batch`.  Each (kind, key) pair the C++
parser rejects with SRV005 must also be rejected by
scripts/validate_run_request.py, and by the `jsonschema` package when it can
be imported (standard JSON Schema meaning).  Each pair the parser accepts
must pass both validators, and so must the example requests.  The scripted
kind's events get the same treatment: each event shape the parser rejects
(SRV003, SRV004, SRV005) the schema rejects, and each it accepts the schema
accepts.

Usage: schema_matches_parser.py AQT_SIM SOURCE_DIR WORK_DIR
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

# A valid adversary object per kind, and a valid value for every parameter.
BASES = {
    "none": {"kind": "none"},
    "stochastic": {"kind": "stochastic", "w": 8, "r": "1/4", "d": 3},
    "hotspot": {"kind": "hotspot", "w": 8, "r": "1/4", "d": 3},
    "convoy": {"kind": "convoy", "w": 8, "r": "1/4", "d": 3},
    "bucket": {"kind": "bucket", "burst": 2, "r": "1/3", "d": 3},
    "lps": {"kind": "lps", "r": "7/10", "iterations": 1, "s_star": 200},
    "scripted": {"kind": "scripted", "events": []},
}
VALUES = {"w": 8, "r": "1/4", "d": 3, "burst": 2, "iterations": 1,
          "s_star": 200, "events": []}

# Scripted event lists on grid:3x3, each with whether the parser accepts it.
INJECT = {"t": 1, "route": ["h0_0", "h0_1"], "tag": 4}
REROUTE = {"t": 2, "packet": 0, "suffix": ["d0_2"]}
EVENT_CASES = [
    ("injection and reroute", [INJECT, REROUTE], True),
    ("injection without tag", [{"t": 1, "route": ["h0_0"]}], True),
    ("route and packet", [dict(INJECT, packet=0)], False),
    ("reroute with tag", [INJECT, dict(REROUTE, tag=1)], False),
    ("reroute without suffix", [INJECT, {"t": 2, "packet": 0}], False),
    ("no t", [{"route": ["h0_0"]}], False),
    ("t = 0", [dict(INJECT, t=0)], False),
    ("empty route", [dict(INJECT, route=[])], False),
    ("empty edge name", [dict(INJECT, route=[""])], False),
    ("negative packet", [INJECT, dict(REROUTE, packet=-1)], False),
    ("unknown event key", [dict(INJECT, when=3)], False),
    ("event not an object", [3], False),
]
SHAPE_CODES = ("SRV003", "SRV004", "SRV005")


def request(adversary):
    return {"aqt_run_request": 1,
            "topology": "lps:9x2" if adversary["kind"] == "lps" else "grid:3x3",
            "protocol": "FIFO", "adversary": adversary, "steps": 5}


def load_validator(source_dir):
    path = os.path.join(source_dir, "scripts", "validate_run_request.py")
    spec = importlib.util.spec_from_file_location("validate_run_request", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    aqt_sim, source_dir, work = argv[1:]
    with open(os.path.join(source_dir, "schemas", "run_request.schema.json"),
              encoding="utf-8") as f:
        schema = json.load(f)
    repo = load_validator(source_dir)
    try:
        import jsonschema  # Optional: not every host has it.
        standard = jsonschema.Draft7Validator(schema)
    except ImportError:
        standard = None
        print("note: jsonschema not importable; checking the repo's "
              "validator only")

    def verdicts(doc):
        mine = not repo.validate(doc, schema, schema, path="", errors=[])
        theirs = None if standard is None else standard.is_valid(doc)
        return mine, theirs

    adversary = schema["definitions"]["adversary"]
    kinds = adversary["properties"]["kind"]["enum"]
    keys = [k for k in adversary["properties"] if k != "kind"]
    assert sorted(kinds) == sorted(BASES), kinds
    assert sorted(keys) == sorted(VALUES), keys

    shutil.rmtree(work, ignore_errors=True)
    failures = []
    banned = 0
    for kind in kinds:
        for key in keys:
            if key in BASES[kind]:
                continue
            adv = dict(BASES[kind])
            adv[key] = VALUES[key]
            doc = request(adv)
            cell = os.path.join(work, f"{kind}_{key}")
            os.makedirs(cell)
            with open(os.path.join(cell, "request.json"), "w",
                      encoding="utf-8") as f:
                json.dump(doc, f)
            run = subprocess.run([aqt_sim, "--batch", cell],
                                 capture_output=True, text=True)
            rejected = "SRV005" in run.stdout + run.stderr
            if not rejected and run.returncode != 0:
                failures.append(f"{kind}+{key}: aqt-sim failed without "
                                f"SRV005: {run.stdout}{run.stderr}")
                continue
            mine, theirs = verdicts(doc)
            want = not rejected
            banned += rejected
            if mine != want:
                failures.append(f"{kind}+{key}: parser "
                                f"{'rejects' if rejected else 'accepts'}, "
                                f"validate_run_request.py does not agree")
            if theirs is not None and theirs != want:
                failures.append(f"{kind}+{key}: parser "
                                f"{'rejects' if rejected else 'accepts'}, "
                                f"jsonschema does not agree")
    if banned == 0:
        failures.append("the parser rejected no (kind, key) pair")

    for i, (label, events, accepts) in enumerate(EVENT_CASES):
        doc = request({"kind": "scripted", "events": events})
        cell = os.path.join(work, f"events_{i}")
        os.makedirs(cell)
        with open(os.path.join(cell, "request.json"), "w",
                  encoding="utf-8") as f:
            json.dump(doc, f)
        run = subprocess.run([aqt_sim, "--batch", cell],
                             capture_output=True, text=True)
        out = run.stdout + run.stderr
        rejected = any(code in out for code in SHAPE_CODES)
        if rejected == accepts or (accepts and run.returncode != 0):
            failures.append(f"events ({label}): parser expected to "
                            f"{'accept' if accepts else 'reject'}: {out}")
            continue
        mine, theirs = verdicts(doc)
        if mine != accepts:
            failures.append(f"events ({label}): parser "
                            f"{'accepts' if accepts else 'rejects'}, "
                            f"validate_run_request.py does not agree")
        if theirs is not None and theirs != accepts:
            failures.append(f"events ({label}): parser "
                            f"{'accepts' if accepts else 'rejects'}, "
                            f"jsonschema does not agree")

    examples = os.path.join(source_dir, "examples", "requests")
    for name in sorted(os.listdir(examples)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(examples, name), encoding="utf-8") as f:
            doc = json.load(f)
        mine, theirs = verdicts(doc)
        if not mine or theirs is False:
            failures.append(f"example {name} fails the schema")

    for failure in failures:
        print("FAIL", failure)
    print(f"{banned} banned (kind, key) pairs and {len(EVENT_CASES)} event "
          f"shapes checked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
