#!/usr/bin/env python3
"""Validate RunRequest JSON files against schemas/run_request.schema.json.

The sibling of validate_trace_event.py: a deliberately minimal,
dependency-free checker (stdlib json/re only — CI must not pip install
anything).  It hand-implements exactly the schema constructs that schema
file uses (required/additionalProperties/enum/const/type/minimum/maximum/
minLength/maxLength/minItems/pattern/not, boolean schemas and the per-kind
adversary and per-event if/then conditionals) with their standard JSON Schema meaning, and fails
loudly if the schema ever grows a construct it does not know.

Usage: validate_run_request.py REQUEST.json [REQUEST.json ...]
Exit codes: 0 = all valid, 1 = validation failure, 2 = usage/IO error.
"""

import json
import os
import re
import sys

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "schemas",
    "run_request.schema.json")

# The schema constructs this validator implements.  Anything else in the
# schema file is a hard error, so the schema and validator cannot drift
# silently.
KNOWN_KEYS = {
    "$schema", "$id", "$ref", "title", "description", "type", "required",
    "additionalProperties", "properties", "items", "enum", "const",
    "definitions", "allOf", "if", "then", "not", "minimum", "maximum",
    "minLength", "maxLength", "minItems", "pattern",
}

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
}


class SchemaError(Exception):
    """The schema uses a construct this validator does not implement."""


def resolve(schema, root):
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise SchemaError(f"non-local $ref {ref!r}")
        node = root
        for part in ref[2:].split("/"):
            node = node[part]
        return node
    return schema


def check_known(schema):
    unknown = set(schema) - KNOWN_KEYS
    if unknown:
        raise SchemaError(f"unimplemented schema keys: {sorted(unknown)}")


def matches(value, schema, root):
    """True when `value` satisfies `schema` (no error message needed)."""
    return not validate(value, schema, root, path="", errors=None)


def validate(value, schema, root, path, errors):
    """Appends error strings to `errors` (or returns a bool when None)."""
    local_errors = [] if errors is None else errors
    if isinstance(schema, bool):
        # `false` accepts nothing: how the schema bans a key for one kind.
        if not schema:
            local_errors.append(f"{path or '$'}: not allowed here")
        return local_errors if errors is None else errors
    schema = resolve(schema, root)
    check_known(schema)

    def fail(message):
        local_errors.append(f"{path or '$'}: {message}")

    if "const" in schema and value != schema["const"]:
        fail(f"expected {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} not in {schema['enum']}")
    if "type" in schema:
        if schema["type"] not in TYPE_CHECKS:
            raise SchemaError(f"unimplemented type {schema['type']!r}")
        if not TYPE_CHECKS[schema["type"]](value):
            fail(f"expected {schema['type']}, got {type(value).__name__}")
            return local_errors if errors is None else errors
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            fail(f"{value} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            fail(f"{value} > maximum {schema['maximum']}")
    if isinstance(value, str):
        if "minLength" in schema and len(value) < schema["minLength"]:
            fail(f"length {len(value)} < minLength {schema['minLength']}")
        if "maxLength" in schema and len(value) > schema["maxLength"]:
            fail(f"length {len(value)} > maxLength {schema['maxLength']}")
        if "pattern" in schema and not re.search(schema["pattern"], value):
            fail(f"{value!r} does not match pattern {schema['pattern']!r}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                fail(f"missing required property {key!r}")
        if schema.get("additionalProperties") is False:
            allowed = set(schema.get("properties", {}))
            for key in set(value) - allowed:
                fail(f"unexpected property {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, root, f"{path}.{key}", local_errors)

    if isinstance(value, list) and len(value) < schema.get("minItems", 0):
        fail(f"{len(value)} items < minItems {schema['minItems']}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], root, f"{path}[{i}]",
                     local_errors)

    if "not" in schema and matches(value, schema["not"], root):
        fail(f"matches the excluded shape {json.dumps(schema['not'])}")

    for clause in schema.get("allOf", []):
        check_known(clause)
        if "if" in clause:
            if matches(value, clause["if"], root) and "then" in clause:
                validate(value, clause["then"], root, path, local_errors)
        else:
            validate(value, clause, root, path, local_errors)

    return local_errors if errors is None else errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SCHEMA_PATH, encoding="utf-8") as f:
        schema = json.load(f)

    failed = False
    for request_path in argv[1:]:
        try:
            with open(request_path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"FAIL {request_path}: {e}")
            return 2
        errors = validate(doc, schema, schema, path="", errors=[])
        if errors:
            failed = True
            print(f"FAIL {request_path}: {len(errors)} violation(s)")
            for err in errors[:20]:
                print(f"  {err}")
        else:
            kind = doc.get("adversary", {}).get("kind", "?")
            print(f"ok {request_path}: {kind} on {doc.get('topology', '?')}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
