#!/usr/bin/env python3
"""Build the aqt benchmark harness from source and run one workload.

    python3 aqtbench/run.py --workload grid_stochastic --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds the aqt
libraries and the harness (Release + IPO) into .bench_build/; later calls
only re-check the build.  Build output goes to stderr, so the last line of
stdout is the harness's JSON result.  The exit code is the harness's:
0 when every output check passed, 1 when one failed, 2 on bad usage or a
failed build.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "aqtbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "aqt_bench"


def fail(message):
    print(f"aqtbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no aqt sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", str(BUILD), "--target", "aqt_bench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "aqtbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid_stochastic", "lps_construction",
                                 "served_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--short", choices=["0", "1"], default="0",
                        help="self-test length: one job per workload")
    parser.add_argument("--corrupt-check", choices=["0", "1"], default="0",
                        help="self-test hook: corrupt one expected output")
    args = parser.parse_args()
    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--short", args.short, "--corrupt-check", args.corrupt_check,
           "--commit", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
