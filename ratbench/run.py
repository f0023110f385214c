#!/usr/bin/env python3
"""Build and run the ratsim benchmark (see README.md in this directory).

Run from the repository root:

    python3 ratbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ratbench/run.py --smoke

The benchmark binary is built from source with CMake into
$CARGO_TARGET_DIR/ratbench (default .bench_build/ratbench) on first use.
Build output goes to stderr, so the last line of stdout is the JSON
result. --smoke runs every workload of BENCHMARK.json at tiny lengths,
traced and untraced, and checks that each prints every metric it names
with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def check(cmd):
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        print(f"ratbench: {' '.join(cmd)} failed ({rc})", file=sys.stderr)
        sys.exit(rc if rc > 0 else 1)


def build():
    out = os.path.join(build_root(), "ratbench")
    if not os.path.exists(os.path.join(out, "Makefile")):
        check(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DRATSIM_LTO=ON"])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", out, "--target", "ratbench", "-j", jobs])
    return os.path.join(out, "ratbench")


def source_digest():
    """Hash of the simulator's sources: names the code a result measured."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "cmake"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def binary_args(binary):
    return [binary, "--repo", ROOT,
            "--out", os.path.join(build_root(), "ratbench-out"),
            "--commit", commit(), "--source-digest", source_digest()]


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{wl['name']} --trace {trace}"
            r = subprocess.run(binary_args(binary) + [
                "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"],
                capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append(f"{where}: exit {r.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: not correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append(f"{where}: {name} unit "
                                    f"{got.get(name)!r}, want "
                                    f"{want.get(name)!r}")
            for name, v in result["metrics"].items():
                if isinstance(v.get("value"), bool) or \
                        not isinstance(v.get("value"), (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            print(f"smoke {where}: {len(got)} metrics", file=sys.stderr)
    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.smoke:
        return smoke(binary)
    cmd = binary_args(binary) + ["--workload", args.workload,
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
