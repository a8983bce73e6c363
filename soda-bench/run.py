#!/usr/bin/env python3
"""soda-bench entry point: builds the engine and the benchmark program from
source, then runs one workload.

    python3 soda-bench/run.py --workload analytics|iterate|sql_mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under soda-bench/, result and span files under
soda-bench/runs/ there. The last line of standard output is the result as
one JSON object {correct, attempted, failed, metrics}; the exit code is 0 only
when every statement succeeded and every check passed. README.md explains
the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics", "iterate", "sql_mix")


def fail(msg):
    print("soda-bench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git commit when the tree is a repository, else a hash of the sources."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "soda-bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            fail("refusing a sanitizer build (%s contains -fsanitize): timings "
                 "of an instrumented build mean nothing" % var)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "soda_bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true",
                   help="self-test input sizes")
    p.add_argument("--inject-wrong", action="store_true",
                   help="perturb every expected value (self-test)")
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "soda-bench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "runs"),
           "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
