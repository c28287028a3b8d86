#!/usr/bin/env python3
"""Builds and runs the benchmark.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The traced run
(--trace 1) writes its spans under the build directory's traces/.

Exit status: the benchmark's own (0 only when every answer checked out),
or 2 when the build fails, without printing a result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_stamp():
    """The git sha when the checkout is a git repository, otherwise a
    digest of the library and benchmark sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          env=env).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, env=env).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    try:
        ok = build(build_dir)
    except OSError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        ok = False
    if not ok:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--out-dir", traces, "--git-sha", source_stamp()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
