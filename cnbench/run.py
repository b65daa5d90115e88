#!/usr/bin/env python3
"""Build cnbench from source and run one benchmark workload.

Usage (from the repository root):

    python3 cnbench/run.py --workload <sweep-bus4|mesh16|solo-binlog> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

The build goes to $CARGO_TARGET_DIR/cnbench (default .bench_build/cnbench)
under the repository root; binlogs and span dumps go to its scratch/
subdirectory. Build output goes to stderr; stdout is the benchmark's own,
ending with the one-line JSON result. Exits non-zero without a result if
the build or the run fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cnbench")


def source_id():
    """Git commit when the root is a git checkout, plus a digest of src/."""
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, env=env, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return f"{commit}+src:{h.hexdigest()[:12]}"


def build(bdir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("cnbench: no simulator sources (src/) next to cnbench/")
    # Keep the compiler's temporary files (LTO partitions) in the tree.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("cnbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "cnbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("cnbench: build failed")


def main():
    bdir = build_dir()
    build(bdir)
    exe = os.path.join(bdir, "cnbench")
    args = [exe] + sys.argv[1:] + [
        "--scratch", os.path.join(bdir, "scratch"),
        "--commit", source_id(),
    ]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
