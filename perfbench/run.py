#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built with CMake from
perfbench/CMakeLists.txt (library sources from src/, nothing else) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; the build is
incremental. Build output goes to standard error; standard output carries
the binary's report, whose last line is the JSON result. Traced runs also
write spans and per-layer JSON under .bench_build/perfbench-out/.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("leaf-fill", "stack-mixed", "tiered-cold", "serve-loopback")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no compiler or benchmark process outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources at %s/src" % ROOT, file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "vcf_perfbench",
                  "-j", jobs])
    for step in steps:
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the binary is built from."""
    try:
        code, out = run_group(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                               "HEAD"], 10, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if code == 0 and out.strip():
            return out.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and ".bench_build" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    base = build_dir()
    bdir = base / "perfbench"
    if not build(bdir):
        return 1
    cmd = [str(bdir / "vcf_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id(),
           "--out_dir", str(base / "perfbench-out")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.decode(errors="replace").rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        print("perfbench: vcf_perfbench exited with %d" % code, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as e:
        sys.stderr.write("\n".join(lines) + "\n")
        print("perfbench: no JSON result (%s)" % e, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
