#!/usr/bin/env python3
"""Build the ccsl benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 20 --trace 0

The benchmark program (perfbench/ccsl_perf.ml) is built with dune, run
once, and its standard output is passed through.  The last line is one
JSON object with the keys correct, attempted, failed and metrics.  When
the build or the run fails, the exit status is non-zero and no result is
printed.  perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = "./perfbench/ccsl_perf.exe"
EXE = ROOT / "_build" / "default" / "perfbench" / "ccsl_perf.exe"
WORKLOADS = ("fig7", "tree-search", "health-profiled")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, stdout):
    """Run cmd from the repository root in its own process group.

    On timeout the whole group is killed and reaped before
    TimeoutExpired propagates, so no process outlives the benchmark."""
    # dune's shared cache lives outside the checkout; keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def revision():
    """The git commit when there is one, plus a digest of the sources,
    which identifies the program in a checkout without git metadata."""
    digest = hashlib.sha256()
    sources = [ROOT / "dune-project"]
    for top in ("lib", "perfbench"):
        sources += sorted(
            p for p in (ROOT / top).rglob("*")
            if p.is_file() and (p.suffix in (".ml", ".mli")
                                or p.name in ("dune", "dune-project")))
    for p in sources:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    rev = "src-" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            code, out = run(["git", "rev-parse", "--short=12", "HEAD"], 30,
                            subprocess.PIPE)
            if code == 0:
                rev = "git-" + out.decode().strip() + " " + rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        code, _ = run(["dune", "build", "--root", ".", TARGET],
                      BUILD_TIMEOUT_S, sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if code != 0:
        sys.exit(f"perfbench: build failed (dune exit status {code})")

    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision(), "--out", "perfbench/out"]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: run failed: {e}")
    lines = out.decode().splitlines()
    if code != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.exit(f"perfbench: benchmark exited with status {code}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.exit("perfbench: the benchmark printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
