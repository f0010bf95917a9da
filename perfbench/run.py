#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload offline-branchy --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/main.exe with dune
(into $CARGO_TARGET_DIR when set, else _build), runs it with a private
work directory inside the checkout, relays its output and exits with its
status. The last line of standard output is the JSON result; a failed
build prints no result and exits non-zero.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["offline-branchy", "serve-fleet", "offline-churn"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def commit_id(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("BENCH_COMMIT", "unknown")


def flambda():
    """The compiler's flambda setting, as ocamlopt reports it."""
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config-var", "flambda"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", build_dir,
                "./perfbench/main.exe"],
        capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    if build.returncode != 0 or not os.path.exists(exe):
        sys.stderr.write(build.stdout + build.stderr)
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Relative paths keep the daemon's Unix socket path short.
    work = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--commit", commit_id(root),
           "--flambda", flambda()]
    if args.trace:
        os.makedirs(".perfbench_out", exist_ok=True)
        cmd += ["--spans",
                os.path.join(".perfbench_out", "spans-%s.jsonl" % args.workload)]
    env = dict(os.environ, TMPDIR=os.path.abspath(work))
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stderr or b"").decode(errors="replace")
                         if isinstance(e.stderr, bytes) else (e.stderr or ""))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
