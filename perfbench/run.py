#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload table1|serve-hot|serve-cold|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the benchmark
(perfbench/ocaml) and the `grip` CLI from source in a dune workspace of
its own under .bench_build/ (a copy of dune-project, lib/, bin/ and
perfbench/ocaml), so the repository's `dune build` never builds the
benchmark; the build is reused while those sources are unchanged.
Then it runs the workload and relays its output, whose last line is
the JSON result.  `--workload all` runs the three workloads in turn
and ends with one combined result line.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["table1", "serve-hot", "serve-cold"]
BUILD = ".bench_build"
WS = os.path.join(BUILD, "ws")
# checkout path -> workspace path
SOURCES = {
    "dune-project": "dune-project",
    "lib": "lib",
    "bin": "bin",
    os.path.join("perfbench", "ocaml"): "perfbench",
}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    for src in SOURCES:
        if not os.path.exists(src):
            fail(f"{src} not found: run from the root of a checkout of the repository")
        if os.path.isfile(src):
            yield src
            continue
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for name in sorted(filenames):
                yield os.path.join(dirpath, name)


def ws_path(path):
    for src, dst in SOURCES.items():
        if path == src or path.startswith(src + os.sep):
            return os.path.join(WS, dst + path[len(src):])
    raise ValueError(path)


def tmp_dir():
    path = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(path, exist_ok=True)
    return path


def build():
    files = list(source_files())
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.encode() + b"\0")
        with open(f, "rb") as fh:
            digest.update(fh.read() + b"\0")
    stamp = digest.hexdigest()
    exe = os.path.join(WS, "_build", "default", "perfbench", "gripbench.exe")
    cli = os.path.join(WS, "_build", "default", "bin", "grip_cli.exe")
    stamp_file = os.path.join(WS, "stamp")
    if os.path.exists(exe) and os.path.exists(cli) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return exe, cli
    for dst in SOURCES.values():
        shutil.rmtree(os.path.join(WS, dst), ignore_errors=True)
        if os.path.isfile(os.path.join(WS, dst)):
            os.remove(os.path.join(WS, dst))
    for f in files:
        dst = ws_path(f)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(f, dst)
    # the shared dune cache and the compilers' temporary files would
    # otherwise go outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp_dir())
    built = subprocess.run(
        [dune, "build", "--root", WS, "./perfbench/gripbench.exe", "./bin/grip_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if built.returncode != 0:
        fail("build failed")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return exe, cli


def stop_group(pgid):
    """Kill whatever is left in the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(exe, cli, workload, args):
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--out", out]
    env = dict(os.environ, TMPDIR=tmp_dir())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    exe, cli = build()
    if args.workload != "all":
        code, result = run_one(exe, cli, args.workload, args)
        sys.exit(code if result is not None else max(code, 1))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        rc, result = run_one(exe, cli, workload, args)
        code = max(code, rc if result is not None else max(rc, 1))
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    sys.exit(code)


if __name__ == "__main__":
    main()
