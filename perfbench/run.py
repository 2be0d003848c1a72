#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe with dune
(inside this checkout, shared dune cache off), stamps the source
revision, runs one workload, and passes its output through: the last
line of standard output is the JSON result. Exits non-zero when the
build fails, the run fails its correctness checks, or the printed
metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_revision(root):
    """The git revision, or a digest of the sources when the checkout
    is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".ml", ".mli", "dune", "dune-project", ".py"))
        )
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def run(cmd, timeout, **kw):
    """Run to completion; on timeout kill the child and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("run from the repository root (no dune-project here)")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(out_dir, "cache"),
               OCAML_RUNTIME_EVENTS_DIR=out_dir)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    code, out = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT, cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if code != 0:
        sys.stderr.write(out)
        fail("build failed")

    code, out = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--rev", source_revision(root)],
        RUN_TIMEOUT, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the run printed no result (exit %d)" % code)
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail("printed metrics differ from BENCHMARK.json")
    print(json.dumps(result))
    if code != 0:
        fail("the run failed its correctness checks (exit %d)" % code)


if __name__ == "__main__":
    main()
