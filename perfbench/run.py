#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload small_mix|large_mix|app_amr \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The first call configures and builds the
library and the `perfbench` binary (Release) under $CARGO_TARGET_DIR, or
`.bench_build` when it is unset; later calls rebuild incrementally.  Any
YHCCL_* variable is removed from the binary's environment and listed on the
`env_stripped` line.  The last line of stdout is the result object.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def build(build_dir):
    """Configure once, then build the binary; build output goes to stderr."""
    cmds = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["small_mix", "large_mix", "app_amr"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("library sources not found beside perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        return fail("build failed", 1)

    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("YHCCL_")}
    stripped = sorted(k for k in os.environ if k.startswith("YHCCL_"))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir] + (["--smoke"] if args.smoke else [])
    # A session of its own, so a timeout also stops forked ranks.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail("run timed out", 1)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return fail("perfbench failed (exit %d)" % proc.returncode, 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"env_stripped": stripped}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
