#!/usr/bin/env python3
"""Self-test of the repository benchmark (a few seconds per workload).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json in smoke mode (tiny sizes), untraced
and traced, and checks that:
  * each run is correct with no failed call, and fail_ratio is 0;
  * the untraced run prints exactly the end-to-end metrics, the traced run
    exactly the per-layer metrics, each with its declared unit and a finite
    value;
  * the exact per-call counts repeat across two traced runs of one seed;
  * a YHCCL_* variable in the caller's environment is stripped and listed.
Exits non-zero on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["copy.dav_bytes_per_call", "copy.kernel_calls_per_call",
         "runtime.barriers_per_call", "runtime.flag_ops_per_call"]


def run(workload, trace, seed=1, extra_env=None):
    env = dict(os.environ, **(extra_env or {}))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True).stdout
    lines = out.decode().splitlines()
    return lines, json.loads(lines[-1])


def check(cond, what):
    if not cond:
        print("selftest FAILED: " + what)
        sys.exit(1)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            _, res = run(w, trace)
            tag = "%s trace=%d" % (w, trace)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  tag + ": correct/failed/attempted " + json.dumps(
                      {k: res[k] for k in ("correct", "attempted", "failed")}))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want[trace], tag + ": metric set or units differ: " +
                  str(sorted(set(got.items()) ^ set(want[trace].items()))))
            for k, v in res["metrics"].items():
                check(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"]), tag + ": bad value " + k)
            if trace == 1:
                check(res["metrics"]["fail_ratio"]["value"] == 0,
                      tag + ": fail_ratio is not 0")
                _, again = run(w, 1)
                for k in EXACT:
                    check(res["metrics"][k]["value"] == again["metrics"][k]["value"],
                          tag + ": exact count %s differs between runs" % k)
            print("ok  " + tag)
    lines, _ = run("small_mix", 0, extra_env={"YHCCL_ISA": "scalar"})
    stripped = [json.loads(l) for l in lines if l.startswith('{"env_stripped"')]
    check(stripped and stripped[0]["env_stripped"] == ["YHCCL_ISA"],
          "YHCCL_ISA was not stripped and listed")
    print("ok  environment stripped")
    print("selftest passed")


if __name__ == "__main__":
    main()
