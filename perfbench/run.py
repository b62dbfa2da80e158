#!/usr/bin/env python3
"""Build and run the corechase benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a corechase checkout.  The first form builds the
benchmark and the `corechase` binary with dune, runs one workload and
prints its result line last.  The second runs every workload of
BENCHMARK.json briefly, traced and untraced, and checks that all checks
pass and that the printed metric names and units match BENCHMARK.json.
See perfbench/README.md.
"""

import json
import math
import os
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/corechase_cli.exe"


def build():
    # dune's progress output goes to stderr; the result line must stay last
    # on stdout.
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/corechase_cli.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run_bench(args, capture=False):
    """Run bench.exe in its own process group, and kill whatever is left of
    that group (a daemon orphaned by a crash, or everything when this
    wrapper is terminated) once it has exited."""
    p = subprocess.Popen(
        [BENCH] + args + ["--cli", CLI],
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )
    # a SIGTERM to this wrapper takes the benchmark's processes with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = p.communicate()
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.wait()
    return p.returncode, out


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_bench(
                ["--workload", w["name"], "--seed", "1", "--seconds", "2", "--trace", trace],
                capture=True,
            )
            lines = out.decode().strip().splitlines()
            problems = []
            if code != 0 or not lines:
                problems.append(f"exit code {code}")
            else:
                res = json.loads(lines[-1])
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys")
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    problems.append(f"checks: {res['failed']} of {res['attempted']} failed")
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    problems.append(f"metric names/units differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
                for k, v in res["metrics"].items():
                    if not math.isfinite(v["value"]):
                        problems.append(f"{k} is not finite")
                    if group == "end_to_end" and v["value"] <= 0:
                        problems.append(f"{k} is not positive")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-test {w['name']} --trace {trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    code, _ = run_bench(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
