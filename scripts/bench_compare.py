#!/usr/bin/env python3
"""Compare a fresh benchmark run against the committed baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json [TOLERANCE]
       bench_compare.py --route-gate CURRENT.json
       bench_compare.py --scaling-gate CURRENT.json

Both files use the BENCH_RESULTS.json schema: timing rows (ns/run) nested
under a top-level "benchmarks" key and per-workload counter columns under
"counters".  Every benchmark present in CURRENT is compared against the
same key in BASELINE; a row slower than TOLERANCE x baseline (default 1.5)
is flagged.  Allocation counters (*.minor_words) are reported per workload
so the artifact records allocation drift alongside timing drift.

Exit status:
  0  all checks pass
  1  tolerance regressions only (warn-only — marks the job, not the
     workflow)
  2  usage / malformed input
  4  route gate violation: some "abl:route:auto:<family>" row is slower
     than ROUTE_PAD x the best fixed-engine row for that family.  The
     router's whole point is picking an engine no worse than the best
     fixed choice (its analysis cost has its own row and is not part of
     the gate), so this too is a hard failure (--route-gate).
  5  scaling gate violation: the "thr:batch:jobs4" batch did not reach
     SCALING_MIN_SPEEDUP x the "thr:batch:jobs1" throughput on a machine
     with >= SCALING_MIN_CORES cores.  Parallelism that fails to pay on
     real cores is the regression the thr:* family exists to catch
     (--scaling-gate); on narrower machines the pool is clamped and the
     gate degrades to a warning, since speedup ~ 1.0 is the correct
     clamped behaviour there.

Stdlib only.
"""

import json
import os
import sys

THR_ROW = "corechase thr:batch:jobs%d"
SCALING_MIN_SPEEDUP = 1.5
SCALING_MIN_CORES = 4

ROUTE_AUTO = "corechase abl:route:auto:"
# Fixed-engine rows the routed run is compared against, per family.
ROUTE_FIXED = ("restricted", "core")
ROUTE_PAD = 1.20


def load(path):
    with open(path) as f:
        return json.load(f)


def scaling_gate(current):
    """0 if the jobs=4 batch reaches SCALING_MIN_SPEEDUP x the jobs=1
    throughput, else 5; warn-only on machines with < SCALING_MIN_CORES
    cores (the pool is clamped there, so ~1.0x is correct)."""
    bench = current.get("benchmarks", {})
    j1, j4 = bench.get(THR_ROW % 1), bench.get(THR_ROW % 4)
    cores = os.cpu_count() or 1
    if not isinstance(j1, (int, float)) or not isinstance(j4, (int, float)) \
            or j1 <= 0 or j4 <= 0:
        print("scaling gate: rows missing (%s / %s) — skipped"
              % (THR_ROW % 1, THR_ROW % 4))
        return 0
    # rows are wall-clock ns for the same batch, so the throughput ratio
    # is the inverse wall-clock ratio
    speedup = j1 / j4
    enforced = cores >= SCALING_MIN_CORES
    ok = speedup >= SCALING_MIN_SPEEDUP
    print(
        "scaling gate: %d core(s); jobs1 %.1f ms vs jobs4 %.1f ms -> "
        "speedup %.2fx, efficiency %.2f (required %.2fx, %s)"
        % (cores, j1 / 1e6, j4 / 1e6, speedup, speedup / 4.0,
           SCALING_MIN_SPEEDUP, "enforced" if enforced else
           "warn-only: fewer than %d cores" % SCALING_MIN_CORES)
    )
    if ok:
        print("scaling gate: PASS")
        return 0
    if not enforced:
        print("scaling gate: below target but the pool is clamped on this "
              "machine — WARN only")
        return 0
    print("scaling gate: FAIL — parallelism is not paying on real cores")
    return 5


def route_gate(current):
    """0 if every routed run beats ROUTE_PAD x the best fixed engine, else 4."""
    bench = current.get("benchmarks", {})
    autos = {
        name[len(ROUTE_AUTO):]: value
        for name, value in bench.items()
        if name.startswith(ROUTE_AUTO) and isinstance(value, (int, float))
    }
    if not autos:
        print("route gate: no %s* rows — skipped" % ROUTE_AUTO)
        return 0
    failures = []
    for family in sorted(autos):
        fixed = {
            engine: bench.get("corechase abl:route:%s:%s" % (engine, family))
            for engine in ROUTE_FIXED
        }
        fixed = {e: v for e, v in fixed.items() if isinstance(v, (int, float))}
        if not fixed:
            print("route gate: %-18s no fixed-engine rows — skipped" % family)
            continue
        best_engine = min(fixed, key=fixed.get)
        best = fixed[best_engine]
        auto = autos[family]
        ok = auto <= best * ROUTE_PAD
        print(
            "route gate: %-18s auto %.1f vs best fixed (%s) %.1f ns/run "
            "(pad %.2fx) -> %s"
            % (family, auto, best_engine, best, ROUTE_PAD, "PASS" if ok else "FAIL")
        )
        if not ok:
            failures.append(family)
    if failures:
        print("route gate: routed engine slower than the best fixed engine on: %s"
              % ", ".join(failures))
        return 4
    return 0


def alloc_report(baseline, current):
    """Per-workload *.minor_words columns, current vs baseline."""
    cur = current.get("counters", {})
    base = baseline.get("counters", {})
    rows = []
    for workload in sorted(cur):
        for counter, value in sorted(cur[workload].items()):
            if not counter.endswith("minor_words"):
                continue
            prev = base.get(workload, {}).get(counter)
            rows.append((workload, counter, prev, value))
    if not rows:
        return
    print()
    print("allocation counters (minor words per workload):")
    width = max(len("%s %s" % (w, c)) for w, c, _, _ in rows)
    for workload, counter, prev, value in rows:
        label = "%s %s" % (workload, counter)
        if isinstance(prev, (int, float)):
            print("  %-*s %14d -> %14d" % (width, label, prev, value))
        else:
            print("  %-*s %14s -> %14d  (no baseline)" % (width, label, "-", value))


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--route-gate":
        return route_gate(load(sys.argv[2]))
    if len(sys.argv) == 3 and sys.argv[1] == "--scaling-gate":
        return scaling_gate(load(sys.argv[2]))
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    baseline_path, current_path = sys.argv[1], sys.argv[2]
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 1.5
    baseline_doc = load(baseline_path)
    current_doc = load(current_path)
    baseline = baseline_doc.get("benchmarks", {})
    current = current_doc.get("benchmarks", {})
    if not current:
        print("no benchmark rows in %s" % current_path)
        return 2
    regressions = []
    width = max(len(name) for name in current)
    print("tolerance: %.2fx baseline (%s)" % (tolerance, baseline_path))
    for name in sorted(current):
        cur = current[name]
        base = baseline.get(name)
        if not isinstance(base, (int, float)) or base <= 0:
            print("  %-*s %14s -> %14.1f ns/run  (no baseline)" % (width, name, "-", cur))
            continue
        ratio = cur / base
        flag = "REGRESSION" if ratio > tolerance else "ok"
        print(
            "  %-*s %14.1f -> %14.1f ns/run  %5.2fx %s"
            % (width, name, base, cur, ratio, flag)
        )
        if ratio > tolerance:
            regressions.append((name, ratio))
    alloc_report(baseline_doc, current_doc)
    print()
    rgate = route_gate(current_doc)
    if rgate:
        return rgate
    if regressions:
        print()
        print("%d benchmark(s) slower than %.2fx baseline (warn-only):" % (len(regressions), tolerance))
        for name, ratio in regressions:
            print("  %s: %.2fx" % (name, ratio))
        return 1
    print()
    print("all compared benchmarks within %.2fx of baseline" % tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
