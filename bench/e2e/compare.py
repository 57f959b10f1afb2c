#!/usr/bin/env python3
"""Per-metric deltas between two BENCH_e2e.json files, judged against the
end-to-end bounds recorded in them.

    python3 bench/e2e/compare.py BEFORE.json AFTER.json

For every workload and metric present in both files it prints the median
before and after and the relative change. An end-to-end metric whose change
exceeds its bound is marked REGRESSION when it moved in its worse direction
and "outside bound (better)" otherwise; failed_share is a regression on any
increase. Per-layer metrics have no bound and are printed for reading only.
Exits 1 when any metric regressed, 0 otherwise.
"""
import json
import sys


def describe(side, data):
    host = data["host"]
    return "%s: commit %s, %s %s, nproc %s, seed %s, %s run(s)%s" % (
        side, host["git_commit"], host["compiler"], host["build_type"], host["nproc"],
        data["seed"], data["repeat"], ", traced" if data["trace"] else "")


def verdict(name, before, after, delta):
    if name == "failed_share":
        return "REGRESSION" if after["value"] > before["value"] else ""
    bound = before.get("bound")
    if bound is None or abs(delta) <= bound:
        return ""
    worse = delta > 0 if before["better"] == "lower" else delta < 0
    return "REGRESSION" if worse else "outside bound (better)"


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        before_all = json.load(f)
    with open(argv[2]) as f:
        after_all = json.load(f)
    print(describe("before", before_all))
    print(describe("after ", after_all))

    regressions = 0
    for workload, before_w in before_all["workloads"].items():
        after_w = after_all["workloads"].get(workload)
        if after_w is None:
            print("\n== %s: missing from %s ==" % (workload, argv[2]))
            continue
        print("\n== %s ==" % workload)
        print("%-38s %14s %14s %9s %7s" % ("metric", "before", "after", "delta", "bound"))
        for name, before in before_w["metrics"].items():
            after = after_w["metrics"].get(name)
            if after is None:
                continue
            if before["value"]:
                delta = (after["value"] - before["value"]) / abs(before["value"])
            else:
                delta = 0.0 if after["value"] == 0 else float("inf")
            bound = before.get("bound")
            mark = verdict(name, before, after, delta)
            regressions += mark == "REGRESSION"
            print("%-38s %14.6g %14.6g %8.1f%% %7s  %s" % (
                name, before["value"], after["value"], delta * 100,
                "%g%%" % (bound * 100) if bound is not None else "-", mark))
    print("\n%d regression(s) beyond bound" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
