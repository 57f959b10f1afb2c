#!/usr/bin/env python3
"""Alternating A/B runs of bench_e2e between two versions of the repository.

    python3 bench/ab.py PARENT [CHANGE] --workload W [W ...] --pairs N \\
        --seconds S --seed K --out FILE [--show METRIC ...]

PARENT and CHANGE are git refs, or "." for the working tree (CHANGE defaults
to "."). A ref is `git archive`d into .bench_build/ab/<commit> at the
repository root and built there with bench/e2e's CMake project; "." builds
into .bench_build/e2e, like bench/e2e/run.py. Runs write their output under
.bench_build/ab/runs.

For each workload the tool runs N pairs, alternating which side goes first,
and reads each run's last stdout line ({correct, attempted, failed, metrics})
and its BENCH_e2e.json. It prints, per end-to-end metric named in
BENCHMARK.json: each side's median [interquartile range], the change's pair
wins (ties count for neither side), the relative median delta and the bound.
A metric whose delta is worse than its bound is marked WORSE; one whose
interquartile range on either side spans more than the bound is marked
UNRESOLVED. `--show` adds per-layer metrics (median [IQR] only). The correct
flags and the failed totals are printed per side. FILE receives every run's
values and the summary as JSON. The exit code is 1 when a run failed to start
or printed no result, or an output was incorrect; otherwise 0 — no metric
gates the exit code.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

REPO = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
WORK = os.path.join(REPO, ".bench_build", "ab")


def git(*args):
    return subprocess.run(["git", "-C", REPO] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(ref):
    """Source directory and build directory for one side."""
    if ref == ".":
        return REPO, os.path.join(REPO, ".bench_build", "e2e"), "working tree"
    commit = git("rev-parse", "--verify", ref + "^{commit}")
    src = os.path.join(WORK, commit[:12])
    if not os.path.isdir(src):
        os.makedirs(src)
        archive = subprocess.run(["git", "-C", REPO, "archive", commit],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", src], input=archive, check=True)
    return src, os.path.join(src, ".bench_build", "e2e"), commit[:12]


def build(src, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", os.path.join(src, "bench", "e2e"), "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "bench_e2e"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_e2e")


def run_once(binary, workload, seed, seconds, out_dir, show):
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--out-dir", out_dir],
                          capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = {"exit": proc.returncode, "wall_s": round(time.time() - started, 1)}
    try:
        line = json.loads(lines[-1])
        result.update({k: line[k] for k in ("correct", "attempted", "failed")})
        result["metrics"] = {name: m["value"] for name, m in line["metrics"].items()}
    except (IndexError, KeyError, ValueError):
        result["error"] = (proc.stderr or proc.stdout)[-2000:]
        return result
    # The --show metrics of the same run: timed runs record per-layer metrics
    # in BENCH_e2e.json too.
    try:
        with open(os.path.join(out_dir, "BENCH_e2e.json")) as f:
            recorded = json.load(f)["workloads"][workload]["metrics"]
        result["per_layer"] = {name: recorded[name]["value"] for name in show
                               if name in recorded}
    except (OSError, KeyError, ValueError):
        result["per_layer"] = {}
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, better, bound, parent_runs, change_runs, lookup):
    pairs = [(lookup(p, metric), lookup(c, metric)) for p, c in zip(parent_runs, change_runs)]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        return None
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    delta = (cm - pm) / abs(pm) if pm else 0.0
    row = {"parent": {"median": pm, "q1": p1, "q3": p3},
           "change": {"median": cm, "q1": c1, "q3": c3},
           "delta": delta, "wins": wins, "pairs": len(pairs), "better": better}
    if bound is not None:
        row["bound"] = bound
        worse = delta > bound if better == "lower" else delta < -bound
        spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
        row["verdict"] = "WORSE" if worse else ("UNRESOLVED" if spread > bound else "")
    return row


def fmt(x):
    return "%.0f" % x if abs(x) >= 1000 else "%.4g" % x


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default=".")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--show", nargs="*", default=[],
                        help="per-layer metrics to summarise as well")
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bounded = json.load(f)["end_to_end"]

    sides = {}
    for side, ref in (("parent", args.parent), ("change", args.change)):
        src, build_dir, label = checkout(ref)
        sides[side] = {"ref": ref, "commit": label, "binary": build(src, build_dir)}

    report = {"parent": {k: sides["parent"][k] for k in ("ref", "commit")},
              "change": {k: sides["change"][k] for k in ("ref", "commit")},
              "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
              "nproc": os.cpu_count(), "workloads": {}}
    healthy = True
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out_dir = os.path.join(WORK, "runs", workload, "%s-%d" % (side, i))
                result = run_once(sides[side]["binary"], workload, args.seed, args.seconds,
                                  out_dir, args.show)
                result["pair"] = i
                result["first"] = side == order[0]
                runs[side].append(result)
                if "error" in result:
                    healthy = False
                    print("%s %s pair %d: no result (exit %d): %s" % (
                        workload, side, i, result["exit"], result["error"]), file=sys.stderr)
                else:
                    print("%s pair %d %s: p50 %s ms" % (
                        workload, i, side, fmt(result["metrics"].get("latency_p50_ms", 0))),
                        file=sys.stderr)

        def e2e(run, metric):
            return run.get("metrics", {}).get(metric)

        def per_layer(run, metric):
            return run.get("per_layer", {}).get(metric)

        summary = {}
        for m in bounded:
            row = summarize(m["name"], m["better"], m["bound"], runs["parent"],
                            runs["change"], e2e)
            if row:
                summary[m["name"]] = row
        for name in args.show:
            row = summarize(name, "lower", None, runs["parent"], runs["change"], per_layer)
            if row:
                summary[name] = row
        health = {side: {"correct": all(r.get("correct") is True for r in runs[side]),
                         "failed": sum(r.get("failed", 0) for r in runs[side]),
                         "attempted": sum(r.get("attempted", 0) for r in runs[side])}
                  for side in runs}
        healthy = healthy and all(h["correct"] for h in health.values())
        report["workloads"][workload] = {"runs": runs, "summary": summary, "health": health}

        print("\n== %s: %d pairs, %s s, seed %d (parent %s, change %s) ==" % (
            workload, args.pairs, fmt(args.seconds), args.seed, sides["parent"]["commit"],
            sides["change"]["commit"]))
        print("%-34s %28s %28s %8s %6s %6s" % ("metric", "parent median [IQR]",
                                                "change median [IQR]", "delta", "wins",
                                                "bound"))
        for name, row in summary.items():
            p, c = row["parent"], row["change"]
            print("%-34s %28s %28s %+7.1f%% %6s %6s %s" % (
                name, "%s [%s-%s]" % (fmt(p["median"]), fmt(p["q1"]), fmt(p["q3"])),
                "%s [%s-%s]" % (fmt(c["median"]), fmt(c["q1"]), fmt(c["q3"])),
                100 * row["delta"], "%d/%d" % (row["wins"], row["pairs"]) if "bound" in row
                else "-", "%g%%" % (100 * row["bound"]) if "bound" in row else "-",
                row.get("verdict", "")))
        for side in ("parent", "change"):
            h = health[side]
            print("%s: correct %s, failed %d of %d" % (
                side, "true" if h["correct"] else "FALSE", h["failed"], h["attempted"]))

        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
