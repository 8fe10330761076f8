#!/usr/bin/env python3
"""Compare the end-to-end benchmark between a parent and a changed checkout.

Two sub-commands:

  compare.py run PARENT_DIR CHANGE_DIR [--seeds N] [--out DIR]
      Runs the benchmark in both checkouts, once per workload of
      BENCHMARK.json and seed 1..N, alternating which side runs first,
      and then reports as below. Each
      side builds into its own `.bench_build`. The result lines are kept
      in DIR (default: a new temporary directory) as parent.jsonl and
      change.jsonl.

  compare.py report PARENT.jsonl CHANGE.jsonl
      Reports on result lines collected earlier. Each line is a JSON
      object with the keys `workload`, `seed` and `result` (the
      benchmark's last output line).

For every workload and end-to-end metric of BENCHMARK.json the report
prints each side's median and quartiles, how many seed pairs each side won
(ties count for neither), and a verdict:

  invalid: change fails more
                the change's results count more failed operations than
                the parent's; no gain can count then;
  gain          the change won at least 9 of every 10 pairs and the medians
                differ by more than the parent's own quartile spread;
  regression    the change's median is worse than the parent's by more than
                the metric's bound;
  unresolved    the parent's own spread is wider than the bound and the
                medians do not separate every run (every change run better
                than every parent run, or the reverse);
  no regression otherwise.

The exit code is 1 when any result is marked incorrect or the change fails
more than the parent on some workload, else 0.

Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, check=True)
    lines = out.stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


def collect(args):
    bench = load_benchmark(args.change)
    workloads = [w["name"] for w in bench["workloads"]]
    out_dir = args.out or tempfile.mkdtemp(prefix="e2ebench-compare-")
    os.makedirs(out_dir, exist_ok=True)
    paths = {side: os.path.join(out_dir, side + ".jsonl") for side in ("parent", "change")}
    dirs = {"parent": args.parent, "change": args.change}
    files = {side: open(p, "w") for side, p in paths.items()}
    try:
        for i in range(args.seeds):
            seed = 1 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(dirs[side], bench, workload, seed)
                    line = {"workload": workload, "seed": seed, "result": result}
                    files[side].write(json.dumps(line) + "\n")
                    files[side].flush()
                    print(f"[compare] {side:6} {workload} seed {seed} correct "
                          f"{result['correct']}", file=sys.stderr)
    finally:
        for f in files.values():
            f.close()
    print(f"[compare] results in {out_dir}", file=sys.stderr)
    return report(paths["parent"], paths["change"], bench)


def read_results(path):
    by_key = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                by_key[(row["workload"], row["seed"])] = row["result"]
    return by_key


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, parent_failed, change_failed):
    if change_failed > parent_failed:
        return "invalid: change fails more"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cm - pm)
    worse = -gain / abs(pm) if pm else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        return "gain"
    if worse > bound:
        return "regression"
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    separated = (min(change) > max(parent) or max(change) < min(parent))
    if spread > bound and not separated:
        return "unresolved"
    return "no regression"


def report(parent_path, change_path, bench=None):
    bench = bench or load_benchmark(os.path.dirname(HERE))
    parent = read_results(parent_path)
    change = read_results(change_path)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) pair has results on both sides")
        return 1
    workloads = sorted({w for w, _ in keys})
    failed = False
    for w in workloads:
        seeds = sorted(s for ww, s in keys if ww == w)
        print(f"\n{w}  ({len(seeds)} seed pairs)")
        print(f"  {'metric':<22} {'parent q1/median/q3':>34} {'change q1/median/q3':>34} "
              f"{'won p/c':>9}  verdict")
        for side, r in (("parent", parent), ("change", change)):
            for s in seeds:
                if not r[(w, s)]["correct"]:
                    failed = True
                    print(f"  seed {s}: a {side} result is marked incorrect")
        p_failed = sum(parent[(w, s)]["failed"] for s in seeds)
        c_failed = sum(change[(w, s)]["failed"] for s in seeds)
        if c_failed > p_failed:
            failed = True
            print(f"  the change fails {c_failed} operations, the parent {p_failed}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [parent[(w, s)]["metrics"][name]["value"] for s in seeds]
            cv = [change[(w, s)]["metrics"][name]["value"] for s in seeds]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            p_won = sum(1 for p, c in zip(pv, cv) if sign * (p - c) > 0)
            c_won = sum(1 for p, c in zip(pv, cv) if sign * (c - p) > 0)
            pq = quartiles(pv)
            cq = quartiles(cv)
            v = verdict(pv, cv, metric["better"], metric["bound"], p_failed, c_failed)
            print(f"  {name:<22} {pq[0]:>11.4g}/{pq[1]:>10.4g}/{pq[2]:<11.4g} "
                  f"{cq[0]:>11.4g}/{cq[1]:>10.4g}/{cq[2]:<11.4g} {p_won:>4}/{c_won:<4}  {v}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="collect alternating runs, then report")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--seeds", type=int, default=10)
    r.add_argument("--out")
    p = sub.add_parser("report", help="report on collected result lines")
    p.add_argument("parent_jsonl")
    p.add_argument("change_jsonl")
    args = ap.parse_args()
    if args.cmd == "run":
        args.parent = os.path.abspath(args.parent)
        args.change = os.path.abspath(args.change)
        return collect(args)
    return report(args.parent_jsonl, args.change_jsonl)


if __name__ == "__main__":
    sys.exit(main())
