#!/usr/bin/env python3
"""Same-host A/B of the repo benchmark: a parent revision against the
working tree.

    python3 scripts/bench_ab.py --rev HEAD --pairs 10 \
        --workloads report views ingest [--seconds 20] [--seed-base 1000]

Run from the repository root. The parent is unpacked with
`git archive <rev>` into the scratch directory (default
.bench_build/ab); the change is the working tree as it stands. Each
side builds perfbench/run.py's harness into its own CARGO_TARGET_DIR.
For every workload the script runs `perfbench/run.py --seconds S` for
N pairs; pair i runs both sides on seed `seed-base + i`, and the side
that goes first alternates from pair to pair, so a slow host phase
hits both sides alike.

Per workload and end-to-end metric it prints each side's median and
quartiles, the median ratio (change / parent), the pairs the change
won, and a verdict, with `better` and `bound` taken from
BENCHMARK.json:

  regression   the change's median is worse than the parent's by more
               than the bound, or a change run is incorrect or fails a
               larger share of operations than the parent's runs;
  gain         the change won at least 9 of 10 pairs (90%) and its
               median is better by more than the parent's IQR;
  unresolved   either side's IQR exceeds the bound (relative to its
               median): the runs spread too widely to tell, unless
               every change run reads better than every parent run;
  within bound otherwise.

--json PATH also writes every run's record and the summary. The exit
status is 1 when any workload's health or any metric reads
`regression`, and 0 otherwise, so the script can gate a change. The
statistics, the verdicts and the exit status are pure functions,
checked on canned records by tests/bench_ab_test.py (a ctest entry; no
build, no run).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_WIN_SHARE = 0.9


def quantile(values, q):
    """The q-quantile of `values` by linear interpolation between order
    statistics (the 'inclusive' method: q=0 is the minimum, q=1 the
    maximum)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) of `values`."""
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def compare(parent, change, better, bound):
    """Compares one metric's paired runs. `parent[i]` and `change[i]`
    ran on the same seed. Returns a dict with both sides' quartiles, the
    median ratio, the wins and the verdict (see the module docstring)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs equally many runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    ratio = cmed / pmed if pmed else float("inf")
    # Relative change in the worse direction (> 0 means worse).
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else 0.0

    # Every change run better than every parent run tells the sides
    # apart however widely either spreads.
    if better == "lower":
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    if worse > bound:
        verdict = "regression"
    elif (wins >= GAIN_WIN_SHARE * len(parent) and
          sign * (pmed - cmed) > pq3 - pq1):
        verdict = "gain"
    elif ((spread(pq1, pmed, pq3) > bound or spread(cq1, cmed, cq3) > bound)
          and not separated):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3],
            "ratio": ratio, "wins": wins, "pairs": len(parent),
            "verdict": verdict}


def health(records):
    """(correct runs, total runs, failed share of attempted ops)."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return (sum(1 for r in records if r["correct"]), len(records),
            failed / attempted if attempted else 0.0)


def summarize(spec, parent_records, change_records):
    """The per-metric comparisons of one workload's paired records, plus
    a health line. A change run that is incorrect, or a larger failed
    share than the parent's, marks the workload as a regression."""
    rows = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in parent_records]
        c = [r["metrics"][name]["value"] for r in change_records]
        rows[name] = compare(p, c, m["better"], m["bound"])
    p_ok, n, p_failed = health(parent_records)
    c_ok, _, c_failed = health(change_records)
    healthy = c_ok == n and c_failed <= p_failed
    return {"metrics": rows,
            "health": {"parent_correct": p_ok, "change_correct": c_ok,
                       "runs": n, "parent_failed_share": p_failed,
                       "change_failed_share": c_failed,
                       "verdict": "ok" if healthy else "regression"}}


def exit_code(report):
    """1 when any workload of `report` (its "workloads" map to each
    summary) reads `regression` in its health or in any metric, else 0."""
    for workload in report["workloads"].values():
        summary = workload["summary"]
        if summary["health"]["verdict"] == "regression":
            return 1
        if any(row["verdict"] == "regression"
               for row in summary["metrics"].values()):
            return 1
    return 0


def format_summary(workload, summary):
    lines = [f"== {workload}"]
    h = summary["health"]
    lines.append(
        f"   correct: parent {h['parent_correct']}/{h['runs']}, change "
        f"{h['change_correct']}/{h['runs']}; failed share "
        f"{h['parent_failed_share']:.4f} -> {h['change_failed_share']:.4f} "
        f"[{h['verdict']}]")
    lines.append(f"   {'metric':<16}{'parent q1/med/q3':>28}"
                 f"{'change q1/med/q3':>28}{'ratio':>8}{'wins':>7}  verdict")
    for name, row in summary["metrics"].items():
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        lines.append(f"   {name:<16}{fmt(row['parent']):>28}"
                     f"{fmt(row['change']):>28}{row['ratio']:>8.3f}"
                     f"{row['wins']:>4}/{row['pairs']:<2}  {row['verdict']}")
    return "\n".join(lines)


def run_side(tree, target_dir, workload, seed, seconds):
    """One perfbench run of `tree`; returns its JSON record."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=env, check=True, stdout=subprocess.PIPE).stdout
    return json.loads(out.decode().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD",
                        help="parent revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=["report", "views", "ingest"])
    parser.add_argument("--seconds", type=int,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--scratch", default=os.path.join(
        ROOT, ".bench_build", "ab"))
    parser.add_argument("--json", help="write records and summary here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    scratch = os.path.abspath(args.scratch)
    parent_tree = os.path.join(scratch, "parent-src")
    os.makedirs(parent_tree, exist_ok=True)
    archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", parent_tree], input=archive,
                   check=True)
    sides = {"parent": (parent_tree, os.path.join(scratch, "parent")),
             "change": (ROOT, os.path.join(scratch, "change"))}

    report = {"rev": args.rev, "seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        records = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                              "parent"]
            for side in order:
                tree, target = sides[side]
                records[side].append(
                    run_side(tree, target, workload, seed, seconds))
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} "
                      f"{side} done", file=sys.stderr)
        summary = summarize(spec, records["parent"], records["change"])
        print(format_summary(workload, summary), flush=True)
        report["workloads"][workload] = {"records": records,
                                         "summary": summary}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
