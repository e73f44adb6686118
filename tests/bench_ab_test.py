#!/usr/bin/env python3
"""Checks the statistics and verdicts of scripts/bench_ab.py on canned
records: no build and no benchmark run. Registered as the
`bench_ab_selftest` ctest entry."""

import argparse
import importlib.util
import sys
from pathlib import Path


def load_module(repo_root):
    path = Path(repo_root) / "scripts" / "bench_ab.py"
    spec = importlib.util.spec_from_file_location("bench_ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(value, correct=True, attempted=100, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"t_ms": {"value": value, "unit": "ms"},
                        "ops": {"value": 1000.0 / value, "unit": "1/s"}}}


SPEC = {"end_to_end": [
    {"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.25}]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repo-root", required=True)
    args = parser.parse_args()
    ab = load_module(args.repo_root)
    failures = []

    def expect(name, got, want):
        ok = got == want if not isinstance(want, float) else abs(
            got - want) < 1e-9
        print(f"{'PASS' if ok else 'FAIL'} {name}: {got!r}"
              + ("" if ok else f" (want {want!r})"))
        if not ok:
            failures.append(name)

    # Quartiles by linear interpolation between order statistics.
    expect("median odd", ab.quantile([3, 1, 2], 0.5), 2)
    expect("median even", ab.quantile([4, 1, 3, 2], 0.5), 2.5)
    expect("q1", ab.quantile([1, 2, 3, 4, 5], 0.25), 2)
    expect("q3 interpolated", ab.quantile([1, 2, 3, 4], 0.75), 3.25)
    expect("single value", ab.quartiles([7]), (7, 7, 7))

    parent = [45.0, 44.0, 47.0, 46.0, 43.0, 48.0, 45.5, 44.5, 46.5, 45.0]
    halved = [v / 2 for v in parent]
    row = ab.compare(parent, halved, "lower", 0.25)
    expect("gain verdict", row["verdict"], "gain")
    expect("gain wins", row["wins"], 10)
    expect("gain ratio", row["ratio"], 0.5)
    # Nine of ten wins still count as a gain; eight do not.
    nine = list(halved)
    nine[3] = parent[3] + 1
    expect("nine wins", ab.compare(parent, nine, "lower", 0.25)["verdict"],
           "gain")
    eight = list(nine)
    eight[5] = parent[5] + 1
    expect("eight wins",
           ab.compare(parent, eight, "lower", 0.25)["verdict"],
           "within bound")
    # A median gap inside the parent's IQR is no gain, even 10/10.
    nudged = [v - 0.1 for v in parent]
    expect("gap inside IQR",
           ab.compare(parent, nudged, "lower", 0.25)["verdict"],
           "within bound")
    # Worse by more than the bound, for either direction.
    slower = [v * 1.3 for v in parent]
    expect("lower-is-better regression",
           ab.compare(parent, slower, "lower", 0.25)["verdict"],
           "regression")
    expect("higher-is-better regression",
           ab.compare([10.0] * 4, [7.0] * 4, "higher", 0.25)["verdict"],
           "regression")
    expect("higher-is-better gain",
           ab.compare([10.0, 10.5, 9.5, 10.0], [20.0] * 4, "higher",
                      0.25)["verdict"], "gain")
    # Spread wider than the bound on either side cannot be told apart.
    noisy = [10.0, 20.0, 30.0, 40.0]
    expect("unresolved",
           ab.compare([25.0, 25.5, 24.5, 25.0], noisy, "lower",
                      0.25)["verdict"], "unresolved")
    # ... unless every change run reads better than every parent run,
    # even with the median gap inside the parent's IQR (no gain).
    expect("separated despite spread",
           ab.compare([10.0, 11.0, 40.0, 41.0], [9.0, 9.5, 9.8, 9.9],
                      "lower", 0.25)["verdict"], "within bound")
    expect("separated despite spread, higher is better",
           ab.compare([10.0, 11.0, 40.0, 41.0], [42.0, 43.0, 44.0, 45.0],
                      "higher", 0.25)["verdict"], "within bound")
    expect("one overlapping run stays unresolved",
           ab.compare([10.0, 11.0, 40.0, 41.0], [9.0, 9.5, 9.8, 10.5],
                      "lower", 0.25)["verdict"], "unresolved")

    # Workload summary: health and per-metric rows from records.
    summary = ab.summarize(SPEC, [record(v) for v in parent],
                           [record(v) for v in halved])
    expect("summary t_ms", summary["metrics"]["t_ms"]["verdict"], "gain")
    expect("summary ops", summary["metrics"]["ops"]["verdict"], "gain")
    expect("summary health", summary["health"]["verdict"], "ok")
    broken = [record(v) for v in halved]
    broken[0] = record(halved[0], correct=False)
    expect("incorrect run",
           ab.summarize(SPEC, [record(v) for v in parent],
                        broken)["health"]["verdict"], "regression")
    failing = [record(v, failed=1) for v in halved]
    expect("larger failed share",
           ab.summarize(SPEC, [record(v) for v in parent],
                        failing)["health"]["verdict"], "regression")
    text = ab.format_summary("report", summary)
    expect("formatted", "t_ms" in text and "gain" in text, True)

    # Exit status: 1 once any workload's health or metric regresses.
    def report_of(*summaries):
        return {"workloads": {f"w{i}": {"records": {}, "summary": s}
                              for i, s in enumerate(summaries)}}

    base = [record(v) for v in parent]
    expect("exit on gains", ab.exit_code(report_of(summary)), 0)
    expect("exit with no workloads", ab.exit_code(report_of()), 0)
    regressed = ab.summarize(SPEC, base, [record(v) for v in slower])
    expect("regressed metric verdict",
           regressed["metrics"]["t_ms"]["verdict"], "regression")
    expect("exit on a regressed metric",
           ab.exit_code(report_of(summary, regressed)), 1)
    unhealthy = ab.summarize(SPEC, base, broken)
    expect("exit on an incorrect run",
           ab.exit_code(report_of(unhealthy, summary)), 1)
    expect("exit on a larger failed share",
           ab.exit_code(report_of(ab.summarize(SPEC, base, failing))), 1)
    unresolved = ab.summarize(
        SPEC, [record(v) for v in [25.0, 25.5, 24.5, 25.0]],
        [record(v) for v in [10.0, 20.0, 30.0, 40.0]])
    expect("unresolved verdict", unresolved["metrics"]["t_ms"]["verdict"],
           "unresolved")
    expect("exit on unresolved", ab.exit_code(report_of(unresolved)), 0)

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
