#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload ingest|report|views --seed N \
        --seconds S --trace 0|1

Run from the repository root. The harness and the engine library are
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); a build that is already current costs a second.
The workload's main loop and its probes run as separate harness
processes; their records are merged into one, with the units
BENCHMARK.json gives. Build output goes to stderr, so the last line of
stdout is the merged JSON record. Exits non-zero, printing no record,
when the build or a run fails or no process measured one of the
metrics. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# The probes of each workload: fixed runs of the other workloads that
# measure the end-to-end classes outside its own mix and, in traced runs,
# the layers its own loop does not reach (report's probe is its 4-worker
# reference query, for the exchange counts).
PROBES = {"ingest": ["views"], "report": ["ingest", "views"],
          "views": ["ingest"]}
TRACE_PROBES = {"ingest": ["views", "report"], "report": ["ingest", "views"],
                "views": ["ingest", "report"]}


def run_group(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it; on timeout
    kills the whole group (cmake's ninja and compilers too) and raises."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (cmd, ["cmake", "--build", build_dir, "-j", jobs]):
        run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "report", "views"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # The main loop, then the workload's probes, each in a fresh process;
    # the record takes each metric from the first process that measured
    # it.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    try:
        probes = (TRACE_PROBES if args.trace else PROBES)[args.workload]
        for workload, probe in [(args.workload, False)] + [
                (p, True) for p in probes]:
            cmd = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--probe", str(int(probe))]
            if args.trace:
                suffix = f"-probe-{workload}" if probe else ""
                cmd += ["--trace-out", os.path.join(
                    build_dir, f"spans-{args.workload}-{args.seed}{suffix}.jsonl")]
            lines = run_group(cmd, max(1.0, deadline - time.monotonic()),
                              stdout=subprocess.PIPE).decode().splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            results.append(json.loads(lines[-1]))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            IndexError, ValueError) as e:
        print(f"perfbench: harness run failed: {e}", file=sys.stderr)
        return 1

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    measured = {}
    for result in results:
        for name, value in result["metrics"].items():
            measured.setdefault(name, value)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in measured:
            print(f"perfbench: no process measured {m['name']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
