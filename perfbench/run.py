"""PPRviz benchmark: set-up time and interactive query latency.

    python3 perfbench/run.py --workload zoom-k25 --seed 26 --seconds 15 --trace 0

Builds the program from source (perfbench/build.py), then runs one JVM that
generates the workload graph from --seed, runs PPRviz.preprocess and a
single-client closed loop of PPRviz queries, checks every answer, and prints
one JSON result as the last line. --trace 1 runs the traced run instead,
which reports per-layer metrics and writes its spans under .bench_build.
--n sets the graph size (default 10000); other sizes are for on-demand
measurements, not for the gated workloads. Exits non-zero if the build, the
run or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["zoom-k25", "zoom-k100", "hub-k25"]
RUN_TIMEOUT_S = 170


def jvm_flags(n: int) -> list:
    # Fixed, pre-touched heap and the serial collector: one thread runs the
    # work and GC pauses do not depend on the heap growing or on how busy
    # the other cores are.
    heap = "2g" if n <= 20_000 else "8g"
    return [f"-Xms{heap}", f"-Xmx{heap}", "-XX:+AlwaysPreTouch", "-XX:+UseSerialGC",
            "-Xss16m", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={build.OUT / 'tmp'}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--n", type=int, default=10_000)
    a = ap.parse_args()

    try:
        cp = build.build()
    except build.BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        return 2

    trace_out = build.OUT / "trace" / f"{a.workload}-seed{a.seed}-n{a.n}.tsv"
    cmd = [build.java()] + jvm_flags(a.n) + [
        "-cp", cp, "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--n", str(a.n), "--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(out)
        print(f"run exited with {proc.returncode} without a result", file=sys.stderr)
        return proc.returncode or 4
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
