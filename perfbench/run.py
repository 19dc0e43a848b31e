#!/usr/bin/env python3
"""Replay benchmark: one workload per invocation.

    python3 perfbench/run.py --workload phftl-hiwa --seed 1 --seconds 30 --trace 0

Builds perfbench/replay_bench against the repository's src/ libraries
(into .bench_build/ at the repository root), runs it with the workload's
knobs from perfbench/workloads.json, and passes its output through. The
last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--size-scale shrinks every workload's drive writes (the tests use it for a
seconds-scale smoke size). The exit code is non-zero when the build, a
check or the result fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "replay_bench")
RUN_TIMEOUT_S = 170


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)["workloads"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ tree next to perfbench/; nothing to build")
    # Build chatter goes to stderr: stdout ends with the result line.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4",
                    "--target", "replay_bench"],
                   stdout=sys.stderr, check=True)


def bench_args(name, spec, seed, seconds, trace, size_scale):
    args = [BINARY, "--workload", name,
            "--schemes", ",".join(spec["schemes"]),
            "--traces", ",".join(spec["traces"]),
            "--instances", str(spec.get("instances", 1)),
            "--drive-writes", repr(spec["drive_writes"] * size_scale),
            "--arrival-scale", repr(spec["arrival_scale"]),
            "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace)]
    if spec.get("mapping_tier"):
        args.append("--mapping-tier")
    if spec.get("learned_index"):
        args.append("--learned-index")
    for key in ("cmt_pages", "cmt_wb_batch", "tp_entries",
                "read_fraction", "trim_fraction"):
        if key in spec:
            args += ["--" + key.replace("_", "-"), repr(spec[key])]
    return args


def main():
    workloads = load_workloads()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=None,
                   help="XOR-ed into each suite trace's generator seed "
                        "(default: the workload's default_seed)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size-scale", type=float, default=1.0)
    a = p.parse_args()
    spec = workloads[a.workload]
    seed = spec["default_seed"] if a.seed is None else a.seed
    if seed < 0 or a.seconds < 0 or a.size_scale <= 0:
        p.error("--seed, --seconds and --size-scale must not be negative")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    try:
        proc = subprocess.run(
            bench_args(a.workload, spec, seed, a.seconds, a.trace,
                       a.size_scale),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: replay_bench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except json.JSONDecodeError:
        ok = False
    if not ok:
        sys.exit(f"run.py: replay_bench gave no result (exit {proc.returncode})")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode if proc.returncode else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
