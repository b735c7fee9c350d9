#!/usr/bin/env python3
"""Entry point of the benchmark: builds tpa_perfbench, runs one workload (or
all of them), checks the metric set against BENCHMARK.json, and prints the
result as the last line of standard output.

    python3 perfbench/run.py --workload webspam-rep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; every run re-runs the CMake
configure step (cheap once cached; it refreshes the git SHA the provenance
line reports) and rebuilds only what changed.  Exit code 0 means every
correctness check passed; a failed check or a broken build exits non-zero
(a broken build prints no result line).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["webspam-rep", "fleet-hetero", "criteo-stream", "serve-open"]
RUN_TIMEOUT_S = 170

# The per-layer metrics each workload's traced run must emit, because the
# workload exercises their layer (perfbench/README.md, per-layer table).
# Those under "nonzero" are spans, counters or probes of work the workload
# does, so a 0 means the span or counter went missing; those under
# "present" may legitimately read 0 (nothing shed, no stall, no dropped
# event, no measurable overhead, no ladder rung sustained under host
# contention).  Every other per-layer metric belongs to a layer the
# workload leaves idle and reads 0.
SETUP = ["setup.data_s", "setup.problem_s", "setup.solver_s"]
CORE = ["core.epoch_s", "core.gap_eval_s", "core.gap_evals"]
PROBES = ["util.pool_dispatch_us", "linalg.sparse_dot_ns_per_nnz",
          "linalg.sparse_axpy_ns_per_nnz", "linalg.add_diff_ns_per_entry"]
MERGES = ["core.replica_merge_s", "core.replica_merges"]
OBS = ["obs.trace_overhead_frac", "obs.dropped_events"]
LAYER_WORK = {
    "webspam-rep": {
        "nonzero": SETUP + CORE + PROBES + MERGES + [
            "core.seq_epoch_s", "threads.cpu_per_wall",
            "threads.speedup_vs_seq", "sim.time_to_gap_s"],
        "present": OBS,
    },
    "fleet-hetero": {
        "nonzero": SETUP + CORE + PROBES + MERGES + [
            "threads.cpu_per_wall", "sim.time_to_gap_s",
            "gpusim.sweep_wall_s", "cluster.round_s", "cluster.local_solve_s",
            "cluster.master_s", "cluster.round_sim_s",
            "cluster.attr.compute_s", "cluster.attr.host_s",
            "cluster.attr.pcie_s", "cluster.attr.network_s",
            "cluster.wire_bytes_per_round", "placement.anneal_s",
            "placement.sa_iterations"],
        "present": OBS + ["cluster.attr.straggler_s"],
    },
    "criteo-stream": {
        "nonzero": SETUP + CORE + PROBES + [
            "threads.cpu_per_wall", "store.write_s", "store.load_s",
            "store.decode_s", "store.wait_s", "store.sweep_s",
            "store.bytes_read"],
        "present": OBS + ["store.overlap_frac", "store.stalls"],
    },
    "serve-open": {
        "nonzero": SETUP + CORE + PROBES + [
            "core.seq_epoch_s", "sim.time_to_gap_s", "serve.saturation_rps",
            "serve.p50_us", "serve.p90_us", "serve.p99_us",
            "serve.batch_p50_us", "serve.batch_p99_us", "serve.mean_batch",
            "serve.queue_us", "serve.reload_s", "loadgen.lag_p99_us"],
        "present": OBS + ["serve.shed", "serve.max_rps"],
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds tpa_perfbench; returns its path or None."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: src/ not found next to perfbench/ — nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(out, "tpa_perfbench")


def catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def check_metrics(workload, trace, metrics):
    """Checks a run's metric set against BENCHMARK.json: an untraced run must
    report every end-to-end metric; a traced run must report the per-layer
    metrics of the layers its workload exercises (LAYER_WORK), nonzero where
    they count or time that work, and the others are filled with 0.  Returns
    (the metrics in BENCHMARK.json order, the problems found)."""
    end_to_end, per_layer = catalog()
    expected = end_to_end if trace == 0 else per_layer
    metrics = dict(metrics)
    units = {m["name"]: m["unit"] for m in expected}
    problems = ["unexpected metric %s" % n for n in metrics if n not in units]
    problems += ["metric %s has unit %s, BENCHMARK.json says %s"
                 % (n, metrics[n]["unit"], units[n])
                 for n in metrics if n in units and metrics[n]["unit"] != units[n]]
    work = LAYER_WORK[workload]
    for name in work["nonzero"] if trace == 1 else []:
        if name in metrics and metrics[name]["value"] == 0:
            problems.append("per-layer metric %s reads 0 on %s, which "
                            "exercises its layer" % (name, workload))
    for m in expected:
        if m["name"] in metrics:
            continue
        if trace == 0:
            problems.append("missing end-to-end metric %s" % m["name"])
        elif m["name"] in work["nonzero"] or m["name"] in work["present"]:
            problems.append("missing per-layer metric %s on %s, which "
                            "exercises its layer" % (m["name"], workload))
        else:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            print("metric %-32s %18.6f %-7s [idle layer]" % (m["name"], 0, m["unit"]))
    ordered = {m["name"]: metrics[m["name"]] for m in expected if m["name"] in metrics}
    return ordered, problems


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    work = os.path.join(build_dir(), "work", workload)
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s printed no result (exit %d)" % (workload, done.returncode))
        return done.returncode or 1, None
    result["metrics"], problems = check_metrics(workload, trace,
                                                result["metrics"])
    for problem in problems:
        print("CHECK FAILED: " + problem)
        log("CHECK FAILED: " + problem)
    if problems:
        result["correct"] = False
    code = done.returncode if done.returncode != 0 else (0 if result["correct"] else 1)
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error("unknown workload %s" % args.workload)
    binary = build()
    if binary is None:
        return 2
    seconds = int(args.seconds) if float(args.seconds).is_integer() else args.seconds
    if len(names) == 1:
        code, result = run_one(binary, names[0], args.seed, seconds, args.trace)
        if result is not None:
            print(json.dumps(result))
        return code
    # --workload all: one block per workload, then a summary line.
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in names:
        print("== %s" % name)
        code, result = run_one(binary, name, args.seed, seconds, args.trace)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            continue
        print(json.dumps(result))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
