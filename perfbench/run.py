#!/usr/bin/env python3
"""Repository benchmark for vgr: three workloads through the public scenario API.

    python3 perfbench/run.py --workload flood_dense --seed 0 --seconds 30 --trace 0

Builds perfbench/ (and with it the library in ../src) into .bench_build/ on
first use, generates the workload's inputs from --seed, runs the measuring
binary and checks its outputs against perfbench/reference.json. Prints one
line per metric with its unit, then as the last line a JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the spans to
.bench_trace/). Exits nonzero on any output mismatch. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_trace"
BINARY = BUILD_DIR / "vgr_perfbench"
REFERENCE_FILE = BENCH_DIR / "reference.json"

# Outputs are checked bit for bit against reference.json at DEFAULT_SEED on
# every invocation. HELD_OUT_SEED is reserved for confirming later
# performance claims; its references are recorded too.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7

WORKLOADS = ("flood_dense", "inter_ab_sweep", "congestion_dcc")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def threads():
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def make_inputs(workload, seed):
    """The generated inputs of `workload` at `seed`, as the binary's key=value spec.

    Scenario seeds of a workload start at seed * runs + 1, so seed 0 gives
    the repository's usual seeds (1, or 1..32 for the A/B sweep).
    """
    if workload == "flood_dense":
        items = dict(experiment="intra", seed=seed + 1, spacing_m=7.5, sim_s=30, attack="none")
    elif workload == "inter_ab_sweep":
        runs = 32
        items = dict(experiment="inter_ab", runs=runs, first_run=seed * runs,
                     threads=threads(), spacing_m=30, sim_s=20, attack="inter")
    elif workload == "congestion_dcc":
        items = dict(experiment="inter", seed=seed + 1, spacing_m=30, sim_s=20,
                     attack="congestion", flood_hz=4500, mac=1, dcc=1, beacon_s=0.1,
                     packet_s=0.1, queue_limit=2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ",".join(f"{k}={v}" for k, v in items.items())


def build():
    """Configures and builds the benchmark binary; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}", file=sys.stderr)
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(threads())])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print("perfbench: build timed out", file=sys.stderr)
                return False
            if proc.returncode != 0:
                print(proc.stdout, file=sys.stderr)
                print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
                return False
    return True


def run_binary(args):
    """Runs the measuring binary; returns its JSON report, or None."""
    # The library reads VGR_* knobs from the environment; the benchmark's
    # inputs must be exactly the generated ones.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VGR_")}
    try:
        proc = subprocess.run([str(BINARY), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: measuring binary timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: binary exited {proc.returncode} without a report", file=sys.stderr)
        return None


def load_reference():
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def reference_mismatches(expected, observed):
    """Keys whose values differ between two output sets (missing keys included)."""
    keys = sorted(set(expected) | set(observed))
    return [k for k in keys if expected.get(k) != observed.get(k)]


def check_references(workload, seed, report, reference):
    """Returns failure messages for outputs that differ from reference.json."""
    stored = reference["workloads"][workload]
    failures = []
    checks = [(DEFAULT_SEED, report.get("reference_outputs"))]
    if str(seed) in stored and seed != DEFAULT_SEED:
        checks.append((seed, report["outputs"]))
    for ref_seed, observed in checks:
        if observed is None:
            failures.append(f"no outputs at reference seed {ref_seed}")
            continue
        bad = reference_mismatches(stored[str(ref_seed)], observed)
        if bad:
            failures.append(f"seed {ref_seed}: outputs differ from reference.json: "
                            + ", ".join(bad))
    return failures


def metric_lines(workload, report, declared):
    """Human-readable lines: one per declared metric, with unit and samples."""
    lines = []
    for m in declared:
        got = report["metrics"].get(m["name"])
        if got is None:
            lines.append(f"{workload:16s} {m['name']:34s} MISSING")
            continue
        lines.append(f"{workload:16s} {m['name']:34s} {got['value']:>16.6g} {got['unit']:6s}"
                     f" (n={got['samples']})")
    return lines


def update_reference():
    """Regenerates reference.json from the current build (after a deliberate
    change of outputs, which the commit must explain)."""
    reference = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for w in WORKLOADS:
        reference["workloads"][w] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            report = run_binary(["--mode", "e2e", "--seconds", "1",
                                 "--inputs", make_inputs(w, seed)])
            if report is None or report["failures"]:
                print(f"perfbench: {w} seed {seed} did not run cleanly", file=sys.stderr)
                return 1
            reference["workloads"][w][str(seed)] = report["outputs"]
    with open(REFERENCE_FILE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true",
                   help="rewrite reference.json from this build and exit")
    a = p.parse_args(argv)
    if not 0 <= a.seed < 2**32:
        p.error("--seed must be in [0, 2^32)")
    if a.seconds <= 0:
        p.error("--seconds must be positive")
    if not a.update_reference and a.workload is None:
        p.error("--workload is required")

    if not build():
        return 2
    if a.update_reference:
        return update_reference()

    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if a.trace else "end_to_end"]
    mode = "trace" if a.trace else "e2e"
    args = ["--mode", mode, "--seconds", str(a.seconds),
            "--inputs", make_inputs(a.workload, a.seed),
            "--reference-inputs", make_inputs(a.workload, DEFAULT_SEED)]
    if a.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        args += ["--trace-out", str(TRACE_DIR / f"{a.workload}-seed{a.seed}.json")]
    started = time.monotonic()
    report = run_binary(args)
    if report is None:
        return 2

    failures = report["failures"] + check_references(a.workload, a.seed, report,
                                                     load_reference())
    attempted = report["attempted"]
    failed = min(len(failures), attempted)
    stamp = report["stamp"]
    print(f"# perfbench workload={a.workload} seed={a.seed} mode={mode} "
          f"nproc={len(os.sched_getaffinity(0))} threads={stamp['threads']} "
          f"compiler=\"{stamp['compiler']}\" build_type={stamp['build_type']} "
          f"reps={stamp['reps']} setup_reps={stamp['setup_reps']} "
          f"wall={time.monotonic() - started:.1f}s")
    if not stamp["optimized"]:
        print("# WARNING: unoptimised build; these timings do not count")
    for line in metric_lines(a.workload, report, declared):
        print(line)
    if not a.trace:
        print(f"{a.workload:16s} {'failed_frac':34s} {failed / attempted:>16.6g} {'1':6s}"
              f" (n={attempted})")
    for msg in failures:
        print(f"# FAILED: {msg}")

    metrics = {m["name"]: {"value": report["metrics"][m["name"]]["value"],
                           "unit": report["metrics"][m["name"]]["unit"]}
               for m in declared if m["name"] in report["metrics"]}
    correct = not failures and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
