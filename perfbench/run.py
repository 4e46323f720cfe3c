#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper-sweep|gen-static|serve-mixed \\
        --seed N --seconds S --trace 0|1

The last line of stdout is the result object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1). The line
before it records the run: host probe, nproc, build type, compiler, git sha.

Steadiness mode runs one workload K times and prints, per metric, the
median, the quartiles and (q3 - q1) / median next to the metric's bound:

    python3 perfbench/run.py --workload gen-static --repeat 5 [--seed 1]
        [--same-seed] [--trace 0|1]

Seeds are N, N+1, ... unless --same-seed, which also checks that every work
count repeats exactly.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "run"
WORKLOADS = ("paper-sweep", "gen-static", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        configured = subprocess.run(cmd, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True)
        if configured.returncode != 0:
            log(configured.stdout)
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    built = subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
    if built.returncode != 0:
        log(built.stdout)
        return False
    return True


def build_context():
    """Build type, compiler and git sha of what is being measured."""
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], text=True,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL).stdout
        version = version.splitlines()[0] if version else compiler
    except OSError:
        version = compiler
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             text=True, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        sha = ""
    return {"build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "compiler": version, "git_sha": sha or "unknown"}


def run_once(workload, seed, seconds, trace):
    """Runs the driver; returns (context, result) or None on any failure."""
    cmd = [str(BUILD / "owl_perfbench"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT),
           "--served", str(BUILD / "owl_served"), "--work", str(WORK)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s")
        return None
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"perfbench: {workload} exited {proc.returncode}")
        return None
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        log("perfbench: unparsable driver output")
        return None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(declared):
        log("perfbench: printed metrics differ from BENCHMARK.json")
        return None
    return context, result


def spread_table(workload, runs, trace):
    """Median, quartiles and (q3 - q1) / median per metric over the runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(runs[0][1]["metrics"])
    print(f"{workload}: {len(runs)} runs, trace {trace}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [r[1]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = " ok" if spread <= bound / 3 else (
                " within bound" if spread <= bound else " TOO WIDE")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    # The host's own drift over the same runs, for comparison.
    probes = [r[0]["probe_start_s"] for r in runs]
    q1, med, q3 = statistics.quantiles(probes, n=4)
    print(f"{'host probe at run start':40s} {med:12.6g} {q1:12.6g} "
          f"{q3:12.6g} {(q3 - q1) / med:8.4f}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    context = build_context()

    if args.repeat <= 0:
        outcome = run_once(args.workload, args.seed, args.seconds, args.trace)
        if outcome is None:
            return 1
        run_context, result = outcome
        run_context.update(context)
        print(json.dumps({"context": run_context}))
        print(json.dumps(result), flush=True)
        return 0

    runs = []
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        outcome = run_once(args.workload, seed, args.seconds, args.trace)
        if outcome is None:
            return 1
        log(f"run {i + 1}/{args.repeat} seed {seed}: correct "
            f"{outcome[1]['correct']} failed {outcome[1]['failed']}")
        if not args.trace:
            log("  " + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                outcome[1]["metrics"].items()) +
                f" probe={outcome[0]['probe_start_s']:.4g}")
        runs.append(outcome)
    spread_table(args.workload, runs, args.trace)
    if args.same_seed:
        # Work counts and the ratios made only of counts must repeat; the
        # trace ratios and pool efficiency are made of times.
        counts = [{k: v["value"] for k, v in r[1]["metrics"].items()
                   if v["unit"] == "count" or (
                       v["unit"] == "ratio" and
                       not k.startswith(("trace.", "core.")))}
                  for r in runs]
        same = all(c == counts[0] for c in counts)
        print("work counts repeat exactly" if same else
              "work counts DIFFER between runs of one seed")
        if not same:
            return 1
    return 0 if all(r[1]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
