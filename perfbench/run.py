#!/usr/bin/env python3
"""Entry point of the gpuksel benchmark (see README.md beside this file).

Run one workload (builds the binary first, from source, into .bench_build/):

    python3 perfbench/run.py --workload flat_open --seed 1 --seconds 20 --trace 0

prints every metric by name and unit, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  The full
result (fingerprint, checks, extra figures) is kept in .bench_build/results/.

Other modes:

    python3 perfbench/run.py selfcheck [--seconds S]   # determinism self-check
    python3 perfbench/run.py compare A.json B.json     # like-with-like only
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["flat_open", "ivf_batch", "mutable_mixed", "paper_select"]
# The seed claims are made on; README.md names the held-out one.
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
# Fingerprint keys that may differ between two outputs being compared.
UNCOMPARED_KEYS = {"git_commit"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; output goes to a log file."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace, tag=""):
    """Runs the binary once and returns its result document."""
    os.makedirs(RESULTS, exist_ok=True)
    base = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}{tag}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", base + ".json", "--commit", commit()]
    if trace:
        cmd += ["--spans", base + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload}: perfbench exited with code {proc.returncode}")
    with open(base + ".json") as f:
        return json.load(f)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def benchmark(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()
    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = spec[section]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for key, value in result["fingerprint"].items():
        print(f"  fingerprint {key} = {value}")
    print(f"  checks passed: {len(result['checks'])}  "
          f"failures: {len(result['failures'])}")
    for failure in result["failures"]:
        print("  FAILED " + failure, file=sys.stderr)
    for name, m in sorted(result["extra"].items()):
        print(f"  extra {name} = {m['value']:.6g} {m['unit']}")
    metrics = {}
    for entry in wanted:
        m = result[section].get(entry["name"])
        if m is None:
            fail(f"{args.workload}: metric {entry['name']} was not reported")
        metrics[entry["name"]] = {"value": m["value"], "unit": entry["unit"]}
        print(f"  {entry['name']} = {m['value']:.6g} {entry['unit']} "
              f"({entry['better']} is better)")
    correct = result["correct"]
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics if correct else {}}
    print(json.dumps(line))
    if not correct:
        sys.exit(1)


def differing_keys(a, b):
    keys = (set(a) | set(b)) - UNCOMPARED_KEYS
    return sorted(k for k in keys if a.get(k) != b.get(k))


def compare(args):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    diff = differing_keys(a["fingerprint"], b["fingerprint"])
    if diff:
        for k in diff:
            print(f"  {k}: {a['fingerprint'].get(k)!r} vs "
                  f"{b['fingerprint'].get(k)!r}", file=sys.stderr)
        print("perfbench: refusing to compare outputs whose fingerprints "
              "differ", file=sys.stderr)
        sys.exit(2)
    for section in ("end_to_end", "per_layer", "extra"):
        for name in sorted(set(a[section]) & set(b[section])):
            va = a[section][name]["value"]
            vb = b[section][name]["value"]
            ratio = f"{vb / va:.4f}x" if va else "-"
            print(f"{section:10} {name:45} {va:14.6g} {vb:14.6g} {ratio}")


def selfcheck(args):
    """Two runs per workload with one seed must agree exactly on the answer
    digest and on every metric the binary marks deterministic."""
    build()
    ok = True
    for workload in WORKLOADS:
        runs = [run_binary(workload, DEFAULT_SEED, args.seconds, 1,
                           tag=f"-selfcheck{i}") for i in range(2)]
        a, b = runs
        problems = [f"fingerprint {k}"
                    for k in differing_keys(a["fingerprint"],
                                            b["fingerprint"])]
        if a["digest"] != b["digest"]:
            problems.append("answer digest")
        for name in a["deterministic"]:
            for section in ("end_to_end", "per_layer", "extra"):
                if name in a[section] and (a[section][name]["value"] !=
                                           b[section].get(name, {}).get(
                                               "value")):
                    problems.append(name)
        for r in runs:
            if not r["correct"]:
                problems += r["failures"]
        status = "ok" if not problems else "MISMATCH " + ", ".join(problems)
        print(f"{workload:14} {len(a['deterministic'])} deterministic "
              f"metrics, digest {a['digest']}: {status}")
        ok = ok and not problems
    sys.exit(0 if ok else 1)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "selfcheck":
        p = argparse.ArgumentParser(prog="run.py selfcheck")
        p.add_argument("--seconds", type=float, default=3)
        return selfcheck(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return benchmark(p.parse_args())


if __name__ == "__main__":
    main()
