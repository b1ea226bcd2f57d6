#!/usr/bin/env python3
"""Run one perfbench workload and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a psp checkout.  The script builds the benchmark
from source into .bench_build/ (dune's shared cache off, so nothing is
written outside the checkout), runs it once, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics:
the end_to_end metrics of BENCHMARK.json when --trace is 0, its
per_layer metrics when --trace is 1.  The full result (every metric,
run metadata, machine fingerprint, per-layer self times) goes to
.bench_build/perfbench/<workload>-seed<n>-trace<0|1>.json; the benchmark
runs in that directory, and a traced run writes its spans there, to the
same name ending in -spans.json.

The exit code is the benchmark's: 0 only when every answer was checked
correct.  A failed build, a missing metric or a run past the time limit
exits 1 without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bin/main.exe"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bin", "main.exe")
OUT_DIR = os.path.join(ROOT, BUILD_DIR, "perfbench")
WORKLOADS = ("seq-pyramid", "serve-burst", "publish-sim")
TIME_LIMIT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project at %s: not a psp checkout" % ROOT)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", TARGET]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if done.returncode != 0:
        die("build failed")


def compiler_config():
    try:
        out = subprocess.run(["ocamlopt", "-config"], capture_output=True,
                             text=True, cwd=ROOT).stdout
    except OSError:
        return {}
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    config = compiler_config()
    return {
        "nproc": os.cpu_count(),
        "ocaml": config.get("version", "unknown"),
        "flambda": config.get("flambda", "unknown") == "true",
        "cpu": cpu_model(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=OUT_DIR, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % TIME_LIMIT_S)
    sys.stderr.write(done.stderr)

    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        die("the benchmark printed no result (exit %d)" % done.returncode)

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            die("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s measured in %s, declared in %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    result["meta"]["machine"] = fingerprint()
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print("machine: " + json.dumps(result["meta"]["machine"]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
