#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository checkout.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the benchmark (Release) into .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The result line is checked against
BENCHMARK.json: exactly its metric names and units, in order. A traced run
also writes a Chrome trace to .bench_build/traces/<workload>.json, which
opens in https://ui.perfetto.dev.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
NAME_RULE = re.compile(r"^[A-Za-z0-9_.-]+$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a repository checkout: %s is missing" % needed)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD, "--target", "e2e_bench", "e2e_selftest",
                        "-j", jobs], stdout=sys.stderr) != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, expected):
    """Returns the problems of one result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last stdout line is not JSON"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not %s" % sorted(RESULT_KEYS)]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number")
    got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
    if got != expected:
        problems.append("metrics differ from BENCHMARK.json: got %s, expected %s"
                        % ([g[0] for g in got], [e[0] for e in expected]))
    for name, m in result["metrics"].items():
        if not NAME_RULE.match(name):
            problems.append("metric name %r breaks the name rule" % name)
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append("metric %s has no numeric value" % name)
    return problems


def selftest():
    build()
    status = subprocess.call([os.path.join(BUILD, "e2e_selftest")])
    listed = subprocess.run([os.path.join(BUILD, "e2e_bench"), "--list-metrics"],
                            stdout=subprocess.PIPE, universal_newlines=True, check=True)
    tables = {"end_to_end": [], "per_layer": []}
    for row in listed.stdout.split("\n"):
        if row:
            kind, name, unit = row.split(" ")
            tables[kind].append((name, unit))
    problems = []
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        if tables[kind] != expected_metrics(trace):
            problems.append("e2e_bench %s metrics differ from BENCHMARK.json" % kind)
        for name, _ in tables[kind]:
            if not NAME_RULE.match(name):
                problems.append("metric name %r breaks the name rule" % name)
    # The result-line check itself.
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}
    if check_result(json.dumps(good), [("a_ms", "ms")]):
        problems.append("check_result rejects a good line")
    bad = dict(good, metrics={"a ms": {"value": 1.5, "unit": "ms"}})
    if not check_result(json.dumps(bad), [("a ms", "ms")]):
        problems.append("check_result accepts a name that breaks the rule")
    if not check_result(json.dumps(good), [("a_ms", "ms"), ("b_ms", "ms")]):
        problems.append("check_result accepts a missing metric")
    for p in problems:
        print("FAIL: " + p, file=sys.stderr)
    if status != 0 or problems:
        sys.exit(1)
    print("run.py self-test: metric names match BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if not args.workload:
        fail("--workload is required")
    build()
    command = [os.path.join(BUILD, "e2e_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        command += ["--trace-out", os.path.join(BUILD, "traces", args.workload + ".json")]
    run = subprocess.run(command, stdout=subprocess.PIPE, universal_newlines=True)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], expected_metrics(args.trace == 1))
    for p in problems:
        print("e2ebench: " + p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
