#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload: two untraced runs and one traced run through
run.py --tiny must each report every metric BENCHMARK.json names, with
its unit, and no failed check; both untraced runs must print the same
outcome digest; and optobench run directly at OPTO_THREADS=1 and 4 must
print that digest too. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "optobench")
SEED = 7


def fail(message):
    print("smoke: FAIL: %s" % message)
    sys.exit(1)


def run_bench(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(SEED), "--seconds", "0.2", "--trace",
            str(trace), "--tiny"]
    result = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    if result.returncode != 0:
        fail("%s trace=%d exited with %d" % (workload, trace,
                                             result.returncode))
    lines = result.stdout.strip().splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("digest:")]
    return json.loads(lines[-1]), digest[0] if digest else None


def check_result(workload, trace, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s trace=%d: %d of %d failed a check (failed_share != 0)"
             % (workload, trace, result["failed"], result["attempted"]))
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail("%s trace=%d: metric %s missing" % (workload, trace,
                                                     metric["name"]))
        if got["unit"] != metric["unit"]:
            fail("%s: %s unit %s != %s" % (workload, metric["name"],
                                           got["unit"], metric["unit"]))


def direct_digest(workload, threads):
    env = dict(os.environ, OPTO_THREADS=str(threads), OPTO_OBS="0")
    result = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(SEED), "--seconds",
         "0.05", "--tiny"], env=env, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        fail("optobench %s at %d threads exited with %d"
             % (workload, threads, result.returncode))
    return json.loads(result.stdout.strip().splitlines()[-1])["digest"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in [w["name"] for w in spec["workloads"]]:
        first, digest = run_bench(workload, 0)
        check_result(workload, 0, first, spec["end_to_end"])
        second, again = run_bench(workload, 0)
        check_result(workload, 0, second, spec["end_to_end"])
        if digest is None or digest != again:
            fail("%s: digest %s then %s" % (workload, digest, again))
        for threads in (1, 4):
            if direct_digest(workload, threads) != digest:
                fail("%s: digest differs at OPTO_THREADS=%d"
                     % (workload, threads))
        traced, _ = run_bench(workload, 1)
        check_result(workload, 1, traced, spec["per_layer"])
        print("smoke: %-18s ok (digest %s)" % (workload, digest))
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
