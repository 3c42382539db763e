#!/usr/bin/env python3
"""optoroute benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/optobench (CMake, into .bench_build/ at the checkout
root) from the library sources in src/, then runs the workload in
separate processes, because the library sizes its thread pool once per
process from OPTO_THREADS:

  --trace 0  untraced runs (OPTO_OBS=0) at 1 and 4 threads plus set-up-only
             launches; prints the end-to-end metrics.
  --trace 1  untraced and traced (OPTO_OBS=1) runs at 1 and 4 threads,
             and a 1-thread run with malloc at a fresh process's
             thresholds; prints the per-layer split.

Every run checks the simulated outcomes: per-call digests equal across
processes, thread counts and sweeps, a replay with obs on, sample passes
against the reference engine, and the workloads' own invariants. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/NOTES.md for the workloads and metric definitions.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "optobench")

# Variables that change what the program does; the benchmark measures
# the program as shipped, so a caller must not set them.
GUARDED_ENV = ("OPTO_PASS_SHARDING", "OPTO_SIMD", "OPTO_OBS", "OPTO_PROFILE",
               "REPRO_SCALE")

THREADS = (1, 4)
SETUP_ONLY_LAUNCHES = 8
PROCESS_TIMEOUT_S = 150

WORKLOADS = ("leveled_sweep", "contention_storm", "streaming", "rwa_zoo")


class BenchError(Exception):
    pass


def declared_units(kind):
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def guard_environment():
    present = [name for name in GUARDED_ENV if name in os.environ]
    if present:
        raise BenchError("refusing to run with %s set: the benchmark measures "
                         "the program as shipped" % ", ".join(present))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under %s/src"
                         % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_tool(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"])
    run_tool(["cmake", "--build", BUILD, "-j", jobs, "--target", "optobench"])


def run_tool(argv):
    result = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("%s failed with exit code %d"
                         % (" ".join(argv[:2]), result.returncode))


def launch(args, threads, traced, seconds=None, flags=()):
    """Runs one optobench process; returns its JSON with setup_s added."""
    env = dict(os.environ)
    env["OPTO_THREADS"] = str(threads)
    env["OPTO_OBS"] = "1" if traced else "0"
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed)]
    if seconds is not None:
        argv += ["--seconds", "%.3f" % seconds]
    if traced:
        argv.append("--trace")
    if args.tiny:
        argv.append("--tiny")
    argv += list(flags)
    start_ns = time.monotonic_ns()
    result = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, timeout=PROCESS_TIMEOUT_S,
                            text=True)
    if result.returncode != 0:
        raise BenchError("optobench exited with code %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise BenchError("optobench printed nothing")
    data = json.loads(lines[-1])
    # Process start (as seen from here) to the first timed call.
    data["setup_s"] = (data["first_timed_mono_ns"] - start_ns) / 1e9
    return data


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it."""
    if samples < 20:
        return 50  # smoke-test sizes only
    return int(100 - 1000.0 / samples)


def sweep_best(data):
    """Sweep wall time (s) as the sum of each call's fastest repetition.

    Every sweep makes the same calls on the same inputs, so call i does
    the same work each time; summing the calls' fastest repetitions drops
    the host's slow episodes without needing a whole undisturbed sweep.
    The benchmark's own bookkeeping between calls is left out."""
    calls = len(data["call_digests"])
    times = data["call_ms"]
    if calls == 0 or len(times) != calls * data["sweeps"]:
        raise BenchError("call timings do not line up with the sweeps")
    return sum(min(times[i::calls]) for i in range(calls)) / 1e3


def unit_best(data):
    """Each unit's fastest time (ms) over the sweeps of a 1-thread run.

    Units run in the same order every sweep, so unit i of every sweep is
    the same trial or engine run. Its fastest repetition drops the ones
    the host slowed down (see NOTES.md, "Host noise")."""
    per_sweep = data["units_per_sweep"]
    times = data["unit_ms"]
    if per_sweep == 0 or len(times) != per_sweep * data["sweeps"]:
        raise BenchError("unit timings do not line up with the sweeps")
    return [min(times[i::per_sweep]) for i in range(per_sweep)]


def quantile(values, percentile):
    ordered = sorted(values)
    position = (len(ordered) - 1) * percentile / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def source_identity():
    """Git sha when the checkout is a repository, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git " + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256 " + digest.hexdigest()[:16]


class Verdict:
    """Outcome checks across every process of one run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = reference["units_per_sweep"]
        self.failed_units = reference["failed_units"]
        self.issues = list(reference["problems"])

    def compare(self, label, data):
        """Per-call digests must match the reference process exactly."""
        if not data["sweeps_agree"]:
            self.fail_all("%s: sweeps of one process disagree" % label)
        if data.get("replay_agrees") is False:
            self.fail_all("%s: the obs-on replay changed the outcomes" % label)
        ours = data["call_digests"]
        theirs = self.reference["call_digests"]
        if len(ours) != len(theirs):
            self.fail_all("%s: call lists differ" % label)
            return
        for call, (a, b) in enumerate(zip(ours, theirs)):
            if a != b:
                self.failed_units += self.reference["call_units"][call]
                self.issues.append("%s: call %d digest %s != %s"
                                   % (label, call, a, b))

    def add_samples(self, data):
        self.attempted += data["check_samples"]
        self.failed_units += data["check_failed"]
        self.issues += data["check_issues"]

    def fail_all(self, issue):
        self.failed_units = self.attempted
        self.issues.append(issue)

    @property
    def failed(self):
        return min(self.failed_units, self.attempted)


def per_sweep(value, data):
    return value / data["sweeps"]


def end_to_end(runs, setup_samples):
    one, four = runs[1], runs[4]
    wall_t1 = sweep_best(one)
    units = unit_best(one)
    percentile = tail_percentile(len(units))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s.t1": wall_t1,
        "wall_s.t4": sweep_best(four),
        "worm_steps_per_s.t1": four["replay_worm_steps"] / wall_t1,
        "unit_p50_ms.t1": statistics.median(units),
        "unit_tail_ms.t1": quantile(units, percentile),
        # The 1-thread process allocates in a fixed order; at 4 threads the
        # peak depends on how trials overlap.
        "peak_rss_mb": one["peak_rss_kb"] / 1024.0,
        "sim_rounds": one["rounds_mean"],
        "unserved_share": one["unserved_share"],
    }
    notes = {"unit_tail_ms.t1": "p%d of %d units" % (percentile, len(units))}
    return metrics, notes


def obs_sum(data, calls, name):
    return sum(data["calls"][c]["obs"].get(name, 0.0) for c in calls)


def span_sum(data, calls, spans):
    return sum(data["calls"][c]["spans_s"][s] for c in calls for s in spans)


ALL_CALLS = ("run_trials", "run_strategy_trials", "engine_run", "outside")
TAF_CALLS = ("run_trials",)
PROTOCOL_CALLS = ("run_trials", "engine_run")


def layer_times(data):
    """Per-sweep seconds (thread-summed) of each layer in one traced run."""
    def ns(calls, phase):
        return obs_sum(data, calls, phase + ".wall_ns") / 1e9

    pass_s = ns(ALL_CALLS, "sim.pass")
    taf_pass_s = ns(TAF_CALLS, "sim.pass")
    factories_s = span_sum(data, TAF_CALLS, ("build", "congestion",
                                             "schedule"))
    protocol_s = ns(TAF_CALLS, "protocol.run")
    run_trials_s = ns(TAF_CALLS, "experiment.run_trials")
    capacity_s = run_trials_s * data["threads"]
    strategy_wall = data["calls"]["run_strategy_trials"]["wall_s"]
    times = {
        "paths.build_s": span_sum(data, ALL_CALLS, ("build",)),
        "paths.congestion_s": span_sum(data, ALL_CALLS, ("congestion",)),
        "core.schedule_s": span_sum(data, ALL_CALLS, ("schedule",)),
        "core.protocol_self_s": protocol_s - taf_pass_s,
        "sim.pass_s": pass_s,
        "sim.shard_pass_s": ns(ALL_CALLS, "sim.shard_pass"),
        "benchsupport.run_trials_s": run_trials_s,
        "engine.setup_s": span_sum(data, ("outside",), ("engine_setup",)),
        "engine.self_s": ns(("engine_run",), "engine.run")
                         - ns(("engine_run",), "sim.pass"),
        "rwa.self_s": strategy_wall
                      - ns(("run_strategy_trials",), "sim.pass"),
    }
    per = {name: per_sweep(value, data) for name, value in times.items()}
    per["benchsupport.unattributed_share"] = (
        1.0 - (factories_s + protocol_s) / capacity_s if capacity_s > 0
        else 0.0)
    return per


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(runs, traced, fresh):
    t1, t4 = traced[1], traced[4]
    u1, u4 = runs[1], runs[4]
    one = layer_times(t1)
    four = layer_times(t4)
    passes = obs_sum(t1, ALL_CALLS, "sim.passes")
    steps = obs_sum(t1, ALL_CALLS, "sim.worm_steps")
    probes = obs_sum(t1, ALL_CALLS, "sim.registry_probes")
    pass_ns = obs_sum(t1, ALL_CALLS, "sim.pass.wall_ns")
    metrics = dict(one)
    for name in ("paths.build_s", "paths.congestion_s", "core.schedule_s",
                 "core.protocol_self_s", "sim.pass_s", "sim.shard_pass_s",
                 "benchsupport.unattributed_share"):
        metrics[name + ".t4"] = four[name]
    metrics.update({
        "core.delivered_per_launch": ratio(
            obs_sum(t1, PROTOCOL_CALLS, "sim.delivered"),
            obs_sum(t1, PROTOCOL_CALLS, "sim.launched")),
        "sim.passes": per_sweep(passes, t1),
        "sim.ns_per_worm_step": ratio(pass_ns, steps),
        "sim.ns_per_pass": ratio(pass_ns, passes),
        "sim.registry_probes_per_worm_step": ratio(probes, steps),
        "sim.registry_hit_rate": ratio(
            obs_sum(t1, ALL_CALLS, "sim.registry_hits"), probes),
        # Share of passes whose time the sim.pass phase counts twice (an
        # Auto-sharded pass that falls back to one component nests a
        # second sim.pass timer); sim.pass_s overstates by that much.
        "sim.pass_nested_share": ratio(
            obs_sum(t1, ALL_CALLS, "sim.pass.calls") - passes, passes),
        "sim.sharded_share": ratio(
            obs_sum(t1, ALL_CALLS, "sim.sharded_passes"), passes),
        "par.sys_cpu_s": per_sweep(u1["cpu_sys_s"], u1),
        "par.sys_cpu_s.t4": per_sweep(u4["cpu_sys_s"], u4),
        # The same 1-thread run with malloc held at a fresh process's
        # thresholds (optobench --fresh-malloc).
        "par.fresh_malloc_wall_s": sweep_best(fresh),
        "par.fresh_malloc_sys_cpu_s": per_sweep(fresh["cpu_sys_s"], fresh),
        "par.cpu_util.t4": ratio(u4["cpu_user_s"] + u4["cpu_sys_s"],
                                 sum(u4["sweep_wall_s"]) * u4["threads"]),
        "engine.passes_per_request": ratio(
            obs_sum(t1, ("engine_run",), "sim.passes"),
            t1["requests_per_sweep"] * t1["sweeps"]),
        "obs.overhead_share.t1": sweep_best(t1) / sweep_best(u1) - 1.0,
        "obs.overhead_share.t4": sweep_best(t4) / sweep_best(u4) - 1.0,
        "obs.allocs_per_pass": ratio(obs_sum(t1, ALL_CALLS, "obs.allocs"),
                                     passes),
    })
    return metrics


def print_environment(args, runs):
    reference = runs[1]
    print("# optoroute benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# source: %s" % source_identity())
    print("# nproc=%s threads=%s simd=%s obs(timed)=off"
          % (os.cpu_count(), "/".join(str(t) for t in sorted(runs)),
             reference["simd_level"]))
    for space in reference["channels"]:
        print("# channels: %-24s links x B = %7d -> %s registry"
              % (space["instance"], space["channels"], space["registry"]))
    print("# sweeps: %s; units per sweep: %d"
          % (", ".join("t%d=%d" % (t, runs[t]["sweeps"]) for t in sorted(runs)),
             reference["units_per_sweep"]))


def print_layer_report(traced, runs):
    """Self time per layer and thread count, apart from the e2e numbers."""
    print("# traced split, seconds per sweep (thread-summed at t4):")
    rows = ("paths.build_s", "paths.congestion_s", "core.schedule_s",
            "core.protocol_self_s", "sim.pass_s", "sim.shard_pass_s",
            "engine.setup_s", "engine.self_s", "rwa.self_s",
            "benchsupport.unattributed_share")
    for threads in sorted(traced):
        data = traced[threads]
        times = layer_times(data)
        # Layer times are means over the sweeps, so they are shown
        # against the mean sweep.
        wall = per_sweep(sum(data["sweep_wall_s"]), data)
        overhead = sweep_best(data) / sweep_best(runs[threads]) - 1.0
        print("#  t%d: traced mean sweep %.4f s, obs overhead %+.1f%%"
              % (threads, wall, 100.0 * overhead))
        for name in rows:
            value = times[name]
            if name.endswith("_share"):
                print("#    %-34s %8.1f%%" % (name, 100.0 * value))
            else:
                print("#    %-34s %10.5f s  %6.1f%% of sweep"
                      % (name, value, 100.0 * value / wall))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (perfbench/smoke_test.py)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        guard_environment()
        build()
        runs, traced = {}, {}
        if args.trace == 0:
            # 60% of the time at one thread, 40% at four.
            runs[1] = launch(args, 1, False, 0.6 * args.seconds)
            runs[4] = launch(args, 4, False, 0.4 * args.seconds,
                             ("--replay", "--check"))
            setup = [runs[1]["setup_s"], runs[4]["setup_s"]]
            for i in range(SETUP_ONLY_LAUNCHES):
                setup.append(launch(args, THREADS[i % 2], False,
                                    flags=("--setup-only",))["setup_s"])
        else:
            fifth = 0.2 * args.seconds
            runs[1] = launch(args, 1, False, fifth)
            traced[1] = launch(args, 1, True, fifth)
            runs[4] = launch(args, 4, False, fifth, ("--check",))
            traced[4] = launch(args, 4, True, fifth)
            fresh = launch(args, 1, False, fifth, ("--fresh-malloc",))

        verdict = Verdict(runs[1])
        verdict.compare("t4", runs[4])
        for threads, data in traced.items():
            verdict.compare("traced t%d" % threads, data)
        verdict.add_samples(runs[4])
        if args.trace == 1:
            verdict.compare("fresh-malloc t1", fresh)

        print_environment(args, runs)
        if args.trace == 0:
            metrics, notes = end_to_end(runs, setup)
        else:
            print_layer_report(traced, runs)
            metrics, notes = per_layer(runs, traced, fresh), {}
        units = declared_units("end_to_end" if args.trace == 0
                               else "per_layer")
        if set(metrics) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: %s"
                             % sorted(set(metrics) ^ set(units)))
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1

    for name in sorted(metrics):
        print("%-40s %.6g %s%s" % (name, metrics[name], units[name],
                                   "  (%s)" % notes[name] if name in notes
                                   else ""))
    print("digest: %s" % runs[1]["digest"])
    print("failed_share: %.6g (%d of %d units and samples)"
          % (verdict.failed / verdict.attempted, verdict.failed,
             verdict.attempted))
    for issue in verdict.issues:
        print("check failed: %s" % issue)
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
