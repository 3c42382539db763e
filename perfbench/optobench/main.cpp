// optobench — one benchmark process: runs one workload's sweeps on a pool
// sized by OPTO_THREADS and prints one JSON object of raw measurements.
// perfbench/run.py drives it (once per thread count, traced and not) and
// derives the reported metrics; see perfbench/NOTES.md.
//
//   optobench --workload <name> --seed <n> --seconds <s>
//             [--trace] [--replay] [--check] [--setup-only] [--tiny]
//             [--fresh-malloc]
//
//   --seconds     sweep until this much time was spent in timed sweeps
//                 (and at least 3 sweeps, 2 with --tiny)
//   --trace       expect OPTO_OBS=1 and record spans and obs deltas
//   --replay      after the timed sweeps, re-run one sweep with obs on to
//                 count simulated worm steps (and compare its digests)
//   --check       cross-check sample passes against sim::reference_run
//   --setup-only  stop at the first timed call (set-up timing)
//   --tiny        smoke-test sizes
//   --fresh-malloc  hold glibc malloc at a fresh process's thresholds
//                 (see pin_malloc)
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "opto/obs/obs.hpp"
#include "opto/par/simd.hpp"
#include "opto/par/thread_pool.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/validate.hpp"
#include "opto/util/json.hpp"
#include "optobench/probe.hpp"
#include "optobench/workloads.hpp"

namespace perfbench {
namespace {

/// The simulator's dense-registry ceiling (a private constant in
/// sim/simulator.cpp), used only to label each instance's backend.
constexpr std::size_t kDenseRegistryMaxChannels = std::size_t{1} << 17;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool replay = false;
  bool check = false;
  bool setup_only = false;
  bool tiny = false;
  bool fresh_malloc = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "optobench: %s\n", problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = next();
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(next());
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--replay") {
      options.replay = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--fresh-malloc") {
      options.fresh_malloc = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (options.workload.empty() || !have_seed)
    usage("--workload and --seed are required");
  if (!options.setup_only && options.seconds <= 0.0)
    usage("--seconds must be positive");
  return options;
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Pins the calling thread to `cpu` (-1: leave it where it is).
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Pins glibc's mmap and heap-trim thresholds. glibc raises both the
/// first time a large mapped block is freed. Before that, the large buffers
/// each trial allocates are mapped, faulted in and unmapped on every trial;
/// after it, they are reused. Which allocation triggers the raise depends
/// on the seed: with glibc's defaults, `leveled_sweep` sweeps took 0.55 s
/// at some seeds and 0.86 s at others, most of it system time.
///  * settled (default): the thresholds a long-running process reaches,
///    as if it had freed a 32 MiB block (the largest raise glibc makes).
///  * fresh: glibc's starting values, held. Every trial pays what the
///    first trials of a process pay.
void pin_malloc(bool fresh) {
  if (fresh) {
    mallopt(M_MMAP_THRESHOLD, 128 << 10);  // trim stays at its 128 KiB
    return;
  }
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
}

struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTimes cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

/// VmHWM of this process image. ru_maxrss would also count the parent's
/// pages, since Linux carries it across fork and exec.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  return 0;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Field-exact comparison of the production pass against the reference
/// engine, over the fields the reference defines (the same set the
/// differential fuzzer compares).
void compare_to_reference(const opto::PassResult& fast,
                          const opto::PassResult& ref,
                          const std::string& name,
                          std::vector<std::string>& issues) {
  using opto::WormStatus;
  if (fast.worms.size() != ref.worms.size()) {
    issues.push_back(name + ": worm count differs from the reference");
    return;
  }
  std::size_t worm_mismatches = 0;
  for (std::size_t id = 0; id < fast.worms.size(); ++id) {
    const auto& a = fast.worms[id];
    const auto& b = ref.worms[id];
    const bool killed_fields_differ =
        a.status == WormStatus::Killed &&
        (a.blocked_by != b.blocked_by || a.blocked_at_link != b.blocked_at_link);
    if (a.status != b.status || a.finish_time != b.finish_time ||
        a.truncated != b.truncated || a.corrupted != b.corrupted ||
        a.fault_loss != b.fault_loss || a.pinned_loss != b.pinned_loss ||
        killed_fields_differ)
      ++worm_mismatches;
  }
  if (worm_mismatches != 0)
    issues.push_back(name + ": " + std::to_string(worm_mismatches) +
                     " worm outcomes differ from the reference");
  const auto& m = fast.metrics;
  const auto& r = ref.metrics;
  if (m.launched != r.launched || m.delivered != r.delivered ||
      m.killed != r.killed || m.truncated != r.truncated ||
      m.truncated_arrivals != r.truncated_arrivals ||
      m.contentions != r.contentions || m.retunes != r.retunes ||
      m.pinned_blocks != r.pinned_blocks || m.worm_steps != r.worm_steps ||
      m.makespan != r.makespan)
    issues.push_back(name + ": pass metrics differ from the reference");
}

struct SampleChecks {
  std::uint64_t samples = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> issues;
};

/// Runs every sample pass through Simulator::run and the reference
/// engine, and validates the production result.
SampleChecks check_samples(const Workload& workload) {
  SampleChecks checks;
  std::vector<std::string>& issues = checks.issues;
  for (const PassSample& sample : workload.pass_samples()) {
    ++checks.samples;
    const std::size_t before = issues.size();
    opto::Simulator simulator(sample.collection, sample.config);
    simulator.set_pinned(sample.pinned);
    const opto::PassResult fast = simulator.run(sample.specs);
    const opto::PassResult ref = opto::reference_run(
        sample.collection, sample.config, sample.specs, sample.pinned);
    compare_to_reference(fast, ref, sample.name, issues);
    const auto report = opto::validate_pass(sample.collection, sample.config,
                                            sample.specs, fast);
    if (!report.ok())
      issues.push_back(sample.name + ": validate_pass: " +
                       report.violations.front());
    if (issues.size() > before) ++checks.failed;
  }
  return checks;
}

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

void write_strings(opto::JsonWriter& json, const std::vector<std::string>& xs) {
  json.begin_array();
  for (const std::string& x : xs) json.value(x);
  json.end_array();
}

void write_obs(opto::JsonWriter& json, const std::map<std::string, double>& m) {
  json.begin_object();
  for (const auto& [name, value] : m) {
    json.key(name);
    json.value(value);
  }
  json.end_object();
}

int run(const Options& options) {
  if (opto::obs::enabled() != options.trace) {
    std::fprintf(stderr,
                 "optobench: obs is %s but --trace is %s (set OPTO_OBS)\n",
                 opto::obs::enabled() ? "on" : "off",
                 options.trace ? "given" : "absent");
    return 2;
  }
  std::unique_ptr<Workload> workload =
      make_workload(options.workload, options.seed, options.tiny);
  if (!workload) usage("unknown workload " + options.workload);

  pin_malloc(options.fresh_malloc);
  const std::size_t threads = opto::ThreadPool::global().thread_count();
  Probe probe(options.trace, threads == 1);
  workload->prepare(probe);
  const std::uint64_t first_timed_ns = monotonic_ns();

  std::ostringstream out;
  opto::JsonWriter json(out);
  json.begin_object();
  json.key("workload");
  json.value(options.workload);
  json.key("threads");
  json.value(static_cast<std::uint64_t>(threads));
  json.key("first_timed_mono_ns");
  json.value(first_timed_ns);
  if (options.setup_only) {
    json.end_object();
    std::cout << out.str() << "\n";
    return 0;
  }

  // Timed sweeps (see --seconds above).
  const std::size_t min_sweeps = options.tiny ? 2 : 3;
  std::vector<double> sweep_wall_s;
  CpuTimes cpu;
  SweepResult first;
  bool sweeps_agree = true;
  double timed_s = 0.0;
  const std::vector<int> cpus = allowed_cpus();
  while (sweep_wall_s.size() < min_sweeps || timed_s < options.seconds) {
    if (!sweep_wall_s.empty()) workload->prepare(probe);
    // One thread: each sweep on the next CPU in turn, so a run samples
    // every CPU instead of whichever one a co-tenant slows down.
    if (threads == 1) pin_to(cpus[sweep_wall_s.size() % cpus.size()]);
    const CpuTimes cpu0 = cpu_now();
    const Clock::time_point t0 = Clock::now();
    SweepResult result = workload->sweep(probe);
    const double wall = static_cast<double>(nanos_between(t0, Clock::now())) / 1e9;
    const CpuTimes cpu1 = cpu_now();
    cpu.user_s += cpu1.user_s - cpu0.user_s;
    cpu.sys_s += cpu1.sys_s - cpu0.sys_s;
    sweep_wall_s.push_back(wall);
    timed_s += wall;
    if (sweep_wall_s.size() == 1)
      first = std::move(result);
    else if (result.call_digests != first.call_digests)
      sweeps_agree = false;
  }

  Digest whole;
  for (const std::uint64_t d : first.call_digests) whole.add(d);
  std::uint64_t units = 0;
  for (const std::uint32_t u : first.call_units) units += u;

  json.key("simd_level");
  json.value(opto::simd::level_name(opto::simd::active_level()));
  json.key("sweeps");
  json.value(static_cast<std::uint64_t>(sweep_wall_s.size()));
  json.key("sweep_wall_s");
  json.begin_array();
  for (const double w : sweep_wall_s) json.value(w);
  json.end_array();
  json.key("units_per_sweep");
  json.value(units);
  json.key("unit_ms");
  json.begin_array();
  for (const double ms : probe.take_unit_ms()) json.value(ms);
  json.end_array();
  json.key("call_ms");
  json.begin_array();
  for (const double ms : probe.take_call_ms()) json.value(ms);
  json.end_array();
  json.key("cpu_user_s");
  json.value(cpu.user_s);
  json.key("cpu_sys_s");
  json.value(cpu.sys_s);

  json.key("digest");
  json.value(hex(whole.value()));
  json.key("call_digests");
  json.begin_array();
  for (const std::uint64_t d : first.call_digests) json.value(hex(d));
  json.end_array();
  json.key("call_units");
  json.begin_array();
  for (const std::uint32_t u : first.call_units)
    json.value(static_cast<std::uint64_t>(u));
  json.end_array();
  json.key("sweeps_agree");
  json.value(sweeps_agree);
  json.key("rounds_mean");
  json.value(first.rounds_count > 0 ? first.rounds_sum / first.rounds_count
                                    : 0.0);
  json.key("requests_per_sweep");
  json.value(first.requests);
  json.key("unserved_share");
  json.value(first.unserved_den > 0 ? first.unserved_num / first.unserved_den
                                    : 0.0);
  json.key("failed_units");
  json.value(first.failed_units);
  json.key("problems");
  write_strings(json, first.problems);

  json.key("channels");
  json.begin_array();
  for (const ChannelSpace& space : workload->channel_spaces()) {
    const std::uint64_t channels = space.links * space.bandwidth;
    json.begin_object();
    json.key("instance");
    json.value(space.instance);
    json.key("channels");
    json.value(channels);
    json.key("registry");
    json.value(channels <= kDenseRegistryMaxChannels ? "dense"
                                                     : "open-addressing");
    json.end_object();
  }
  json.end_array();

  if (options.trace) {
    // Per call kind: the call's wall time, the benchmark's spans inside
    // it (thread-summed), and the obs deltas around it.
    json.key("calls");
    json.begin_object();
    for (std::size_t c = 0; c < kCallCount; ++c) {
      const auto call = static_cast<Call>(c);
      json.key(to_string(call));
      json.begin_object();
      json.key("wall_s");
      json.value(static_cast<double>(probe.call_ns(call)) / 1e9);
      json.key("spans_s");
      json.begin_object();
      for (std::size_t s = 0; s < kSpanCount; ++s) {
        const auto span = static_cast<Span>(s);
        json.key(to_string(span));
        json.value(static_cast<double>(probe.span_ns(call, span)) / 1e9);
      }
      json.end_object();
      json.key("obs");
      write_obs(json, probe.call_obs(call));
      json.end_object();
    }
    json.end_object();
  }

  if (options.replay) {
    // Worm steps are a model count the untraced calls do not return; one
    // more sweep with obs on counts them, and must reproduce the digests.
    Probe quiet(false, false);
    opto::obs::set_enabled(true);
    const auto before = obs_snapshot();
    workload->prepare(quiet);
    const SweepResult replay = workload->sweep(quiet);
    const auto after = obs_snapshot();
    opto::obs::set_enabled(false);
    json.key("replay_worm_steps");
    json.value(value_or_zero(after, "sim.worm_steps") -
               value_or_zero(before, "sim.worm_steps"));
    json.key("replay_agrees");
    json.value(replay.call_digests == first.call_digests);
  }

  if (options.check) {
    const SampleChecks checks = check_samples(*workload);
    json.key("check_samples");
    json.value(checks.samples);
    json.key("check_failed");
    json.value(checks.failed);
    json.key("check_issues");
    write_strings(json, checks.issues);
  }

  json.key("peak_rss_kb");
  json.value(peak_rss_kb());
  json.end_object();
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
