// BenchRecord — the versioned, machine-readable perf artifact every
// bench/experiment binary emits. One record is a snapshot of the obs
// registry (counters, phase timings, annotations) plus run environment
// (git sha, threads, scale) and derived metrics (worm-steps/s, registry
// hit rate, loss splits, allocations per pass).
//
// Schema v1, top-level keys:
//   schema          "opto.bench_record"
//   schema_version  1
//   label           slug naming the bench
//   env             { git_sha, threads, obs, repro_scale, rng }
//   annotations     { free-form string notes, e.g. base_seed }
//   counters        { name: integer } — deterministic totals
//   phases          { name: { calls, wall_ns, cpu_ns } }
//   metrics         { name: number } — what bench_compare diffs
//
// The suite roll-up written by scripts/run_perf_suite.sh wraps records:
//   { schema: "opto.bench_suite", schema_version: 1, label, scale,
//     records: [ BenchRecord... ] }
#pragma once

#include <ostream>
#include <string>

namespace opto::obs {

inline constexpr int kBenchRecordSchemaVersion = 1;
inline constexpr const char* kBenchRecordSchema = "opto.bench_record";
inline constexpr const char* kBenchSuiteSchema = "opto.bench_suite";

/// Serializes the current obs snapshot as one BenchRecord document.
void write_bench_record(std::ostream& os, const std::string& label);

/// Writes <OPTO_RESULTS_DIR>/benchrecord_<label>.json. No-ops (returning
/// false) when the env var is unset or observation is disabled, so
/// OPTO_OBS=0 runs leave no perf artifacts to diverge on.
bool write_bench_record_file(const std::string& label);

/// Registers an atexit hook that calls write_bench_record_file(label) —
/// experiment banners use this so every bench binary emits its record on
/// clean exit without per-bench code. Later labels override earlier ones.
void install_bench_record_at_exit(const std::string& label);

}  // namespace opto::obs
