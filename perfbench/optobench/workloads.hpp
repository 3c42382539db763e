// The four benchmark workloads. Each is a fixed list of calls into the
// library's public entry points (run_trials, run_strategy_trials,
// Engine::run), built from the benchmark seed alone; one pass over the
// list is a "sweep".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "opto/paths/path_collection.hpp"
#include "opto/sim/simulator.hpp"
#include "optobench/probe.hpp"

namespace perfbench {

/// Exact outcomes of one sweep.
struct SweepResult {
  std::vector<std::uint64_t> call_digests;  ///< one per call, in call order
  std::vector<std::uint32_t> call_units;    ///< units per call
  double rounds_sum = 0.0;  ///< protocol/strategy rounds, or setup rounds
  double rounds_count = 0.0;
  double unserved_num = 0.0;  ///< see unserved_share in NOTES.md
  double unserved_den = 0.0;
  double requests = 0.0;  ///< engine arrivals generated (warm-up included)
  std::uint64_t failed_units = 0;  ///< units that failed an in-run check
  std::vector<std::string> problems;
};

/// One collection of the workload, launched once at random, for the
/// reference-engine cross-check.
struct PassSample {
  std::string name;
  opto::PathCollection collection;
  opto::SimConfig config;
  std::vector<opto::LaunchSpec> specs;
  std::vector<opto::PinnedSlot> pinned;
};

/// links × B of one simulated instance; > 2^17 channels selects the
/// open-addressing occupancy registry, otherwise the dense one.
struct ChannelSpace {
  std::string instance;
  std::uint64_t links = 0;
  std::uint32_t bandwidth = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed work each sweep needs beforehand (engines are single-use).
  virtual void prepare(Probe& /*probe*/) {}

  virtual SweepResult sweep(Probe& probe) = 0;

  virtual std::vector<PassSample> pass_samples() const = 0;
  virtual std::vector<ChannelSpace> channel_spaces() const = 0;
};

/// Null for an unknown name. `tiny` shrinks every size for smoke tests.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny);

}  // namespace perfbench
