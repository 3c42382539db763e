// What the benchmark measures from outside the library: spans around its
// own factories and calls, per-unit start stamps, deltas of the library's
// existing obs snapshot around each call, and exact outcome digests.
// Nothing here reaches into src/.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "opto/util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t nanos_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// FNV-1a over the bit patterns of exact outcome values. Doubles enter
/// by bit pattern: the library folds trials sequentially, so equal runs
/// produce equal bits.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const opto::SampleSet& samples) {
    add(static_cast<std::uint64_t>(samples.count()));
    for (const double x : samples.samples()) add(x);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Leaf spans the benchmark records inside its own factories.
enum class Span : std::uint8_t { Build, Congestion, Schedule, EngineSetup };
inline constexpr std::size_t kSpanCount = 4;
const char* to_string(Span span);

/// The public entry point a timed call goes through; Outside is work
/// between calls (engine construction).
enum class Call : std::uint8_t { Trials, Strategy, Engine, Outside };
inline constexpr std::size_t kCallCount = 4;
const char* to_string(Call call);

class Probe {
 public:
  /// `trace`: record spans and obs deltas (the traced run). `unit_clock`:
  /// stamp unit starts (1-thread runs, where units run back to back on
  /// the calling thread).
  Probe(bool trace, bool unit_clock) : trace_(trace), unit_clock_(unit_clock) {}

  /// RAII span, charged to the call in progress; a no-op unless tracing.
  /// Safe from pool threads.
  class Scope {
   public:
    Scope(Probe& probe, Span span)
        : slot_(probe.trace_ ? &probe.span_ns_[probe.slot(probe.current_, span)]
                             : nullptr) {
      if (slot_ != nullptr) start_ = Clock::now();
    }
    ~Scope() {
      if (slot_ != nullptr)
        slot_->fetch_add(nanos_between(start_, Clock::now()),
                         std::memory_order_relaxed);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::atomic<std::uint64_t>* slot_;
    Clock::time_point start_;
  };

  Scope span(Span which) { return Scope(*this, which); }

  /// Marks the start of one unit (a trial, strategy trial or engine run).
  /// The unit ends where the next one starts or where its call ends.
  void unit_start() {
    if (unit_clock_) stamps_.push_back(Clock::now());
  }

  /// Brackets one timed call into the library.
  void begin_call(Call call);
  void end_call();

  /// Unit durations (ms) of every call closed since the last take.
  std::vector<double> take_unit_ms();

  /// Wall time (ms) of every call, in call order, since the last take.
  std::vector<double> take_call_ms();

  std::uint64_t span_ns(Call call, Span which) const {
    return span_ns_[slot(call, which)].load();
  }
  std::uint64_t call_ns(Call call) const {
    return call_ns_[static_cast<std::size_t>(call)];
  }
  /// Obs deltas summed over the calls of one kind (traced runs only).
  const std::map<std::string, double>& call_obs(Call call) const {
    return call_obs_[static_cast<std::size_t>(call)];
  }

 private:
  static std::size_t slot(Call call, Span span) {
    return static_cast<std::size_t>(call) * kSpanCount +
           static_cast<std::size_t>(span);
  }

  bool trace_;
  bool unit_clock_;
  /// Written only between calls; pool threads read it inside one.
  Call current_ = Call::Outside;
  std::array<std::atomic<std::uint64_t>, kCallCount * kSpanCount> span_ns_{};
  std::array<std::uint64_t, kCallCount> call_ns_{};
  std::array<std::map<std::string, double>, kCallCount> call_obs_;

  Clock::time_point call_start_;
  std::map<std::string, double> obs_before_;
  std::vector<Clock::time_point> stamps_;  ///< unit starts, then call end
  std::vector<double> unit_ms_;
  std::vector<double> call_ms_;
};

/// The library's obs registry flattened to name → value: every counter,
/// every phase as "<phase>.wall_ns" and "<phase>.calls", and "obs.allocs".
std::map<std::string, double> obs_snapshot();

}  // namespace perfbench
