#include "optobench/probe.hpp"

#include "opto/obs/obs.hpp"

namespace perfbench {

const char* to_string(Span span) {
  switch (span) {
    case Span::Build:
      return "build";
    case Span::Congestion:
      return "congestion";
    case Span::Schedule:
      return "schedule";
    case Span::EngineSetup:
      return "engine_setup";
  }
  return "?";
}

const char* to_string(Call call) {
  switch (call) {
    case Call::Trials:
      return "run_trials";
    case Call::Strategy:
      return "run_strategy_trials";
    case Call::Engine:
      return "engine_run";
    case Call::Outside:
      return "outside";
  }
  return "?";
}

std::map<std::string, double> obs_snapshot() {
  std::map<std::string, double> out;
  for (const auto& counter : opto::obs::counters())
    out[counter.name] = static_cast<double>(counter.value);
  for (const auto& phase : opto::obs::phases()) {
    out[phase.name + ".wall_ns"] = static_cast<double>(phase.wall_ns);
    out[phase.name + ".calls"] = static_cast<double>(phase.calls);
  }
  out["obs.allocs"] = static_cast<double>(opto::obs::alloc_count());
  return out;
}

void Probe::begin_call(Call call) {
  current_ = call;
  if (trace_) obs_before_ = obs_snapshot();
  call_start_ = Clock::now();
}

void Probe::end_call() {
  const Clock::time_point end = Clock::now();
  const auto index = static_cast<std::size_t>(current_);
  current_ = Call::Outside;
  const std::uint64_t call_ns = nanos_between(call_start_, end);
  call_ns_[index] += call_ns;
  call_ms_.push_back(static_cast<double>(call_ns) / 1e6);
  if (unit_clock_ && !stamps_.empty()) {
    stamps_.push_back(end);
    for (std::size_t i = 0; i + 1 < stamps_.size(); ++i)
      unit_ms_.push_back(static_cast<double>(
                             nanos_between(stamps_[i], stamps_[i + 1])) /
                         1e6);
    stamps_.clear();
  }
  if (!trace_) return;
  auto& totals = call_obs_[index];
  for (const auto& [name, value] : obs_snapshot()) {
    const auto before = obs_before_.find(name);
    totals[name] +=
        value - (before == obs_before_.end() ? 0.0 : before->second);
  }
}

std::vector<double> Probe::take_unit_ms() {
  std::vector<double> out;
  out.swap(unit_ms_);
  return out;
}

std::vector<double> Probe::take_call_ms() {
  std::vector<double> out;
  out.swap(call_ms_);
  return out;
}

}  // namespace perfbench
