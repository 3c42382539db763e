// Observability primitives: counter/timer/annotation recording, the
// runtime enable switch, cross-thread aggregation, the allocation hook —
// and the invariant that observing a run never changes its outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

#include "opto/core/trial_and_failure.hpp"
#include "opto/benchsupport/experiment.hpp"
#include "opto/obs/obs.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/sim/simulator.hpp"

namespace opto {
namespace {

std::uint64_t counter_value(const std::string& name) {
  for (const auto& snapshot : obs::counters())
    if (snapshot.name == name) return snapshot.value;
  return 0;
}

const obs::PhaseSnapshot* find_phase(
    const std::vector<obs::PhaseSnapshot>& phases, const std::string& name) {
  for (const auto& phase : phases)
    if (phase.name == name) return &phase;
  return nullptr;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(true);
    obs::reset();
  }
};

TEST_F(ObsTest, CounterAccumulatesAndSurvivesReset) {
  static obs::Counter counter("test.obs.basic");
  counter.add(3);
  counter.add(4);
  EXPECT_EQ(counter_value("test.obs.basic"), 7u);

  obs::reset();
  // The name stays registered (it is part of the schema) but the value
  // zeroes.
  EXPECT_EQ(counter_value("test.obs.basic"), 0u);
  counter.add(1);
  EXPECT_EQ(counter_value("test.obs.basic"), 1u);
}

TEST_F(ObsTest, DisabledCounterRecordsNothing) {
  static obs::Counter counter("test.obs.disabled");
  obs::set_enabled(false);
  counter.add(100);
  obs::set_enabled(true);
  EXPECT_EQ(counter_value("test.obs.disabled"), 0u);
  counter.add(2);
  EXPECT_EQ(counter_value("test.obs.disabled"), 2u);
}

TEST_F(ObsTest, ScopedTimerCountsCallsAndNestsInclusively) {
  {
    const obs::ScopedTimer outer("test.obs.outer");
    for (int i = 0; i < 3; ++i) {
      const obs::ScopedTimer inner("test.obs.inner");
      // Burn a little CPU so the inner wall time is nonzero even on
      // coarse clocks.
      volatile double sink = 0;
      for (int j = 0; j < 50000; ++j) sink = sink + j;
    }
  }
  const auto phases = obs::phases();
  const auto* outer = find_phase(phases, "test.obs.outer");
  const auto* inner = find_phase(phases, "test.obs.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_EQ(inner->calls, 3u);
  // Inclusive semantics: the outer scope contains all inner time.
  EXPECT_GE(outer->wall_ns, inner->wall_ns);
}

TEST_F(ObsTest, DisabledTimerRecordsNothing) {
  obs::set_enabled(false);
  { const obs::ScopedTimer timer("test.obs.dark"); }
  obs::set_enabled(true);
  EXPECT_EQ(find_phase(obs::phases(), "test.obs.dark"), nullptr);
}

TEST_F(ObsTest, CountersAggregateAcrossThreads) {
  static obs::Counter counter("test.obs.threads");
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kAdds; ++i) counter.add(1);
    });
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(counter_value("test.obs.threads"),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST_F(ObsTest, AnnotationLastWriteWins) {
  obs::annotate("test.key", "first");
  obs::annotate("test.key", "second");
  const auto annotations = obs::annotations();
  const auto it = annotations.find("test.key");
  ASSERT_NE(it, annotations.end());
  EXPECT_EQ(it->second, "second");
}

TEST_F(ObsTest, AllocationsAreCounted) {
  const std::uint64_t before = obs::alloc_count();
  std::vector<std::unique_ptr<int>> keep;
  for (int i = 0; i < 64; ++i) keep.push_back(std::make_unique<int>(i));
  EXPECT_GE(obs::alloc_count(), before + 64);
}

TEST_F(ObsTest, ProcessWallAdvances) {
  EXPECT_GT(obs::process_wall_seconds(), 0.0);
}

// The load-bearing invariant: observation must never perturb results.
// Same workload, obs on vs off, bit-identical protocol outcome.
TEST_F(ObsTest, ObservationDoesNotChangeOutcomes) {
  const auto run_once = [] {
    const auto collection = make_bundle_collection(1, 8, 10);
    ProtocolConfig config;
    config.bandwidth = 2;
    config.worm_length = 4;
    config.max_rounds = 100;
    const auto schedule = paper_schedule_factory(4, 2)(collection);
    TrialAndFailure protocol(collection, config, *schedule);
    return protocol.run(/*seed=*/12345);
  };

  obs::set_enabled(true);
  const ProtocolResult observed = run_once();
  obs::set_enabled(false);
  const ProtocolResult dark = run_once();
  obs::set_enabled(true);

  EXPECT_EQ(observed.success, dark.success);
  EXPECT_EQ(observed.rounds_used, dark.rounds_used);
  EXPECT_EQ(observed.total_charged_time, dark.total_charged_time);
  EXPECT_EQ(observed.total_actual_time, dark.total_actual_time);
  EXPECT_EQ(observed.duplicate_deliveries, dark.duplicate_deliveries);
  ASSERT_EQ(observed.rounds.size(), dark.rounds.size());
  for (std::size_t i = 0; i < observed.rounds.size(); ++i) {
    EXPECT_EQ(observed.rounds[i].delivered, dark.rounds[i].delivered);
    EXPECT_EQ(observed.rounds[i].fault_losses, dark.rounds[i].fault_losses);
    EXPECT_EQ(observed.rounds[i].contention_losses,
              dark.rounds[i].contention_losses);
  }
}

// One pass is one sim.pass timer call. A large pass on a collection of
// several link-disjoint bundles, with every worm in one bundle, must not
// nest a second timer around the pass it runs.
TEST_F(ObsTest, OnePassRecordsOnePassTimerCall) {
  const auto collection = make_bundle_collection(2, 64, 4);
  const std::span<const EdgeId> first = collection.path(0).links();
  std::vector<LaunchSpec> specs;
  for (PathId id = 0; id < collection.size(); ++id) {
    const std::span<const EdgeId> links = collection.path(id).links();
    const bool same_bundle = std::equal(links.begin(), links.end(),
                                        first.begin(), first.end());
    if (!same_bundle) {
      // The other bundle shares no directed link with this one.
      for (const EdgeId link : links)
        ASSERT_EQ(std::find(first.begin(), first.end(), link), first.end());
      continue;
    }
    LaunchSpec spec;
    spec.path = id;
    spec.start_time = static_cast<SimTime>(id % 8);
    specs.push_back(spec);
  }
  ASSERT_GE(specs.size(), 64u);
  ASSERT_LT(specs.size(), collection.size());

  Simulator sim(collection, SimConfig{});
  obs::reset();
  const PassResult result = sim.run(specs);
  EXPECT_EQ(result.metrics.launched, specs.size());

  const auto phases = obs::phases();
  const auto* pass = find_phase(phases, "sim.pass");
  ASSERT_NE(pass, nullptr);
  EXPECT_EQ(pass->calls, 1u);
  EXPECT_EQ(counter_value("sim.passes"), 1u);
}

}  // namespace
}  // namespace opto
