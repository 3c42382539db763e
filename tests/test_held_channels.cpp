// Held channels: the occupancy registry's persistent layer, driven through
// Simulator::pin/unpin/set_pinned and ProtocolSession. A simulator that
// carries pins across passes must behave exactly like a fresh pass that
// is handed the same held set: against the flit-level reference engine,
// field for field, on dense-registry topologies and on one large enough
// for the open-addressing registry.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "opto/core/schedule.hpp"
#include "opto/core/trial_and_failure.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/simulator.hpp"
#include "opto/sim/validate.hpp"

namespace opto {
namespace {

using Channel = std::pair<EdgeId, Wavelength>;

/// Everything the reference engine defines, worm by worm and metric by
/// metric.
void expect_matches_reference(const PassResult& a, const PassResult& b,
                              const std::string& context) {
  ASSERT_EQ(a.worms.size(), b.worms.size()) << context;
  for (std::size_t i = 0; i < a.worms.size(); ++i) {
    const WormOutcome& x = a.worms[i];
    const WormOutcome& y = b.worms[i];
    EXPECT_EQ(x.status, y.status) << context << " worm " << i;
    EXPECT_EQ(x.finish_time, y.finish_time) << context << " worm " << i;
    EXPECT_EQ(x.truncated, y.truncated) << context << " worm " << i;
    EXPECT_EQ(x.pinned_loss, y.pinned_loss) << context << " worm " << i;
    if (x.status == WormStatus::Killed) {
      EXPECT_EQ(x.blocked_by, y.blocked_by) << context << " worm " << i;
      EXPECT_EQ(x.blocked_at_link, y.blocked_at_link)
          << context << " worm " << i;
    }
  }
  EXPECT_EQ(a.metrics.launched, b.metrics.launched) << context;
  EXPECT_EQ(a.metrics.delivered, b.metrics.delivered) << context;
  EXPECT_EQ(a.metrics.killed, b.metrics.killed) << context;
  EXPECT_EQ(a.metrics.truncated, b.metrics.truncated) << context;
  EXPECT_EQ(a.metrics.truncated_arrivals, b.metrics.truncated_arrivals)
      << context;
  EXPECT_EQ(a.metrics.contentions, b.metrics.contentions) << context;
  EXPECT_EQ(a.metrics.retunes, b.metrics.retunes) << context;
  EXPECT_EQ(a.metrics.pinned_blocks, b.metrics.pinned_blocks) << context;
  EXPECT_EQ(a.metrics.worm_steps, b.metrics.worm_steps) << context;
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan) << context;
}

/// Two production passes that must agree on every field; registry probe
/// and hit counts too when `with_registry_stats`.
void expect_identical(const PassResult& a, const PassResult& b,
                      bool with_registry_stats, const std::string& context) {
  ASSERT_EQ(a.worms.size(), b.worms.size()) << context;
  for (std::size_t i = 0; i < a.worms.size(); ++i) {
    const WormOutcome& x = a.worms[i];
    const WormOutcome& y = b.worms[i];
    EXPECT_EQ(x.status, y.status) << context << " worm " << i;
    EXPECT_EQ(x.finish_time, y.finish_time) << context << " worm " << i;
    EXPECT_EQ(x.truncated, y.truncated) << context << " worm " << i;
    EXPECT_EQ(x.pinned_loss, y.pinned_loss) << context << " worm " << i;
    EXPECT_EQ(x.fault_loss, y.fault_loss) << context << " worm " << i;
    EXPECT_EQ(x.blocked_by, y.blocked_by) << context << " worm " << i;
    EXPECT_EQ(x.blocked_at_link, y.blocked_at_link)
        << context << " worm " << i;
  }
  PassMetrics m = a.metrics;
  PassMetrics n = b.metrics;
  if (!with_registry_stats) {
    m.registry_probes = n.registry_probes = 0;
    m.registry_hits = n.registry_hits = 0;
  }
  EXPECT_EQ(m.steps, n.steps) << context;
  EXPECT_EQ(m.link_busy_steps, n.link_busy_steps) << context;
  EXPECT_EQ(m.peak_inflight, n.peak_inflight) << context;
  EXPECT_EQ(m.registry_probes, n.registry_probes) << context;
  EXPECT_EQ(m.registry_hits, n.registry_hits) << context;
  EXPECT_EQ(m.pinned_blocks, n.pinned_blocks) << context;
  EXPECT_EQ(m.killed, n.killed) << context;
  EXPECT_EQ(m.delivered, n.delivered) << context;
  EXPECT_EQ(a.wavelengths, b.wavelengths) << context;
}

std::vector<LaunchSpec> random_specs(const PathCollection& collection,
                                     std::uint16_t bandwidth,
                                     std::uint32_t length, Rng& rng) {
  std::vector<LaunchSpec> specs(collection.size());
  const auto ranks = rng.permutation(collection.size());
  for (PathId id = 0; id < collection.size(); ++id) {
    specs[id].path = id;
    specs[id].start_time = static_cast<SimTime>(rng.next_below(6));
    specs[id].wavelength = static_cast<Wavelength>(rng.next_below(bandwidth));
    specs[id].priority = ranks[id];
    specs[id].length = length;
  }
  return specs;
}

/// `count` walks of 2–8 hops along a ring of `ring` nodes, starting in
/// the `window` nodes before node 0 (so they cross the n−1 → 0 wrap).
std::vector<std::vector<NodeId>> ring_walks(std::uint32_t ring,
                                            std::uint32_t window,
                                            std::size_t count, Rng& rng) {
  std::vector<std::vector<NodeId>> walks(count);
  for (auto& nodes : walks) {
    NodeId node =
        (ring - window + static_cast<NodeId>(rng.next_below(window))) % ring;
    const bool clockwise = rng.next_below(2) == 0;
    const auto hops = static_cast<std::uint32_t>(rng.next_in(2, 8));
    nodes.push_back(node);
    for (std::uint32_t h = 0; h < hops; ++h) {
      node = clockwise ? (node + 1) % ring : (node + ring - 1) % ring;
      nodes.push_back(node);
    }
  }
  return walks;
}

/// Random pin/unpin sequences between passes on one long-lived simulator,
/// against the reference engine and against a fresh simulator handed the
/// equivalent held set. Pins are drawn from the channels the workload's
/// paths cross, so they block worms; re-pins and unpins of free channels
/// exercise the no-op cases.
void run_pin_sequences(const PathCollection& collection, SimConfig config,
                       bool dense, std::uint64_t seed,
                       const std::string& label) {
  config.record_trace = true;
  std::vector<Channel> candidates;
  for (const Path& path : collection.paths())
    for (const EdgeId link : path.links())
      for (Wavelength w = 0; w < config.bandwidth; ++w)
        candidates.emplace_back(link, w);

  Simulator persistent(collection, config);
  std::set<Channel> held;
  Rng rng(seed);
  std::uint64_t pinned_blocks = 0;
  for (int pass = 0; pass < 24; ++pass) {
    const auto ops = rng.next_below(7 + candidates.size() / 32);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const Channel channel = candidates[rng.next_below(candidates.size())];
      if (rng.next_below(5) < 3) {
        persistent.pin(channel.first, channel.second);
        held.insert(channel);
      } else if (!held.empty() && rng.next_below(2) == 0) {
        auto it = held.begin();
        std::advance(it, static_cast<long>(rng.next_below(held.size())));
        persistent.unpin(it->first, it->second);
        held.erase(it);
      } else {
        persistent.unpin(channel.first, channel.second);
        held.erase(channel);
      }
    }
    std::vector<PinnedSlot> span;
    for (const Channel& channel : held)
      span.push_back({channel.first, channel.second});

    const auto specs = random_specs(collection, config.bandwidth, 2, rng);
    const std::string context = label + " seed " + std::to_string(seed) +
                                " pass " + std::to_string(pass);
    const PassResult got = persistent.run(specs);
    const PassResult ref = reference_run(collection, config, specs, span);
    expect_matches_reference(got, ref, context);
    EXPECT_TRUE(validate_pass(collection, config, specs, got).ok()) << context;
    EXPECT_TRUE(validate_occupancy(collection, specs, got).ok()) << context;

    Simulator fresh(collection, config);
    fresh.set_pinned(span);
    expect_identical(got, fresh.run(specs), dense, context);
    pinned_blocks += got.metrics.pinned_blocks;
  }
  // The held channels must actually block worms, or the test is vacuous.
  EXPECT_GT(pinned_blocks, 0u) << label << " seed " << seed;
}

std::vector<SimConfig> sweep_configs() {
  std::vector<SimConfig> configs;
  for (const ContentionRule rule :
       {ContentionRule::ServeFirst, ContentionRule::Priority})
    for (const ConversionMode conversion :
         {ConversionMode::None, ConversionMode::Full})
      for (const std::uint16_t bandwidth : {1, 3}) {
        SimConfig config;
        config.rule = rule;
        config.bandwidth = bandwidth;
        config.conversion = conversion;
        configs.push_back(config);
      }
  return configs;
}

std::string config_label(const SimConfig& config) {
  return std::string(config.rule == ContentionRule::ServeFirst ? "sf"
                                                               : "prio") +
         " " + to_string(config.conversion) + " B" +
         std::to_string(config.bandwidth);
}

TEST(HeldChannels, PinSequencesMatchReferenceOnRing) {
  const auto graph = std::make_shared<const Graph>(make_ring(16));
  for (const SimConfig& config : sweep_configs())
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(100 + seed);
      const auto collection =
          collection_from_node_lists(graph, ring_walks(16, 16, 12, rng));
      run_pin_sequences(collection, config, /*dense=*/true, seed,
                        "ring16 " + config_label(config));
    }
}

TEST(HeldChannels, PinSequencesMatchReferenceOnTorus) {
  // 8x8 puts more than 32 attempts into early steps, so the attempt
  // prescan reads held channels too.
  for (const std::uint32_t side : {4u, 8u}) {
    auto topo = std::make_shared<MeshTopology>(make_torus({side, side}));
    for (const SimConfig& config : sweep_configs())
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(200 + seed);
        const auto collection = mesh_random_function(topo, rng);
        run_pin_sequences(collection, config, /*dense=*/true, seed,
                          "torus" + std::to_string(side) + " " +
                              config_label(config));
      }
  }
}

TEST(HeldChannels, PinSequencesMatchReferenceOnOpenAddressing) {
  // 70000 nodes = 140000 directed links: past the dense registry's 2^17
  // channels even at B = 1, so held slots live in the hash table.
  constexpr std::uint32_t kRing = 70000;
  const auto graph = std::make_shared<const Graph>(make_ring(kRing));
  ASSERT_GT(graph->link_count(), 1u << 17);
  for (const SimConfig& config : sweep_configs())
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(300 + seed);
      const auto collection =
          collection_from_node_lists(graph, ring_walks(kRing, 24, 16, rng));
      run_pin_sequences(collection, config, /*dense=*/false, seed,
                        "ring70000 " + config_label(config));
    }
}

/// A one-path collection 0 → 1 → 2 on a ring of `nodes` nodes.
PathCollection short_path(std::uint32_t nodes) {
  const auto graph = std::make_shared<const Graph>(make_ring(nodes));
  const std::vector<std::vector<NodeId>> walks = {{0, 1, 2}};
  return collection_from_node_lists(graph, walks);
}

LaunchSpec launch_on(Wavelength wavelength) {
  LaunchSpec spec;
  spec.path = 0;
  spec.wavelength = wavelength;
  spec.length = 2;
  return spec;
}

TEST(HeldChannels, PinnedSlotShadowsStuckWavelength) {
  const PathCollection collection = short_path(8);
  FaultConfig faults;
  faults.stuck_wavelength_rate = 1.0;  // every channel stuck
  const FaultPlan plan(faults, 7);
  SimConfig config;
  config.faults = &plan;
  Simulator sim(collection, config);
  const EdgeId first = collection.path(0).link(0);
  const std::vector<LaunchSpec> specs = {launch_on(0)};

  // The stuck sentinel alone: a fault loss.
  PassResult pass = sim.run(specs);
  EXPECT_TRUE(pass.worms[0].fault_loss);
  EXPECT_FALSE(pass.worms[0].pinned_loss);
  EXPECT_EQ(pass.metrics.fault_kills, 1u);

  // Held before the pass seeds its stuck sentinels: the hold wins.
  sim.pin(first, 0);
  for (int round = 0; round < 3; ++round) {
    pass = sim.run(specs);
    EXPECT_TRUE(pass.worms[0].pinned_loss);
    EXPECT_FALSE(pass.worms[0].fault_loss);
    EXPECT_EQ(pass.metrics.pinned_blocks, 1u);
    EXPECT_EQ(pass.metrics.fault_kills, 0u);
  }

  // Released: the stuck fault shows again.
  sim.unpin(first, 0);
  pass = sim.run(specs);
  EXPECT_TRUE(pass.worms[0].fault_loss);
  EXPECT_EQ(pass.metrics.pinned_blocks, 0u);
}

TEST(HeldChannels, ChannelStaysHeldUntilUnpinned) {
  // Dense registry (ring-8) and open addressing (ring-70000).
  for (const std::uint32_t nodes : {8u, 70000u}) {
    const PathCollection collection = short_path(nodes);
    SimConfig config;
    config.bandwidth = 2;
    Simulator sim(collection, config);
    const EdgeId second = collection.path(0).link(1);
    sim.pin(second, 1);
    const std::vector<LaunchSpec> blocked = {launch_on(1)};
    const std::vector<LaunchSpec> free = {launch_on(0)};
    for (int pass = 0; pass < 1000; ++pass) {
      const PassResult held = sim.run(blocked);
      ASSERT_TRUE(held.worms[0].pinned_loss) << nodes << " pass " << pass;
      ASSERT_EQ(held.worms[0].blocked_at_link, 1u);
      ASSERT_TRUE(sim.run(free).worms[0].delivered_intact())
          << nodes << " pass " << pass;
    }
    sim.unpin(second, 1);
    const PassResult after = sim.run(blocked);
    EXPECT_TRUE(after.worms[0].delivered_intact()) << nodes;
    EXPECT_EQ(after.metrics.pinned_blocks, 0u) << nodes;
  }
}

TEST(HeldChannels, SetPinnedReplacesTheHeldSet) {
  for (const std::uint32_t nodes : {8u, 70000u}) {
    const PathCollection collection = short_path(nodes);
    SimConfig config;
    config.bandwidth = 3;
    Simulator sim(collection, config);
    const EdgeId first = collection.path(0).link(0);
    const auto blocked = [&](Wavelength w) {
      const std::vector<LaunchSpec> specs = {launch_on(w)};
      return sim.run(specs).worms[0].pinned_loss;
    };

    sim.pin(first, 2);
    std::vector<PinnedSlot> slots = {{first, 0}, {first, 0}};  // duplicate
    sim.set_pinned(slots);
    slots[0].wavelength = 1;  // copied at call time: not seen
    EXPECT_TRUE(blocked(0)) << nodes;
    EXPECT_FALSE(blocked(1)) << nodes;
    EXPECT_FALSE(blocked(2)) << nodes;  // the earlier pin is replaced

    const std::vector<PinnedSlot> second = {{first, 1}};
    sim.set_pinned(second);
    EXPECT_FALSE(blocked(0)) << nodes;
    EXPECT_TRUE(blocked(1)) << nodes;

    sim.set_pinned({});
    EXPECT_FALSE(blocked(1)) << nodes;
  }
}

TEST(HeldChannels, AcksIgnorePins) {
  // Simulated acks run on their own simulator over the reverse paths:
  // holding every reverse channel must not stop them, while holding the
  // forward channels blocks the message worms.
  const auto graph = std::make_shared<const Graph>(make_ring(6));
  const std::vector<std::vector<NodeId>> walks = {{0, 1, 2}, {3, 4}};
  const PathCollection collection = collection_from_node_lists(graph, walks);
  ProtocolConfig config;
  config.bandwidth = 2;
  config.ack_mode = AckMode::Simulated;
  FixedSchedule schedule(4);

  ProtocolSession acked(collection, config, schedule, 5);
  for (const Path& path : collection.paths())
    for (const EdgeId link : path.links())
      for (Wavelength w = 0; w < config.bandwidth; ++w)
        acked.pin(Graph::reverse(link), w);
  acked.admit(0, 0);
  acked.admit(1, 1);
  const RoundReport& report = acked.step();
  EXPECT_EQ(report.acknowledged, 2u);
  EXPECT_EQ(report.forward.pinned_blocks, 0u);

  ProtocolSession blocked(collection, config, schedule, 5);
  for (Wavelength w = 0; w < config.bandwidth; ++w)
    blocked.pin(collection.path(0).link(0), w);
  blocked.admit(0, 0);
  const RoundReport& lost = blocked.step();
  EXPECT_EQ(lost.acknowledged, 0u);
  EXPECT_EQ(lost.forward.pinned_blocks, 1u);
  blocked.unpin(collection.path(0).link(0), 0);
  blocked.unpin(collection.path(0).link(0), 1);
  EXPECT_EQ(blocked.step().acknowledged, 1u);
}

}  // namespace
}  // namespace opto
