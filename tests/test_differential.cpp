// Differential testing: the fast claim-registry engine vs the flit-level
// reference engine, which recomputes occupancy from first principles.
// Every worm's status, finish time, blocker, and truncation flag — and
// all pass metrics — must agree exactly, across rules, tie policies,
// bandwidths, worm lengths, and workload families. Rings at 2^15
// directed links also pit the engine's two attempt-key layouts (packed
// words, wide pairs) against the reference and against each other.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "opto/graph/butterfly.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/graph/ring.hpp"
#include "opto/paths/butterfly_paths.hpp"
#include "opto/paths/lowerbound_structures.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"
#include "opto/sim/reference.hpp"
#include "opto/sim/simulator.hpp"
#include "opto/sim/validate.hpp"

namespace opto {
namespace {

void expect_equivalent(const PathCollection& collection,
                       const SimConfig& config,
                       const std::vector<LaunchSpec>& specs,
                       const std::string& context) {
  Simulator fast(collection, config);
  const PassResult a = fast.run(specs);
  const PassResult b = reference_run(collection, config, specs);

  ASSERT_EQ(a.worms.size(), b.worms.size()) << context;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a.worms[i].status, b.worms[i].status)
        << context << " worm " << i;
    EXPECT_EQ(a.worms[i].finish_time, b.worms[i].finish_time)
        << context << " worm " << i;
    EXPECT_EQ(a.worms[i].truncated, b.worms[i].truncated)
        << context << " worm " << i;
    if (a.worms[i].status == WormStatus::Killed) {
      EXPECT_EQ(a.worms[i].blocked_by, b.worms[i].blocked_by)
          << context << " worm " << i;
      EXPECT_EQ(a.worms[i].blocked_at_link, b.worms[i].blocked_at_link)
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
  EXPECT_EQ(a.metrics.worm_steps, b.metrics.worm_steps) << context;
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan) << context;
}

std::vector<LaunchSpec> random_specs(const PathCollection& collection,
                                     std::uint16_t bandwidth,
                                     std::uint32_t length, SimTime spread,
                                     Rng& rng) {
  std::vector<LaunchSpec> specs(collection.size());
  const auto ranks = rng.permutation(collection.size());
  for (PathId id = 0; id < collection.size(); ++id) {
    specs[id].path = id;
    specs[id].start_time = static_cast<SimTime>(
        rng.next_below(static_cast<std::uint64_t>(spread)));
    specs[id].wavelength =
        static_cast<Wavelength>(rng.next_below(bandwidth));
    specs[id].priority = ranks[id];
    specs[id].length = length;
  }
  return specs;
}

/// Node lists of `count` random walks along a ring of `ring` nodes: each
/// starts at one of `window` consecutive nodes from `first` (wrapping),
/// heads either way, and takes 2–12 hops — short enough to stay simple,
/// crowded enough that walks meet head-on and share links.
std::vector<std::vector<NodeId>> ring_walks(std::uint32_t ring,
                                            std::uint32_t first,
                                            std::uint32_t window,
                                            std::size_t count, Rng& rng) {
  std::vector<std::vector<NodeId>> walks(count);
  for (auto& nodes : walks) {
    NodeId node = (first + static_cast<NodeId>(rng.next_below(window))) % ring;
    const bool clockwise = rng.next_below(2) == 0;
    const auto hops = static_cast<std::uint32_t>(rng.next_in(2, 12));
    nodes.push_back(node);
    for (std::uint32_t h = 0; h < hops; ++h) {
      node = clockwise ? (node + 1) % ring : (node + ring - 1) % ring;
      nodes.push_back(node);
    }
  }
  return walks;
}

using Params = std::tuple<ContentionRule, TiePolicy, int, int>;

class Differential : public ::testing::TestWithParam<Params> {
 protected:
  SimConfig config() const {
    SimConfig cfg;
    cfg.rule = std::get<0>(GetParam());
    cfg.tie = std::get<1>(GetParam());
    cfg.bandwidth = static_cast<std::uint16_t>(std::get<2>(GetParam()));
    return cfg;
  }
  std::uint32_t length() const {
    return static_cast<std::uint32_t>(std::get<3>(GetParam()));
  }
};

TEST_P(Differential, TorusRandomFunctions) {
  auto topo = std::make_shared<MeshTopology>(make_torus({4, 4}));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto collection = mesh_random_function(topo, rng);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 6, rng);
    expect_equivalent(collection, config(), specs,
                      "torus seed " + std::to_string(seed));
  }
}

TEST_P(Differential, ButterflyPermutations) {
  auto topo = std::make_shared<ButterflyTopology>(make_butterfly(4));
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(100 + seed);
    const auto perm = random_permutation(topo->rows(), rng);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> requests;
    for (std::uint32_t r = 0; r < topo->rows(); ++r)
      requests.emplace_back(r, perm[r]);
    const auto collection = butterfly_io_collection(topo, requests);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 5, rng);
    expect_equivalent(collection, config(), specs,
                      "butterfly seed " + std::to_string(seed));
  }
}

TEST_P(Differential, LowerBoundStructures) {
  StructureBuilder builder;
  builder.add_staircase(5, 3 * length() + 2, std::max(2u, length()));
  builder.add_bundle(10, 8);
  builder.add_triangle(std::max(2u, length()) + 4, std::max(2u, length()));
  const auto collection = std::move(builder).build();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(200 + seed);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 4, rng);
    expect_equivalent(collection, config(), specs,
                      "structures seed " + std::to_string(seed));
  }
}

TEST_P(Differential, TightPackedBundle) {
  // Worst-case contention: everyone in a tiny delay window on one chain.
  const auto collection = make_bundle_collection(1, 16, 12);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(300 + seed);
    const auto specs =
        random_specs(collection, config().bandwidth, length(), 3, rng);
    expect_equivalent(collection, config(), specs,
                      "bundle seed " + std::to_string(seed));
  }
}

TEST_P(Differential, WideKeyRings) {
  // Link ids from 2^15 up take the wide (key, worm) attempt path. 16384
  // nodes give exactly 2^15 directed links; 40000 put link ids past 16
  // bits and, for B ≥ 2, the channel space past the dense registry. The
  // walks cross the highest-numbered links (the n−1 → 0 wrap and its
  // reverse), without and with Full conversion (merge-keyed groups).
  for (const std::uint32_t ring : {16384u, 40000u}) {
    const auto graph = std::make_shared<const Graph>(make_ring(ring));
    ASSERT_GE(graph->link_count(), EdgeId{1} << 15);
    for (const ConversionMode conversion :
         {ConversionMode::None, ConversionMode::Full}) {
      SimConfig cfg = config();
      cfg.conversion = conversion;
      cfg.record_trace = true;
      std::uint64_t contentions = 0;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(400 + seed);
        const auto collection = collection_from_node_lists(
            graph, ring_walks(ring, ring - 20, 40, 24, rng));
        const auto specs =
            random_specs(collection, cfg.bandwidth, length(), 6, rng);
        const std::string context = "ring " + std::to_string(ring) + " " +
                                    to_string(conversion) + " seed " +
                                    std::to_string(seed);
        expect_equivalent(collection, cfg, specs, context);
        const PassResult result = Simulator(collection, cfg).run(specs);
        EXPECT_TRUE(validate_pass(collection, cfg, specs, result).ok())
            << context;
        EXPECT_TRUE(validate_occupancy(collection, specs, result).ok())
            << context;
        contentions += result.metrics.contentions;
      }
      // The walks must actually contend, or the comparison is vacuous.
      EXPECT_GT(contentions, 0u) << "ring " << ring;
    }
  }
}

TEST_P(Differential, PackedAndWideKeysAgree) {
  // The same walks on a ring one node below the boundary (2^15 − 2
  // links, packed words) and on one at it (2^15 links, wide pairs): away
  // from the wrap every link keeps its id, so the two passes must agree
  // on every outcome and counter — registry probes included, since the
  // packed path's prescan accounts for the lookups it skips. 48 walks
  // keep more than 32 attempts in flight, so the prescan engages.
  const auto packed_graph = std::make_shared<const Graph>(make_ring(16383));
  const auto wide_graph = std::make_shared<const Graph>(make_ring(16384));
  for (const ConversionMode conversion :
       {ConversionMode::None, ConversionMode::Full}) {
    SimConfig cfg = config();
    cfg.conversion = conversion;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(500 + seed);
      const auto walks = ring_walks(16383, 100, 60, 48, rng);
      const auto packed_paths = collection_from_node_lists(packed_graph, walks);
      const auto wide_paths = collection_from_node_lists(wide_graph, walks);
      const auto specs =
          random_specs(packed_paths, cfg.bandwidth, length(), 6, rng);
      const std::string context =
          std::string(to_string(conversion)) + " seed " + std::to_string(seed);
      const PassResult a = Simulator(packed_paths, cfg).run(specs);
      const PassResult b = Simulator(wide_paths, cfg).run(specs);

      ASSERT_EQ(a.worms.size(), b.worms.size()) << context;
      for (std::size_t i = 0; i < a.worms.size(); ++i) {
        EXPECT_EQ(a.worms[i].status, b.worms[i].status)
            << context << " worm " << i;
        EXPECT_EQ(a.worms[i].truncated, b.worms[i].truncated)
            << context << " worm " << i;
        EXPECT_EQ(a.worms[i].finish_time, b.worms[i].finish_time)
            << context << " worm " << i;
        EXPECT_EQ(a.worms[i].blocked_at_link, b.worms[i].blocked_at_link)
            << context << " worm " << i;
        EXPECT_EQ(a.worms[i].blocked_by, b.worms[i].blocked_by)
            << context << " worm " << i;
      }
      EXPECT_EQ(a.metrics.delivered, b.metrics.delivered) << context;
      EXPECT_EQ(a.metrics.killed, b.metrics.killed) << context;
      EXPECT_EQ(a.metrics.truncated, b.metrics.truncated) << context;
      EXPECT_EQ(a.metrics.truncated_arrivals, b.metrics.truncated_arrivals)
          << context;
      EXPECT_EQ(a.metrics.contentions, b.metrics.contentions) << context;
      EXPECT_EQ(a.metrics.retunes, b.metrics.retunes) << context;
      EXPECT_EQ(a.metrics.makespan, b.metrics.makespan) << context;
      EXPECT_EQ(a.metrics.worm_steps, b.metrics.worm_steps) << context;
      EXPECT_EQ(a.metrics.link_busy_steps, b.metrics.link_busy_steps)
          << context;
      EXPECT_EQ(a.metrics.steps, b.metrics.steps) << context;
      EXPECT_EQ(a.metrics.registry_probes, b.metrics.registry_probes)
          << context;
      EXPECT_EQ(a.metrics.registry_hits, b.metrics.registry_hits) << context;
      EXPECT_EQ(a.metrics.peak_inflight, b.metrics.peak_inflight) << context;
      EXPECT_EQ(a.wavelengths, b.wavelengths) << context;
      EXPECT_GT(a.metrics.contentions, 0u) << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Differential,
    ::testing::Combine(
        ::testing::Values(ContentionRule::ServeFirst, ContentionRule::Priority),
        ::testing::Values(TiePolicy::KillAll, TiePolicy::FirstWins),
        ::testing::Values(1, 3),
        ::testing::Values(1, 2, 7)),
    [](const ::testing::TestParamInfo<Params>& info) {
      std::string name = std::get<0>(info.param) == ContentionRule::ServeFirst
                             ? "sf"
                             : "prio";
      name += std::get<1>(info.param) == TiePolicy::KillAll ? "_killall"
                                                            : "_firstwins";
      name += "_B" + std::to_string(std::get<2>(info.param));
      name += "_L" + std::to_string(std::get<3>(info.param));
      return name;
    });

}  // namespace
}  // namespace opto
