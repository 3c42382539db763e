// Collection metrics — in particular the paper's path congestion C̃
// (paths sharing a directed link), which differs from edge congestion.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "opto/graph/butterfly.hpp"
#include "opto/graph/mesh.hpp"
#include "opto/par/parallel_for.hpp"
#include "opto/par/thread_pool.hpp"
#include "opto/paths/path_collection.hpp"
#include "opto/paths/workloads.hpp"
#include "opto/rng/rng.hpp"

namespace opto {
namespace {

std::shared_ptr<Graph> chain(NodeId n) {
  auto graph = std::make_shared<Graph>(n);
  for (NodeId u = 0; u + 1 < n; ++u) graph->add_edge(u, u + 1);
  return graph;
}

/// Brute-force C̃ per member: for every pair of members, do their paths
/// share a directed link? Members are paths of `collection` by id, so a
/// repeated id is a duplicate path.
std::vector<std::uint32_t> pairwise_congestions(
    const PathCollection& collection, const std::vector<PathId>& members) {
  const auto shares_link = [&](PathId a, PathId b) {
    for (EdgeId x : collection.path(a).links())
      for (EdgeId y : collection.path(b).links())
        if (x == y) return true;
    return false;
  };
  std::vector<std::uint32_t> result(members.size(), 0);
  for (std::size_t i = 0; i < members.size(); ++i)
    for (std::size_t j = 0; j < members.size(); ++j)
      if (i != j && shares_link(members[i], members[j])) ++result[i];
  return result;
}

std::vector<PathId> all_ids(const PathCollection& collection) {
  std::vector<PathId> ids(collection.size());
  for (PathId id = 0; id < collection.size(); ++id) ids[id] = id;
  return ids;
}

std::uint32_t max_of(const std::vector<std::uint32_t>& values) {
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

/// Appends duplicates of random paths and zero-length paths, so the oracle
/// sees both: copies count each other, a zero-length path counts 0.
void add_duplicates_and_stubs(PathCollection& collection, Rng& rng) {
  const std::uint32_t n = collection.size();
  for (std::uint32_t k = 0; k < n / 4; ++k)
    collection.add(collection.path(static_cast<PathId>(rng.next_below(n))));
  const NodeId nodes = collection.graph().node_count();
  for (std::uint32_t k = 0; k < 3; ++k) {
    const auto node = static_cast<NodeId>(rng.next_below(nodes));
    collection.add(Path::from_nodes(collection.graph(),
                                    std::vector<NodeId>{node}));
  }
}

/// Random mesh and butterfly instances for the oracle tests.
std::vector<PathCollection> random_collections() {
  std::vector<PathCollection> out;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    auto mesh = std::make_shared<MeshTopology>(make_mesh({5, 6}));
    out.push_back(mesh_random_function(mesh, rng));
    add_duplicates_and_stubs(out.back(), rng);
    auto butterfly = std::make_shared<ButterflyTopology>(make_butterfly(4));
    out.push_back(butterfly_random_q_function(butterfly, 2, rng));
    add_duplicates_and_stubs(out.back(), rng);
  }
  return out;
}

TEST(PathCollection, EmptyStats) {
  const auto graph = chain(3);
  PathCollection collection(graph);
  EXPECT_TRUE(collection.empty());
  EXPECT_EQ(collection.dilation(), 0u);
  EXPECT_EQ(collection.edge_congestion(), 0u);
  EXPECT_EQ(collection.path_congestion(), 0u);
}

TEST(PathCollection, BundleCongestion) {
  const auto graph = chain(4);
  PathCollection collection(graph);
  const std::vector<NodeId> nodes{0, 1, 2, 3};
  for (int i = 0; i < 5; ++i)
    collection.add(Path::from_nodes(*graph, nodes));
  EXPECT_EQ(collection.size(), 5u);
  EXPECT_EQ(collection.dilation(), 3u);
  EXPECT_EQ(collection.edge_congestion(), 5u);
  // Each path shares links with the 4 other copies.
  EXPECT_EQ(collection.path_congestion(), 4u);
}

TEST(PathCollection, OppositeDirectionsDoNotCount) {
  // Two paths traversing the same undirected edge in opposite directions
  // use different optical links and never collide.
  const auto graph = chain(3);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{2, 1, 0}));
  EXPECT_EQ(collection.edge_congestion(), 1u);
  EXPECT_EQ(collection.path_congestion(), 0u);
}

TEST(PathCollection, PathCongestionCountsDistinctSharers) {
  // Star of paths all crossing one middle link, plus one disjoint path.
  auto graph = std::make_shared<Graph>(8);
  graph->add_edge(0, 1);  // shared link 0->1
  graph->add_edge(1, 2);
  graph->add_edge(1, 3);
  graph->add_edge(4, 0);
  graph->add_edge(5, 0);
  graph->add_edge(6, 7);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{4, 0, 1, 2}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{5, 0, 1, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{6, 7}));

  const auto per_path = collection.path_congestions();
  EXPECT_EQ(per_path, (std::vector<std::uint32_t>{2, 2, 2, 0}));
  EXPECT_EQ(collection.path_congestion(), 2u);
  EXPECT_EQ(collection.edge_congestion(), 3u);
}

TEST(PathCollection, SharersCountedOncePerPair) {
  // Two paths sharing two links still count each other once.
  const auto graph = chain(5);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(collection.path_congestion(), 1u);
}

TEST(PathCollection, StatsAggregate) {
  const auto graph = chain(4);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2, 3}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1, 2}));
  const auto stats = collection.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.dilation, 3u);
  EXPECT_EQ(stats.edge_congestion, 2u);
  EXPECT_EQ(stats.path_congestion, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_length, 2.0);
}

TEST(PathCollection, SampledCongestionLowerBoundsExact) {
  const auto graph = chain(12);
  PathCollection collection(graph);
  // Staggered overlapping windows give varied per-path congestion.
  for (NodeId start = 0; start + 4 < 12; ++start) {
    std::vector<NodeId> nodes;
    for (NodeId u = start; u <= start + 4; ++u) nodes.push_back(u);
    collection.add(Path::from_nodes(*graph, nodes));
  }
  const std::uint32_t exact = collection.path_congestion();
  const std::uint32_t sampled = collection.path_congestion_sampled(3, 7);
  EXPECT_LE(sampled, exact);
  EXPECT_GT(sampled, 0u);
  // Enough probes recover the exact value w.h.p. on this small instance;
  // asking for >= size probes falls back to the exact computation.
  EXPECT_EQ(collection.path_congestion_sampled(1000, 7), exact);
}

TEST(PathCollection, SampledCongestionEmptyAndDeterministic) {
  const auto graph = chain(3);
  PathCollection empty_collection(graph);
  EXPECT_EQ(empty_collection.path_congestion_sampled(5, 1), 0u);

  PathCollection collection(graph);
  for (int i = 0; i < 6; ++i)
    collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(collection.path_congestion_sampled(2, 9),
            collection.path_congestion_sampled(2, 9));
  EXPECT_EQ(collection.path_congestion_sampled(2, 9), 5u);  // bundle: all equal
}

TEST(PathCollection, FromNodeLists) {
  const auto graph = chain(4);
  const std::vector<std::vector<NodeId>> lists{{0, 1, 2}, {2, 3}};
  const auto collection = collection_from_node_lists(graph, lists);
  EXPECT_EQ(collection.size(), 2u);
  EXPECT_EQ(collection.path(1).source(), 2u);
}

TEST(FlatPaths, MatchesPathLinks) {
  auto graph = chain(6);
  const std::vector<std::vector<NodeId>> lists = {
      {0, 1, 2}, {3}, {2, 3, 4, 5}, {1, 2}};
  const PathCollection c = collection_from_node_lists(graph, lists);
  const FlatPaths& flat = c.flat_paths();
  ASSERT_EQ(flat.offsets.size(), c.size() + 1);
  EXPECT_EQ(flat.offsets.front(), 0u);
  EXPECT_EQ(flat.offsets.back(), flat.links.size());
  for (PathId p = 0; p < c.size(); ++p) {
    const auto links = c.path(p).links();
    ASSERT_EQ(flat.offsets[p + 1] - flat.offsets[p], links.size());
    for (std::size_t i = 0; i < links.size(); ++i)
      EXPECT_EQ(flat.links[flat.offsets[p] + i], links[i]);
  }
}

TEST(FlatPaths, InvalidatedByAdd) {
  auto graph = chain(4);
  PathCollection c = collection_from_node_lists(
      graph, std::vector<std::vector<NodeId>>{{0, 1}});
  EXPECT_EQ(c.flat_paths().offsets.size(), 2u);
  const PathCollection grown = collection_from_node_lists(
      graph, std::vector<std::vector<NodeId>>{{0, 1}, {2, 3}});
  for (const Path& path : grown.paths())
    if (&path != &grown.paths().front()) {
      PathCollection copy = c;  // also exercises the cache-dropping copy
      copy.add(path);
      EXPECT_EQ(copy.flat_paths().offsets.size(), 3u);
      EXPECT_EQ(copy.flat_paths().links.size(), 2u);
    }
  EXPECT_EQ(c.flat_paths().offsets.size(), 2u);  // the original is intact
}

TEST(PathCollection, CongestionMatchesPairwiseOracle) {
  for (const PathCollection& collection : random_collections()) {
    const auto expected = pairwise_congestions(collection, all_ids(collection));
    EXPECT_EQ(collection.path_congestions(), expected);
    EXPECT_EQ(collection.path_congestion(), max_of(expected));
    EXPECT_EQ(collection.path_congestion_sampled(collection.size(), 3),
              max_of(expected));
    EXPECT_LE(collection.path_congestion_sampled(5, 3), max_of(expected));
  }
}

TEST(PathCollection, DuplicatesCountEachOtherAndStubsCountZero) {
  const auto graph = chain(4);
  PathCollection collection(graph);
  const Path path = Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2});
  collection.add(path);
  collection.add(path);
  collection.add(path);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1}));
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1}));
  EXPECT_EQ(collection.path_congestions(),
            (std::vector<std::uint32_t>{2, 2, 2, 0, 0}));
  EXPECT_EQ(collection.path_congestions(),
            pairwise_congestions(collection, all_ids(collection)));
}

TEST(PathCollection, SubsetCongestionMatchesOracle) {
  for (const PathCollection& collection : random_collections()) {
    Rng rng(collection.size());
    for (int draw = 0; draw < 5; ++draw) {
      std::vector<PathId> ids;
      for (PathId id = 0; id < collection.size(); ++id)
        if (rng.next_bernoulli(0.5)) ids.push_back(id);
      ids.push_back(ids.empty() ? 0 : ids.front());  // a repeated id
      EXPECT_EQ(collection.path_congestion(ids),
                max_of(pairwise_congestions(collection, ids)));
    }
    EXPECT_EQ(collection.path_congestion(std::vector<PathId>{}), 0u);
  }
}

TEST(PathCongestionCache, AddInvalidates) {
  const auto graph = chain(4);
  PathCollection collection(graph);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(collection.path_congestion(), 0u);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(collection.path_congestion(), 1u);
  collection.add(Path::from_nodes(*graph, std::vector<NodeId>{0, 1}));
  EXPECT_EQ(collection.path_congestion(), 2u);
  EXPECT_EQ(collection.stats().path_congestion, 2u);
}

TEST(PathCongestionCache, CopyAndMoveAssignmentInvalidate) {
  const auto graph = chain(4);
  const std::vector<NodeId> nodes{0, 1, 2, 3};
  PathCollection pair(graph);
  PathCollection triple(graph);
  for (int i = 0; i < 2; ++i) pair.add(Path::from_nodes(*graph, nodes));
  for (int i = 0; i < 3; ++i) triple.add(Path::from_nodes(*graph, nodes));
  ASSERT_EQ(pair.path_congestion(), 1u);
  ASSERT_EQ(triple.path_congestion(), 2u);

  PathCollection target = pair;
  EXPECT_EQ(target.path_congestion(), 1u);
  target = triple;
  EXPECT_EQ(target.path_congestion(), 2u);
  target = PathCollection(pair);
  EXPECT_EQ(target.path_congestion(), 1u);
  PathCollection moved_from = triple;
  target = std::move(moved_from);
  EXPECT_EQ(target.path_congestion(), 2u);
  const PathCollection copy_constructed(target);
  EXPECT_EQ(copy_constructed.path_congestion(), 2u);
}

TEST(PathCongestionCache, ConcurrentReadersSeeOneValue) {
  Rng rng(9);
  auto mesh = std::make_shared<MeshTopology>(make_mesh({12, 12}));
  const PathCollection shared = mesh_random_function(mesh, rng);
  const std::uint32_t expected = max_of(shared.path_congestions());
  ThreadPool pool(4);
  std::vector<std::uint32_t> seen(64, 0);
  parallel_for(
      0, seen.size(),
      [&](std::size_t i) { seen[i] = shared.path_congestion(); }, &pool);
  for (std::uint32_t value : seen) EXPECT_EQ(value, expected);
}

}  // namespace
}  // namespace opto
