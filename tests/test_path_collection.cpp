// Collection metrics — in particular the paper's path congestion C̃
// (paths sharing a directed link), which differs from edge congestion.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "opto/paths/path_collection.hpp"

namespace opto {
namespace {

std::shared_ptr<Graph> chain(NodeId n) {
  auto graph = std::make_shared<Graph>(n);
  for (NodeId u = 0; u + 1 < n; ++u) graph->add_edge(u, u + 1);
  return graph;
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

}  // namespace
}  // namespace opto
