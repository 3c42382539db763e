#include <gtest/gtest.h>

#include <memory>

#include "opto/paths/path.hpp"

namespace opto {
namespace {

Graph chain(NodeId n) {
  Graph graph(n);
  for (NodeId u = 0; u + 1 < n; ++u) graph.add_edge(u, u + 1);
  return graph;
}

TEST(Path, FromNodes) {
  const auto graph = chain(4);
  const auto path =
      Path::from_nodes(graph, std::vector<NodeId>{0, 1, 2, 3});
  EXPECT_EQ(path.source(), 0u);
  EXPECT_EQ(path.destination(), 3u);
  EXPECT_EQ(path.length(), 3u);
  EXPECT_FALSE(path.empty());
  EXPECT_EQ(path.nodes(graph), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Path, SingleNodeIsEmptyPath) {
  const auto graph = chain(2);
  const auto path = Path::from_nodes(graph, std::vector<NodeId>{1});
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(path.source(), 1u);
  EXPECT_EQ(path.destination(), 1u);
}

TEST(Path, BackwardTraversalUsesReverseLinks) {
  const auto graph = chain(3);
  const auto forward = Path::from_nodes(graph, std::vector<NodeId>{0, 1, 2});
  const auto backward = Path::from_nodes(graph, std::vector<NodeId>{2, 1, 0});
  EXPECT_EQ(backward.link(0), Graph::reverse(forward.link(1)));
  EXPECT_EQ(backward.link(1), Graph::reverse(forward.link(0)));
}

TEST(Path, Reversed) {
  const auto graph = chain(4);
  const auto path = Path::from_nodes(graph, std::vector<NodeId>{0, 1, 2, 3});
  const auto rev = path.reversed();
  EXPECT_EQ(rev.source(), 3u);
  EXPECT_EQ(rev.destination(), 0u);
  EXPECT_EQ(rev.nodes(graph), (std::vector<NodeId>{3, 2, 1, 0}));
  EXPECT_EQ(rev.reversed(), path);
}

TEST(Path, FromLinks) {
  const auto graph = chain(4);
  std::vector<EdgeId> links{graph.find_link(1, 2), graph.find_link(2, 3)};
  const auto path = Path::from_links(graph, links);
  EXPECT_EQ(path.source(), 1u);
  EXPECT_EQ(path.destination(), 3u);
  EXPECT_EQ(path.length(), 2u);
}

TEST(PathDeath, RejectsNonAdjacent) {
  const auto graph = chain(4);
  EXPECT_DEATH(Path::from_nodes(graph, std::vector<NodeId>{0, 2}),
               "not adjacent");
}

TEST(PathDeath, RejectsRevisit) {
  const auto graph = chain(4);
  EXPECT_DEATH(Path::from_nodes(graph, std::vector<NodeId>{0, 1, 0}),
               "simple");
}

TEST(Path, SimpleWalkAroundACycleIsAccepted) {
  // Every node of a 4-cycle once: the destination neighbours the source
  // but is not the source, so the path is simple.
  Graph ring(4);
  for (NodeId u = 0; u < 4; ++u) ring.add_edge(u, (u + 1) % 4);
  const auto by_nodes =
      Path::from_nodes(ring, std::vector<NodeId>{0, 1, 2, 3});
  const auto by_links = Path::from_links(
      ring, {ring.find_link(0, 1), ring.find_link(1, 2), ring.find_link(2, 3)});
  EXPECT_EQ(by_nodes, by_links);
  EXPECT_EQ(by_links.nodes(ring), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(PathDeath, RejectsLaterNonAdjacentPair) {
  const auto graph = chain(4);
  EXPECT_DEATH(Path::from_nodes(graph, std::vector<NodeId>{0, 1, 3}),
               "not adjacent");
}

TEST(PathDeath, RejectsMidPathRevisit) {
  const auto graph = chain(4);
  EXPECT_DEATH(Path::from_nodes(graph, std::vector<NodeId>{0, 1, 2, 1}),
               "simple");
}

TEST(PathDeath, FromLinksRejectsRevisitOfSource) {
  const auto graph = chain(4);
  std::vector<EdgeId> links{graph.find_link(1, 2), graph.find_link(2, 1)};
  EXPECT_DEATH(Path::from_links(graph, links), "simple");
}

TEST(PathDeath, FromLinksRejectsMidPathRevisit) {
  const auto graph = chain(4);
  std::vector<EdgeId> links{graph.find_link(0, 1), graph.find_link(1, 2),
                            graph.find_link(2, 3), graph.find_link(3, 2)};
  EXPECT_DEATH(Path::from_links(graph, links), "simple");
}

TEST(PathDeath, RejectsNonConsecutiveLinks) {
  const auto graph = chain(4);
  std::vector<EdgeId> links{graph.find_link(0, 1), graph.find_link(2, 3)};
  EXPECT_DEATH(Path::from_links(graph, links), "consecutive");
}

}  // namespace
}  // namespace opto
