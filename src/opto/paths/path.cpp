#include "opto/paths/path.hpp"

#include <algorithm>

#include "opto/util/assert.hpp"

namespace opto {
namespace {

/// True when `nodes` holds no node twice; sorts it. A sorted copy and one
/// adjacent_find replace a per-path hash set.
bool sort_and_check_distinct(std::vector<NodeId>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
}

/// Per-thread scratch for that copy, so building a path allocates only its
/// own link vector.
std::vector<NodeId>& node_scratch() {
  thread_local std::vector<NodeId> scratch;
  return scratch;
}

}  // namespace

Path Path::from_nodes(const Graph& graph, std::span<const NodeId> nodes) {
  OPTO_ASSERT_MSG(!nodes.empty(), "path needs at least one node");
  Path path;
  path.source_ = nodes.front();
  path.destination_ = nodes.back();
  path.links_.reserve(nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const EdgeId link = graph.find_link(nodes[i], nodes[i + 1]);
    OPTO_ASSERT_MSG(link != kInvalidEdge, "consecutive nodes not adjacent");
    path.links_.push_back(link);
  }
  auto& sorted = node_scratch();
  sorted.assign(nodes.begin(), nodes.end());
  OPTO_ASSERT_MSG(sort_and_check_distinct(sorted),
                  "path revisits a node (paths must be simple)");
  return path;
}

Path Path::from_links(const Graph& graph, std::vector<EdgeId> links) {
  OPTO_ASSERT(!links.empty());
  Path path;
  path.source_ = graph.source(links.front());
  path.destination_ = graph.target(links.back());
  auto& sorted = node_scratch();
  sorted.assign(1, path.source_);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i > 0)
      OPTO_ASSERT_MSG(graph.source(links[i]) == graph.target(links[i - 1]),
                      "links are not consecutive");
    sorted.push_back(graph.target(links[i]));
  }
  OPTO_ASSERT_MSG(sort_and_check_distinct(sorted),
                  "path revisits a node (paths must be simple)");
  path.links_ = std::move(links);
  return path;
}

std::vector<NodeId> Path::nodes(const Graph& graph) const {
  std::vector<NodeId> out;
  out.reserve(links_.size() + 1);
  out.push_back(source_);
  for (EdgeId link : links_) out.push_back(graph.target(link));
  return out;
}

Path Path::reversed() const {
  Path rev;
  rev.source_ = destination_;
  rev.destination_ = source_;
  rev.links_.reserve(links_.size());
  for (auto it = links_.rbegin(); it != links_.rend(); ++it)
    rev.links_.push_back(Graph::reverse(*it));
  return rev;
}

}  // namespace opto
