#include "opto/graph/graph.hpp"

#include <algorithm>
#include <bit>

#include "opto/util/assert.hpp"

namespace opto {

Graph::Graph(NodeId node_count, std::string name)
    : name_(std::move(name)), out_(node_count) {}

NodeId Graph::add_node() {
  out_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

EdgeId Graph::add_edge(NodeId u, NodeId v) {
  OPTO_ASSERT(u < node_count() && v < node_count());
  OPTO_ASSERT_MSG(u != v, "self-loops are not valid optical links");
  OPTO_ASSERT_MSG(!has_edge(u, v), "duplicate undirected edge");
  const auto forward = static_cast<EdgeId>(targets_.size());
  targets_.push_back(v);  // forward (even id): u -> v
  targets_.push_back(u);  // reverse (odd id):  v -> u
  append_out_link(u, forward);
  append_out_link(v, forward ^ 1);
  return forward;
}

void Graph::append_out_link(NodeId u, EdgeId e) {
  OutBlock& block = out_[u];
  const NodeId degree = block.degree;
  // A block of max(4, bit_ceil(degree)) slots is full at degree 0 and at
  // every power of two from 4 on.
  if (degree == 0 || (degree >= 4 && std::has_single_bit(degree))) {
    const std::size_t moved_to = adjacency_.size();
    adjacency_.resize(moved_to + std::max<std::size_t>(4, 2 * degree));
    std::copy_n(adjacency_.data() + block.first, degree,
                adjacency_.data() + moved_to);
    block.first = moved_to;
  }
  adjacency_[block.first + degree] = e;
  block.degree = degree + 1;
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (const OutBlock& block : out_) best = std::max(best, block.degree);
  return best;
}

EdgeId Graph::find_link(NodeId u, NodeId v) const {
  OPTO_ASSERT(u < node_count() && v < node_count());
  for (EdgeId e : out_links(u))
    if (target(e) == v) return e;
  return kInvalidEdge;
}

}  // namespace opto
