// Network topology representation.
//
// Following the paper's model (§1.1), the network is an undirected graph
// where every node is a router and every undirected edge carries two
// optical links, one per direction. We therefore store *directed* edges:
// add_edge(u, v) creates the link u→v with an even id `e` and its reverse
// v→u with id `e ^ 1`, so reversing a link is a single XOR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace opto {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;  ///< Directed-edge (optical link) id.

inline constexpr NodeId kInvalidNode = ~NodeId{0};
inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};

class Graph {
 public:
  Graph() = default;
  explicit Graph(NodeId node_count, std::string name = {});

  NodeId add_node();

  /// Adds the undirected edge {u, v} as two directed links and returns the
  /// id of the u→v link; the v→u link is `returned_id ^ 1`. Self-loops and
  /// duplicate edges are rejected.
  EdgeId add_edge(NodeId u, NodeId v);

  NodeId node_count() const { return static_cast<NodeId>(out_.size()); }
  /// Number of directed links (= 2 × undirected edges).
  EdgeId link_count() const { return static_cast<EdgeId>(targets_.size()); }
  EdgeId undirected_edge_count() const { return link_count() / 2; }

  NodeId source(EdgeId e) const { return targets_[e ^ 1]; }
  NodeId target(EdgeId e) const { return targets_[e]; }

  static constexpr EdgeId reverse(EdgeId e) { return e ^ 1; }

  /// Directed links leaving u, in insertion order. The span is valid
  /// until the next add_edge() or add_node().
  std::span<const EdgeId> out_links(NodeId u) const {
    return {adjacency_.data() + out_[u].first, out_[u].degree};
  }

  NodeId degree(NodeId u) const { return out_[u].degree; }
  NodeId max_degree() const;

  /// Directed link u→v, or kInvalidEdge.
  EdgeId find_link(NodeId u, NodeId v) const;

  bool has_edge(NodeId u, NodeId v) const {
    return find_link(u, v) != kInvalidEdge;
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::string name_;
  // targets_[e] is the head of directed link e; paired links share targets_
  // slots (even id u→v stores v, odd id v→u stores u), so source(e) is just
  // target(e^1).
  std::vector<NodeId> targets_;

  // Every node's out-links live in one arena: node u's are
  // adjacency_[out_[u].first, out_[u].first + out_[u].degree). A block
  // holds max(4, bit_ceil(degree)) slots, so nodes of degree ≤ 4 (meshes,
  // butterflies, rings) are placed once; when a block is full, add_edge
  // moves it to the arena's end at twice the size and leaves the old slots
  // unused. Building a graph therefore allocates a logarithmic number of
  // times, not once or more per node, at the cost of at most 4 slots per
  // out-link.
  struct OutBlock {
    std::size_t first = 0;
    NodeId degree = 0;
  };
  void append_out_link(NodeId u, EdgeId e);

  std::vector<EdgeId> adjacency_;
  std::vector<OutBlock> out_;
};

}  // namespace opto
