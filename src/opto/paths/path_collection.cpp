#include "opto/paths/path_collection.hpp"

#include <algorithm>

#include "opto/rng/rng.hpp"
#include "opto/util/assert.hpp"

namespace opto {

PathCollection& PathCollection::operator=(const PathCollection& other) {
  if (this == &other) return *this;
  graph_ = other.graph_;
  paths_ = other.paths_;
  invalidate_cache();
  return *this;
}

PathCollection& PathCollection::operator=(PathCollection&& other) noexcept {
  if (this == &other) return *this;
  graph_ = std::move(other.graph_);
  paths_ = std::move(other.paths_);
  invalidate_cache();
  return *this;
}

void PathCollection::invalidate_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  flat_cache_.reset();
}

void PathCollection::add(Path path) {
  OPTO_ASSERT_MSG(graph_ != nullptr, "collection has no graph");
  for (EdgeId link : path.links())
    OPTO_ASSERT_MSG(link < graph_->link_count(), "link outside graph");
  paths_.push_back(std::move(path));
  invalidate_cache();
}

const FlatPaths& PathCollection::flat_paths() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!flat_cache_) {
    auto flat = std::make_unique<FlatPaths>();
    std::size_t total = 0;
    for (const Path& p : paths_) total += p.length();
    flat->offsets.reserve(paths_.size() + 1);
    flat->links.reserve(total);
    flat->offsets.push_back(0);
    for (const Path& p : paths_) {
      for (EdgeId link : p.links()) flat->links.push_back(link);
      flat->offsets.push_back(static_cast<std::uint32_t>(flat->links.size()));
    }
    flat_cache_ = std::move(flat);
  }
  return *flat_cache_;
}

std::uint32_t PathCollection::dilation() const {
  std::uint32_t best = 0;
  for (const Path& p : paths_) best = std::max(best, p.length());
  return best;
}

std::vector<std::uint32_t> PathCollection::link_loads() const {
  std::vector<std::uint32_t> loads(graph_ ? graph_->link_count() : 0, 0);
  for (const Path& p : paths_)
    for (EdgeId link : p.links()) ++loads[link];
  return loads;
}

std::uint32_t PathCollection::edge_congestion() const {
  const auto loads = link_loads();
  std::uint32_t best = 0;
  for (std::uint32_t load : loads) best = std::max(best, load);
  return best;
}

std::vector<std::uint32_t> PathCollection::path_congestions() const {
  // Invert: per-link list of path ids, then per path mark every sharer once
  // (epoch-stamped marks avoid clearing between paths).
  std::vector<std::vector<PathId>> users(graph_ ? graph_->link_count() : 0);
  for (PathId id = 0; id < size(); ++id)
    for (EdgeId link : paths_[id].links()) users[link].push_back(id);

  std::vector<std::uint32_t> result(size(), 0);
  std::vector<PathId> last_marked(size(), kInvalidPath);
  for (PathId id = 0; id < size(); ++id) {
    std::uint32_t sharers = 0;
    for (EdgeId link : paths_[id].links()) {
      for (PathId other : users[link]) {
        if (other == id || last_marked[other] == id) continue;
        last_marked[other] = id;
        ++sharers;
      }
    }
    result[id] = sharers;
  }
  return result;
}

std::uint32_t PathCollection::path_congestion() const {
  const auto per_path = path_congestions();
  std::uint32_t best = 0;
  for (std::uint32_t value : per_path) best = std::max(best, value);
  return best;
}

std::uint32_t PathCollection::path_congestion_sampled(
    std::uint32_t samples, std::uint64_t seed) const {
  if (empty()) return 0;
  if (samples >= size()) return path_congestion();

  std::vector<std::vector<PathId>> users(graph_ ? graph_->link_count() : 0);
  for (PathId id = 0; id < size(); ++id)
    for (EdgeId link : paths_[id].links()) users[link].push_back(id);

  Rng rng(seed);
  // Marks are stamped with the probe index so repeated probes of one path
  // recount from scratch.
  std::vector<std::uint32_t> stamp(size(), ~0u);
  std::uint32_t best = 0;
  for (std::uint32_t sample = 0; sample < samples; ++sample) {
    const auto id = static_cast<PathId>(rng.next_below(size()));
    std::uint32_t sharers = 0;
    for (EdgeId link : paths_[id].links()) {
      for (PathId other : users[link]) {
        if (other == id || stamp[other] == sample) continue;
        stamp[other] = sample;
        ++sharers;
      }
    }
    best = std::max(best, sharers);
  }
  return best;
}

CollectionStats PathCollection::stats() const {
  CollectionStats s;
  s.size = size();
  s.dilation = dilation();
  s.edge_congestion = edge_congestion();
  s.path_congestion = path_congestion();
  double total = 0.0;
  for (const Path& p : paths_) total += p.length();
  s.avg_length = paths_.empty() ? 0.0 : total / static_cast<double>(size());
  return s;
}

PathCollection collection_from_node_lists(
    std::shared_ptr<const Graph> graph,
    std::span<const std::vector<NodeId>> node_lists) {
  PathCollection collection(graph);
  collection.reserve(node_lists.size());
  for (const auto& nodes : node_lists)
    collection.add(Path::from_nodes(*graph, nodes));
  return collection;
}

}  // namespace opto
