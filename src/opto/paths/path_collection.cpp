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
  congestion_cache_.reset();
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

namespace {

/// Link → path inversion in CSR form over `count` member paths, member i
/// being `path_of(i)`: the members using link e are
/// members[first[e] .. first[e + 1]), in increasing order. Built from one
/// counting pass, a prefix sum and one fill.
struct LinkUsers {
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> members;

  template <typename PathOf>
  LinkUsers(EdgeId link_count, std::uint32_t count, PathOf path_of)
      : first(static_cast<std::size_t>(link_count) + 2, 0) {
    // Counts go two slots up, so after the prefix sum first[e + 1] is the
    // start of link e; the fill advances it to the start of link e + 1.
    for (std::uint32_t i = 0; i < count; ++i)
      for (EdgeId link : path_of(i).links()) ++first[link + 2];
    for (std::size_t k = 2; k < first.size(); ++k) first[k] += first[k - 1];
    members.resize(first.back());
    for (std::uint32_t i = 0; i < count; ++i)
      for (EdgeId link : path_of(i).links()) members[first[link + 1]++] = i;
    first.pop_back();
  }

  /// Distinct members sharing a link with the member routed on `links`,
  /// itself excluded. Marks every user of every link with `stamp` (which
  /// must differ from every stamp in `mark`), then subtracts the member
  /// itself: it uses each of its links, so it is marked once unless it has
  /// no links.
  std::uint32_t sharers(std::span<const EdgeId> links,
                        std::vector<std::uint32_t>& mark,
                        std::uint32_t stamp) const {
    std::uint32_t marked = 0;
    for (EdgeId link : links) {
      for (std::uint32_t k = first[link]; k < first[link + 1]; ++k) {
        const std::uint32_t other = members[k];
        marked += mark[other] != stamp;
        mark[other] = stamp;
      }
    }
    return marked - (links.empty() ? 0 : 1);
  }
};

/// Per-member path congestion of the `count` paths `path_of(i)`.
template <typename PathOf>
std::vector<std::uint32_t> member_congestions(EdgeId link_count,
                                              std::uint32_t count,
                                              PathOf path_of) {
  const LinkUsers users(link_count, count, path_of);
  std::vector<std::uint32_t> result(count, 0);
  std::vector<std::uint32_t> mark(count, kInvalidPath);
  for (std::uint32_t i = 0; i < count; ++i)
    result[i] = users.sharers(path_of(i).links(), mark, i);
  return result;
}

std::uint32_t max_of(const std::vector<std::uint32_t>& values) {
  std::uint32_t best = 0;
  for (std::uint32_t value : values) best = std::max(best, value);
  return best;
}

}  // namespace

std::vector<std::uint32_t> PathCollection::path_congestions() const {
  return member_congestions(graph_ ? graph_->link_count() : 0, size(),
                            [this](std::uint32_t i) -> const Path& {
                              return paths_[i];
                            });
}

std::uint32_t PathCollection::path_congestion() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (!congestion_cache_) congestion_cache_ = max_of(path_congestions());
  return *congestion_cache_;
}

std::uint32_t PathCollection::path_congestion(
    std::span<const PathId> ids) const {
  return max_of(member_congestions(
      graph_ ? graph_->link_count() : 0, static_cast<std::uint32_t>(ids.size()),
      [this, ids](std::uint32_t i) -> const Path& { return paths_[ids[i]]; }));
}

std::uint32_t PathCollection::path_congestion_sampled(
    std::uint32_t samples, std::uint64_t seed) const {
  if (empty()) return 0;
  if (samples >= size()) return path_congestion();

  const auto path_of = [this](std::uint32_t i) -> const Path& {
    return paths_[i];
  };
  const LinkUsers users(graph_ ? graph_->link_count() : 0, size(), path_of);
  Rng rng(seed);
  // Marks are stamped with the probe index so repeated probes of one path
  // recount from scratch.
  std::vector<std::uint32_t> mark(size(), ~0u);
  std::uint32_t best = 0;
  for (std::uint32_t sample = 0; sample < samples; ++sample) {
    const auto id = static_cast<PathId>(rng.next_below(size()));
    best = std::max(best, users.sharers(paths_[id].links(), mark, sample));
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
