#include "opto/core/priority_assign.hpp"

#include <algorithm>

#include "opto/util/assert.hpp"

namespace opto {

const char* to_string(PriorityStrategy strategy) {
  switch (strategy) {
    case PriorityStrategy::RandomPermutation:
      return "random-permutation";
    case PriorityStrategy::FixedByPath:
      return "fixed-by-path";
    case PriorityStrategy::ReverseByPath:
      return "reverse-by-path";
    case PriorityStrategy::AdversarialByPath:
      return "adversarial-by-path";
  }
  return "?";
}

namespace {

/// The strategies that draw nothing: ranks from path ids alone.
void by_path_ranks(PriorityStrategy strategy,
                   std::span<const PathId> active_paths,
                   std::uint32_t total_paths, std::uint32_t* ranks) {
  for (std::size_t i = 0; i < active_paths.size(); ++i) {
    if (strategy == PriorityStrategy::ReverseByPath) {
      OPTO_ASSERT(active_paths[i] < total_paths);
      ranks[i] = total_paths - 1 - active_paths[i];
    } else {
      ranks[i] = active_paths[i];
    }
  }
}

}  // namespace

std::vector<std::uint32_t> assign_priorities(
    PriorityStrategy strategy, std::span<const PathId> active_paths,
    std::uint32_t total_paths, Rng& rng) {
  std::vector<std::uint32_t> ranks(active_paths.size());
  if (strategy == PriorityStrategy::RandomPermutation) {
    const auto perm =
        rng.permutation(static_cast<std::uint32_t>(active_paths.size()));
    for (std::size_t i = 0; i < ranks.size(); ++i) ranks[i] = perm[i];
  } else {
    by_path_ranks(strategy, active_paths, total_paths, ranks.data());
  }
  return ranks;
}

void assign_priorities(PriorityStrategy strategy,
                       std::span<const PathId> active_paths,
                       std::uint32_t total_paths, const CounterRng& rng,
                       std::span<const std::uint32_t> uids,
                       std::vector<std::uint32_t>& ranks,
                       std::vector<RankKey>& scratch) {
  ranks.resize(active_paths.size());
  if (strategy != PriorityStrategy::RandomPermutation) {
    by_path_ranks(strategy, active_paths, total_paths, ranks.data());
    return;
  }
  OPTO_ASSERT(uids.size() == active_paths.size());
  // Rank = position after sorting members by their keyed draw. Each
  // member's key is addressed by uid alone, so the resulting permutation
  // is invariant under member-vector order and any other draws this round.
  scratch.resize(active_paths.size());
  for (std::size_t i = 0; i < scratch.size(); ++i)
    scratch[i] = {rng.at(uids[i], CounterRng::kSlotPriority), uids[i],
                  static_cast<std::uint32_t>(i)};
  std::sort(scratch.begin(), scratch.end(),
            [](const RankKey& a, const RankKey& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.uid < b.uid;
            });
  for (std::size_t r = 0; r < scratch.size(); ++r)
    ranks[scratch[r].member] = static_cast<std::uint32_t>(r);
}

}  // namespace opto
