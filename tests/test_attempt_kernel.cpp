// The simulator's free-singleton prescan over sorted attempt words
// (sim/attempt_kernel.hpp, DESIGN.md §9): a hand-laid spot check and a
// random sweep against a multiplicity-count oracle. The attempt-key
// layouts themselves are pinned in test_differential.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "opto/rng/rng.hpp"
#include "opto/sim/attempt_kernel.hpp"
#include "opto/sim/occupancy.hpp"

namespace opto {
namespace {

TEST(AttemptKernel, PrescanFlagsOnlyFreeSingletonNonMergeKeys) {
  // Hand-laid array: keys (link, merge, wl) with id_bits = 4,
  // bandwidth = 2, wl_bits = 1.
  const unsigned id_bits = 4;
  const std::uint32_t merge_bit = 2;
  const auto word = [&](std::uint64_t link, bool merge, std::uint64_t wl,
                        std::uint64_t id) {
    return ((link << 2) | (merge ? 2u : wl)) << id_bits | id;
  };
  const std::vector<std::uint64_t> keys = {
      word(0, false, 0, 1),  // singleton, channel 0
      word(1, false, 1, 2),  // duplicate pair on channel 3
      word(1, false, 1, 3),
      word(2, true, 0, 4),   // singleton but merge-keyed
      word(3, false, 0, 5),  // singleton, channel 6 (occupied below)
  };
  // Channels: link * 2 + wl. Mark channel 6 held past `now`.
  std::vector<std::uint32_t> epochs(8, 1);
  std::vector<SimTime> releases(8, 0);
  epochs[6] = 1;
  releases[6] = 100;
  std::vector<std::uint8_t> mask(keys.size(), 0xCD);
  attempt::prescan_free_singletons(keys, id_bits, merge_bit, 2, epochs.data(),
                                   /*current_epoch=*/1, releases.data(),
                                   /*now=*/10, mask.data());
  EXPECT_EQ(mask[0], 1);  // free singleton
  EXPECT_EQ(mask[1], 0);  // duplicate
  EXPECT_EQ(mask[2], 0);  // duplicate
  EXPECT_EQ(mask[3], 0);  // merge key
  EXPECT_EQ(mask[4], 0);  // channel occupied
}

TEST(AttemptKernel, PrescanMatchesGroupCountOracle) {
  // Random sorted words against an oracle that counts each group key's
  // multiplicity instead of looking at neighbours. Channels mix the four
  // registry states the prescan reads: stale epoch (free), live but
  // released at or before `now` (free), live and busy past `now`, and a
  // held channel (top epoch, never released).
  Rng rng(505);
  const unsigned id_bits = 10;
  const std::uint32_t current_epoch = 3;
  const SimTime now = 50;
  for (const std::uint32_t bandwidth : {1u, 2u, 4u, 5u}) {
    const unsigned wl_bits = std::bit_width(bandwidth - 1);
    const std::uint32_t merge_bit = std::uint32_t{1} << wl_bits;
    for (const double dup_prob : {0.0, 0.4, 0.9}) {
      for (const std::size_t n : {0u, 1u, 2u, 3u, 33u, 600u}) {
        const std::uint32_t links = 64;
        std::vector<std::uint64_t> keys;
        std::uint64_t prev_key = 0;
        for (std::size_t i = 0; i < n; ++i) {
          std::uint64_t key = prev_key;
          if (i == 0 || rng.next_below(1000) >=
                            static_cast<std::uint64_t>(dup_prob * 1000)) {
            const std::uint64_t link = rng.next_below(links);
            const bool merge = rng.next_below(4) == 0;
            key = (link << (wl_bits + 1)) |
                  (merge ? merge_bit : rng.next_below(bandwidth));
          }
          prev_key = key;
          keys.push_back((key << id_bits) | i);
        }
        std::sort(keys.begin(), keys.end());
        const std::size_t channels = std::size_t{links} * bandwidth;
        std::vector<std::uint32_t> epochs(channels);
        std::vector<SimTime> releases(channels);
        for (std::size_t c = 0; c < channels; ++c) {
          const std::uint64_t kind = rng.next_below(4);
          if (kind == 3) {
            epochs[c] = OccupancyRegistry::kHeldEpoch;
            releases[c] = std::numeric_limits<SimTime>::max();
            continue;
          }
          epochs[c] = kind == 0 ? current_epoch - 1 : current_epoch;
          releases[c] =
              kind == 2 ? now + 1 + static_cast<SimTime>(rng.next_below(9))
                        : static_cast<SimTime>(rng.next_below(51));
        }

        std::map<std::uint64_t, int> multiplicity;
        for (const std::uint64_t w : keys) ++multiplicity[w >> id_bits];
        std::vector<std::uint8_t> expected(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t k = keys[i] >> id_bits;
          const std::size_t channel =
              static_cast<std::size_t>(k >> (wl_bits + 1)) * bandwidth +
              static_cast<std::size_t>(k & (merge_bit - 1));
          expected[i] = multiplicity[k] == 1 && (k & merge_bit) == 0 &&
                        (epochs[channel] < current_epoch ||
                         releases[channel] <= now);
        }
        std::vector<std::uint8_t> mask(n, 0xCD);
        attempt::prescan_free_singletons(keys, id_bits, merge_bit, bandwidth,
                                         epochs.data(), current_epoch,
                                         releases.data(), now, mask.data());
        EXPECT_EQ(mask, expected) << "B " << bandwidth << " dup " << dup_prob
                                  << " n " << n;
      }
    }
  }
}

}  // namespace
}  // namespace opto
