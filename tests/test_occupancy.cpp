#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "opto/rng/rng.hpp"
#include "opto/sim/occupancy.hpp"

namespace opto {

/// Moves the registry epoch, so the wrap branch of clear() is reachable
/// without 2^32 passes.
struct OccupancyTestPeer {
  static void set_epoch(OccupancyRegistry& registry, std::uint32_t epoch) {
    registry.epoch_ = epoch;
  }
};

namespace {

Claim make_claim(WormId worm, SimTime entry, SimTime release,
                 std::uint32_t link_index = 0, std::uint32_t priority = 0) {
  Claim claim;
  claim.worm = worm;
  claim.priority = priority;
  claim.link_index = link_index;
  claim.entry = entry;
  claim.release = release;
  return claim;
}

TEST(Occupancy, EmptyHasNoOccupant) {
  OccupancyRegistry registry;
  EXPECT_FALSE(registry.occupant(3, 0, 10).has_value());
}

TEST(Occupancy, ClaimVisibleWithinWindow) {
  OccupancyRegistry registry;
  registry.claim(3, 1, make_claim(7, 5, 9));
  EXPECT_TRUE(registry.occupant(3, 1, 5).has_value());
  EXPECT_TRUE(registry.occupant(3, 1, 8).has_value());
  EXPECT_FALSE(registry.occupant(3, 1, 9).has_value());  // released
  EXPECT_FALSE(registry.occupant(3, 0, 6).has_value());  // other wavelength
  EXPECT_FALSE(registry.occupant(4, 1, 6).has_value());  // other link
}

TEST(Occupancy, OverwriteReplacesStaleClaim) {
  OccupancyRegistry registry;
  registry.claim(2, 0, make_claim(1, 0, 4));
  registry.claim(2, 0, make_claim(9, 4, 8));
  const auto occ = registry.occupant(2, 0, 5);
  ASSERT_TRUE(occ.has_value());
  EXPECT_EQ(occ->worm, 9u);
}

TEST(Occupancy, ShortenCapsRelease) {
  OccupancyRegistry registry;
  registry.claim(2, 0, make_claim(1, 0, 10));
  registry.shorten(2, 0, 1, 6);
  EXPECT_TRUE(registry.occupant(2, 0, 5).has_value());
  EXPECT_FALSE(registry.occupant(2, 0, 6).has_value());
}

TEST(Occupancy, ShortenIgnoresForeignClaims) {
  OccupancyRegistry registry;
  registry.claim(2, 0, make_claim(1, 0, 10));
  registry.shorten(2, 0, /*worm=*/5, 3);  // not the owner
  EXPECT_TRUE(registry.occupant(2, 0, 8).has_value());
}

TEST(Occupancy, ShortenNeverExtends) {
  OccupancyRegistry registry;
  registry.claim(2, 0, make_claim(1, 0, 5));
  registry.shorten(2, 0, 1, 9);
  EXPECT_FALSE(registry.occupant(2, 0, 6).has_value());
}

TEST(Occupancy, SweepDropsExpired) {
  OccupancyRegistry registry;
  registry.claim(1, 0, make_claim(1, 0, 5));
  registry.claim(2, 0, make_claim(2, 0, 20));
  EXPECT_EQ(registry.size(), 2u);
  registry.sweep(10);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.occupant(2, 0, 10).has_value());
}

TEST(Occupancy, ClearEmpties) {
  OccupancyRegistry registry;
  registry.claim(1, 0, make_claim(1, 0, 5));
  registry.clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Occupancy, ShortenBelowEntryClampsToEntry) {
  // A release can never retreat past the claim's entry step: the head flit
  // occupied the link for at least that step.
  OccupancyRegistry registry;
  registry.claim(2, 0, make_claim(1, /*entry=*/5, /*release=*/15));
  EXPECT_EQ(registry.shorten(2, 0, 1, /*new_release=*/2), 10);  // 15 -> 5
  EXPECT_FALSE(registry.occupant(2, 0, 5).has_value());
}

TEST(Occupancy, DoubleShortenKeepsMinimum) {
  OccupancyRegistry registry;
  registry.claim(2, 0, make_claim(1, 0, 20));
  EXPECT_EQ(registry.shorten(2, 0, 1, 8), 12);
  // A later, shallower cut must not push the release back out.
  EXPECT_EQ(registry.shorten(2, 0, 1, 11), 0);
  EXPECT_TRUE(registry.occupant(2, 0, 7).has_value());
  EXPECT_FALSE(registry.occupant(2, 0, 8).has_value());
}

TEST(Occupancy, SweepKeepsLiveClaims) {
  OccupancyRegistry registry;
  for (EdgeId link = 0; link < 16; ++link)
    registry.claim(link, 0,
                   make_claim(link, 0, link % 2 == 0 ? 5 : 50));
  EXPECT_EQ(registry.size(), 16u);
  registry.sweep(10);  // even links expired, odd links still streaming
  EXPECT_EQ(registry.size(), 8u);
  for (EdgeId link = 0; link < 16; ++link)
    EXPECT_EQ(registry.occupant(link, 0, 10).has_value(), link % 2 == 1);
}

TEST(Occupancy, SweepStepDrainsIncrementally) {
  OccupancyRegistry registry;
  for (EdgeId link = 0; link < 32; ++link)
    registry.claim(link, 0, make_claim(link, 0, 5));
  EXPECT_EQ(registry.size(), 32u);
  // Each call scans only `budget` slots; lapping the whole table once must
  // have retired every expired claim.
  const std::size_t budget = 4;
  for (std::size_t scanned = 0; scanned < registry.capacity();
       scanned += budget)
    registry.sweep_step(10, budget);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Occupancy, StatsCountProbesAndHits) {
  OccupancyRegistry registry;
  registry.claim(3, 1, make_claim(7, 0, 10));
  registry.reset_stats();
  EXPECT_TRUE(registry.occupant(3, 1, 5).has_value());
  const auto after_hit = registry.stats();
  EXPECT_GE(after_hit.probes, 1u);
  EXPECT_EQ(after_hit.hits, 1u);
  EXPECT_FALSE(registry.occupant(9, 0, 5).has_value());
  const auto after_miss = registry.stats();
  EXPECT_GT(after_miss.probes, after_hit.probes);
  EXPECT_EQ(after_miss.hits, 1u);
  registry.reset_stats();
  EXPECT_EQ(registry.stats().probes, 0u);
  EXPECT_EQ(registry.stats().hits, 0u);
}

TEST(Occupancy, GrowthPreservesEveryLiveClaim) {
  OccupancyRegistry registry;
  constexpr EdgeId kLinks = 500;  // forces several doublings
  for (EdgeId link = 0; link < kLinks; ++link)
    registry.claim(link, link % 3, make_claim(link, 0, 1000 + link));
  EXPECT_EQ(registry.size(), kLinks);
  EXPECT_GE(registry.capacity(), kLinks);
  for (EdgeId link = 0; link < kLinks; ++link) {
    const auto occ = registry.occupant(link, link % 3, 500);
    ASSERT_TRUE(occ.has_value()) << "link " << link;
    EXPECT_EQ(occ->worm, link);
    EXPECT_EQ(occ->release, static_cast<SimTime>(1000 + link));
  }
}

TEST(Occupancy, ReclaimingSameKeyDoesNotGrowSize) {
  OccupancyRegistry registry;
  registry.claim(4, 0, make_claim(1, 0, 5));
  registry.claim(4, 0, make_claim(2, 10, 20));  // expired claim overwritten
  EXPECT_EQ(registry.size(), 1u);
  const auto occ = registry.occupant(4, 0, 12);
  ASSERT_TRUE(occ.has_value());
  EXPECT_EQ(occ->worm, 2u);
}

TEST(Occupancy, SweptSlotIsReusable) {
  OccupancyRegistry registry;
  registry.claim(4, 0, make_claim(1, 0, 5));
  registry.sweep(10);
  EXPECT_EQ(registry.size(), 0u);
  registry.claim(4, 0, make_claim(2, 10, 20));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(registry.occupant(4, 0, 15).has_value());
}

TEST(Occupancy, ClearThenReuseAcrossManyPasses) {
  // The epoch-based O(1) clear must isolate passes from each other while
  // reusing the same slot storage.
  OccupancyRegistry registry;
  for (int pass = 0; pass < 100; ++pass) {
    registry.clear();
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_FALSE(registry.occupant(7, 0, 1).has_value());
    registry.claim(7, 0, make_claim(static_cast<WormId>(pass), 0, 10));
    const auto occ = registry.occupant(7, 0, 1);
    ASSERT_TRUE(occ.has_value());
    EXPECT_EQ(occ->worm, static_cast<WormId>(pass));
  }
}

/// Both backends: the default hash table and a dense one over 64 links.
std::vector<OccupancyRegistry> both_backends() {
  std::vector<OccupancyRegistry> registries(2);
  registries[1].use_dense(64, 4);
  return registries;
}

TEST(Occupancy, HeldChannelSurvivesClear) {
  for (OccupancyRegistry& registry : both_backends()) {
    registry.pin(5, 2);
    EXPECT_EQ(registry.held(), 1u);
    for (int pass = 0; pass < 50; ++pass) {
      registry.clear();
      const Claim* held = registry.find(5, 2, 1000000);
      ASSERT_NE(held, nullptr) << "dense " << registry.dense();
      EXPECT_EQ(held->worm, kPinnedWorm);
      EXPECT_EQ(registry.size(), 1u);
      registry.claim(5, 1, make_claim(3, 0, 4));  // other wavelength: fine
      EXPECT_TRUE(registry.occupant(5, 1, 2).has_value());
    }
    registry.unpin(5, 2);
    EXPECT_EQ(registry.held(), 0u);
    EXPECT_FALSE(registry.occupant(5, 2, 0).has_value());
    registry.clear();
    EXPECT_EQ(registry.size(), 0u);
  }
}

TEST(Occupancy, ClaimNeverOverwritesHeldChannel) {
  for (OccupancyRegistry& registry : both_backends()) {
    registry.pin(9, 0);
    registry.clear();
    Claim stuck = make_claim(kInvalidWorm, 0, 1 << 30);
    registry.claim(9, 0, stuck);
    const Claim* occupant = registry.find(9, 0, 5);
    ASSERT_NE(occupant, nullptr);
    EXPECT_EQ(occupant->worm, kPinnedWorm) << "dense " << registry.dense();
    EXPECT_EQ(registry.shorten(9, 0, kPinnedWorm, 1), 0);
    EXPECT_EQ(registry.size(), 1u);
  }
}

TEST(Occupancy, PinIsIdempotentAndUnpinOfFreeChannelIsNoOp) {
  for (OccupancyRegistry& registry : both_backends()) {
    registry.pin(3, 1);
    registry.pin(3, 1);
    EXPECT_EQ(registry.held(), 1u);
    registry.unpin(4, 1);  // never held
    EXPECT_EQ(registry.held(), 1u);
    registry.unpin(3, 1);
    registry.unpin(3, 1);
    EXPECT_EQ(registry.held(), 0u);
    EXPECT_EQ(registry.size(), 0u);
  }
}

TEST(Occupancy, UnpinAllFreesEveryHeldChannel) {
  for (OccupancyRegistry& registry : both_backends()) {
    for (EdgeId link = 0; link < 40; ++link) registry.pin(link, link % 4);
    registry.unpin(7, 3);
    registry.unpin_all();
    registry.clear();
    EXPECT_EQ(registry.held(), 0u);
    EXPECT_EQ(registry.size(), 0u);
    for (EdgeId link = 0; link < 40; ++link)
      EXPECT_FALSE(registry.occupant(link, link % 4, 0).has_value());
    registry.pin(11, 3);
    registry.clear();
    EXPECT_TRUE(registry.occupant(11, 3, 0).has_value());
  }
}

TEST(Occupancy, EpochWrapKeepsHeldChannels) {
  for (OccupancyRegistry& registry : both_backends()) {
    registry.pin(6, 1);
    registry.claim(2, 0, make_claim(1, 0, 100));
    // The last ordinary epoch; the claim above is from an older one.
    OccupancyTestPeer::set_epoch(registry,
                                 OccupancyRegistry::kHeldEpoch - 1);
    EXPECT_FALSE(registry.occupant(2, 0, 5).has_value());
    registry.claim(3, 0, make_claim(2, 0, 100));
    EXPECT_TRUE(registry.occupant(3, 0, 5).has_value());
    registry.clear();  // wraps
    EXPECT_EQ(registry.epoch(), 1u);
    EXPECT_FALSE(registry.occupant(2, 0, 5).has_value());
    EXPECT_FALSE(registry.occupant(3, 0, 5).has_value());
    const auto held = registry.occupant(6, 1, 5);
    ASSERT_TRUE(held.has_value()) << "dense " << registry.dense();
    EXPECT_EQ(held->worm, kPinnedWorm);
    EXPECT_EQ(registry.size(), 1u);
    registry.claim(3, 0, make_claim(4, 0, 100));
    EXPECT_EQ(registry.occupant(3, 0, 5)->worm, 4u);
    registry.unpin(6, 1);
    registry.clear();
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_FALSE(registry.occupant(6, 1, 5).has_value());
  }
}

TEST(Occupancy, HeldAndTransientLayersMatchModel) {
  // Random passes over few keys in a small table, so probe chains mix
  // held slots, held tombstones, transient claims, transient tombstones
  // and growth. Between passes: pins/unpins; within a pass: claims,
  // shortens and sweeps. Every key's occupant must match a plain map.
  for (OccupancyRegistry& registry : both_backends()) {
    Rng rng(77);
    std::map<std::pair<EdgeId, Wavelength>, bool> held;
    for (int pass = 0; pass < 300; ++pass) {
      for (auto ops = rng.next_below(6); ops > 0; --ops) {
        const auto link = static_cast<EdgeId>(rng.next_below(64));
        const auto wl = static_cast<Wavelength>(rng.next_below(4));
        if (rng.next_below(3) != 0) {
          registry.pin(link, wl);
          held[{link, wl}] = true;
        } else {
          registry.unpin(link, wl);
          held.erase({link, wl});
        }
      }
      if (rng.next_below(50) == 0) {
        registry.unpin_all();
        held.clear();
      }
      registry.clear();
      std::map<std::pair<EdgeId, Wavelength>, Claim> transient;
      SimTime now = 0;
      for (int step = 0; step < 40; ++step, ++now) {
        const auto link = static_cast<EdgeId>(rng.next_below(64));
        const auto wl = static_cast<Wavelength>(rng.next_below(4));
        const Claim claim =
            make_claim(static_cast<WormId>(step), now,
                       now + 1 + static_cast<SimTime>(rng.next_below(8)));
        registry.claim(link, wl, claim);
        if (held.count({link, wl}) == 0) transient[{link, wl}] = claim;
        registry.sweep_step(now, 4);
      }
      ASSERT_EQ(registry.held(), held.size());
      for (EdgeId link = 0; link < 64; ++link)
        for (Wavelength wl = 0; wl < 4; ++wl) {
          const Claim* found = registry.find(link, wl, now);
          if (held.count({link, wl}) != 0) {
            ASSERT_NE(found, nullptr) << "pass " << pass;
            EXPECT_EQ(found->worm, kPinnedWorm);
            continue;
          }
          const auto it = transient.find({link, wl});
          const bool live = it != transient.end() && it->second.release > now;
          ASSERT_EQ(found != nullptr, live)
              << "pass " << pass << " link " << link << " wl " << wl
              << " dense " << registry.dense();
          if (live) EXPECT_EQ(found->worm, it->second.worm);
        }
    }
  }
}

}  // namespace
}  // namespace opto
