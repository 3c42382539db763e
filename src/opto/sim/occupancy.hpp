// Occupancy registry: who is currently streaming through each
// (directed link, wavelength) pair.
//
// A claim records the occupant worm, its priority, where the link sits on
// the occupant's path, when its head entered, and when the link frees up
// (entry + flit length at that link). Priority truncation shrinks release
// times via shorten(); an admitted winner simply overwrites the key (the
// loser's surviving flits are strictly ahead of the winner's, so the link
// is never double-booked — see the simulator's model notes).
//
// Two layers share the storage. Transient claims (worms of one pass,
// stuck-wavelength sentinels) live until the next clear(). Held channels
// (pin()/unpin(): the streaming engine's established circuits) carry the
// reserved epoch kHeldEpoch, the top epoch value, which clear() never
// reaches — so a slot is live iff its epoch is ≥ the current epoch, one
// compare for both layers, and a held channel is pinned once per circuit
// instead of being re-claimed every pass. A held slot is a permanent
// occupant (worm = kPinnedWorm, top priority, never released) that claim()
// never overwrites.
//
// Storage is a flat, open-addressed hash table (linear probing) keyed by
// the packed (link << 16) | wavelength word the simulator already computes
// per attempt. Design notes:
//  * clear() is O(1): slots carry an epoch stamp and a bumped epoch makes
//    every transient slot read as empty, so per-pass reset costs nothing
//    even when the table grew large on a previous pass.
//  * Probe chains are never broken: swept entries become tombstones (kept
//    non-empty for lookups) and are recycled by later insertions; a live
//    entry whose release is ≤ the inserting claim's entry time is equally
//    recyclable, since occupant() already treats it as absent. A held key
//    sits at the end of a run of held slots from its bucket (pin() drops
//    the transient layer first; grow() re-inserts held keys first), so
//    clear() never cuts a held key off from its bucket; an unpinned slot
//    stays behind as a held tombstone that only a later pin() recycles.
//  * sweep_step() retires expired claims incrementally (a bounded slot
//    window per call) instead of a stop-the-world scan, so long passes pay
//    a constant per-step GC cost with no periodic latency spike.
//  * Lookup probes and hits are counted; the simulator surfaces them in
//    PassMetrics so registry behaviour is visible in BENCH JSON.
//
// A second, dense backend (use_dense) direct-maps the full
// (link, wavelength) channel space into SoA arrays when it is small enough
// — every find/claim/shorten is one array access (probes = 1 per lookup by
// construction), clear() stays O(1) via the same epoch trick, and sweeps
// become no-ops (slots are fixed, expiry is judged at read time). The
// simulator switches a registry to dense per topology; the choice never
// depends on the thread count, so instrumentation stays comparable across
// OPTO_THREADS (DESIGN.md §9). The epoch and release arrays are exposed
// read-only for the attempt prescan (sim/attempt_kernel.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "opto/graph/graph.hpp"
#include "opto/optical/worm.hpp"
#include "opto/util/assert.hpp"

namespace opto {

struct Claim {
  WormId worm = kInvalidWorm;
  std::uint32_t priority = 0;
  std::uint32_t link_index = 0;  ///< position of this link on worm's path
  SimTime entry = 0;             ///< head entered the link at this step
  SimTime release = 0;           ///< first step the link is free again
};

class OccupancyRegistry {
 public:
  /// Epoch stamp of a held slot; clear() wraps before reaching it.
  static constexpr std::uint32_t kHeldEpoch = ~std::uint32_t{0};

  struct Stats {
    std::uint64_t probes = 0;  ///< slots inspected across all lookups
    std::uint64_t hits = 0;    ///< lookups that found a live occupant
  };

  OccupancyRegistry();

  /// Switches to the dense direct-mapped backend over the full channel
  /// space `link_count * bandwidth` (channel = link * bandwidth + λ).
  /// Must be called while empty, before any claim; keys outside the range
  /// are then undefined behaviour (the simulator guarantees both).
  void use_dense(std::size_t link_count, std::uint32_t bandwidth);
  bool dense() const { return bandwidth_ != 0; }

  /// Dense-backend internals for the simulator's free-channel prescan
  /// (attempt_kernel.cpp): a channel is free at `now` iff its epoch is
  /// below epoch() or its release is ≤ now. Null/0 under the hash
  /// backend.
  const std::uint32_t* dense_epochs() const {
    return dense() ? d_epoch_.data() : nullptr;
  }
  const SimTime* dense_releases() const {
    return dense() ? d_release_.data() : nullptr;
  }
  std::uint32_t epoch() const { return epoch_; }
  std::uint32_t dense_bandwidth() const { return bandwidth_; }

  /// Accounts a lookup the caller performed against the dense arrays
  /// directly (the prescan), keeping probe/hit stats identical to the
  /// find()-based path.
  void count_external_probe(bool hit) const {
    ++stats_.probes;
    stats_.hits += hit ? 1 : 0;
  }

  /// The live occupant of (link, wavelength) at time `now`, or nullptr.
  /// The pointer is valid until the next claim()/clear() (shorten and
  /// sweep never move slots).
  const Claim* find(EdgeId link, Wavelength wavelength, SimTime now) const;

  /// Copying convenience wrapper over find().
  std::optional<Claim> occupant(EdgeId link, Wavelength wavelength,
                                SimTime now) const;

  /// Records/overwrites the claim for (link, wavelength). A held channel
  /// is left as it is: the held occupant shadows the new claim.
  void claim(EdgeId link, Wavelength wavelength, const Claim& claim);

  /// Caps the release time of `worm`'s claim on (link, wavelength) at
  /// `new_release` (no-op if the key is now owned by another worm, is
  /// held, or the claim already releases earlier; a cap below the entry
  /// time clamps to it). Returns the busy steps trimmed.
  SimTime shorten(EdgeId link, Wavelength wavelength, WormId worm,
                  SimTime new_release);

  /// Forgets every transient claim; held channels stay. O(1): bumps the
  /// slot epoch.
  void clear();

  /// Holds (link, wavelength) until unpin(): a permanent occupant with
  /// worm = kPinnedWorm, top priority and a release that never comes,
  /// which clear() keeps. Pinning a held channel again is a no-op (pins
  /// do not nest). Call between passes: transient claims may not survive
  /// (the hash backend drops them, as clear() would).
  void pin(EdgeId link, Wavelength wavelength);

  /// Frees a held channel; a no-op if (link, wavelength) is not held.
  /// Transient claims survive.
  void unpin(EdgeId link, Wavelength wavelength);

  /// Frees every held channel. Call between passes, like pin().
  void unpin_all();

  /// Held channels currently pinned.
  std::size_t held() const { return held_live_; }

  /// Stored claims, held channels included (live entries, expired-but-
  /// unswept included; under the dense backend: slots claimed since the
  /// last clear, expired included).
  std::size_t size() const { return live_; }
  std::size_t capacity() const {
    return dense() ? d_claim_.size() : slots_.size();
  }

  /// Drops every claim with release ≤ now (full garbage collection).
  void sweep(SimTime now);

  /// Incremental variant: examines at most `budget` slots, resuming where
  /// the previous call left off. Claims it skips are still invisible to
  /// find()/occupant(), so sweep scheduling never affects outcomes.
  void sweep_step(SimTime now, std::size_t budget);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  friend struct OccupancyTestPeer;  // sets the epoch to test its wrap

  struct Slot {
    std::uint64_t key = 0;
    Claim claim;
    /// In use iff ≥ the registry epoch: equal for a transient claim,
    /// kHeldEpoch for a held channel.
    std::uint32_t epoch = 0;
    bool dead = false;        ///< swept tombstone (keeps chains intact)
  };

  /// The claim every held slot carries.
  static Claim held_claim();

  static std::uint64_t pack(EdgeId link, Wavelength wavelength) {
    return (static_cast<std::uint64_t>(link) << 16) | wavelength;
  }

  std::size_t bucket(std::uint64_t key) const {
    // Fibonacci multiplicative hash; the packed key is highly regular.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  /// The live slot holding `key`, or nullptr.
  Slot* locate(std::uint64_t key);

  void grow();

  std::size_t dense_index(EdgeId link, Wavelength wavelength) const {
    const std::size_t idx =
        static_cast<std::size_t>(link) * bandwidth_ + wavelength;
    OPTO_DASSERT(idx < d_claim_.size());
    return idx;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;      ///< live entries (what size() reports)
  std::size_t used_ = 0;      ///< live + tombstones (load-factor input)
  std::size_t held_live_ = 0;  ///< held channels (part of live_)
  std::size_t held_used_ = 0;  ///< held slots incl. held tombstones
  std::uint32_t epoch_ = 1;
  std::size_t sweep_cursor_ = 0;
  mutable Stats stats_;

  // Dense backend (active iff bandwidth_ != 0). d_release_ mirrors
  // d_claim_[i].release in a contiguous array the attempt prescan reads
  // without touching the claims; claim()/shorten() keep the two in sync.
  std::uint32_t bandwidth_ = 0;
  std::vector<std::uint32_t> d_epoch_;
  std::vector<SimTime> d_release_;
  std::vector<Claim> d_claim_;
};

}  // namespace opto
