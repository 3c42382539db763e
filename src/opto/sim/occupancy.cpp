#include "opto/sim/occupancy.hpp"

#include <algorithm>
#include <limits>

#include "opto/util/assert.hpp"

namespace opto {

namespace {
constexpr std::size_t kInitialCapacity = 64;  // power of two
constexpr std::size_t kNoSlot = ~std::size_t{0};
}  // namespace

OccupancyRegistry::OccupancyRegistry()
    : slots_(kInitialCapacity), mask_(kInitialCapacity - 1) {}

Claim OccupancyRegistry::held_claim() {
  Claim held;
  held.worm = kPinnedWorm;
  held.priority = std::numeric_limits<std::uint32_t>::max();
  held.entry = 0;
  held.release = std::numeric_limits<SimTime>::max();
  return held;
}

void OccupancyRegistry::use_dense(std::size_t link_count,
                                  std::uint32_t bandwidth) {
  OPTO_ASSERT_MSG(live_ == 0, "use_dense: registry must be empty");
  OPTO_ASSERT(bandwidth >= 1);
  bandwidth_ = bandwidth;
  const std::size_t channels = link_count * bandwidth;
  d_epoch_.assign(channels, 0);  // epoch_ >= 1, so 0 reads as empty
  d_release_.assign(channels, 0);
  d_claim_.assign(channels, Claim{});
  slots_.clear();
  slots_.shrink_to_fit();
}

const Claim* OccupancyRegistry::find(EdgeId link, Wavelength wavelength,
                                     SimTime now) const {
  if (dense()) {
    ++stats_.probes;
    const std::size_t idx = dense_index(link, wavelength);
    if (d_epoch_[idx] < epoch_ || d_release_[idx] <= now) return nullptr;
    OPTO_DASSERT(d_claim_[idx].entry <= now);
    ++stats_.hits;
    return &d_claim_[idx];
  }
  const std::uint64_t key = pack(link, wavelength);
  std::size_t idx = bucket(key);
  while (true) {
    const Slot& slot = slots_[idx];
    ++stats_.probes;
    if (slot.epoch < epoch_) return nullptr;  // empty: end of chain
    if (!slot.dead && slot.key == key) {
      if (slot.claim.release <= now) return nullptr;  // stale: drained
      OPTO_DASSERT(slot.claim.entry <= now);
      ++stats_.hits;
      return &slot.claim;
    }
    idx = (idx + 1) & mask_;
  }
}

std::optional<Claim> OccupancyRegistry::occupant(EdgeId link,
                                                 Wavelength wavelength,
                                                 SimTime now) const {
  const Claim* claim = find(link, wavelength, now);
  if (claim == nullptr) return std::nullopt;
  return *claim;
}

OccupancyRegistry::Slot* OccupancyRegistry::locate(std::uint64_t key) {
  std::size_t idx = bucket(key);
  while (true) {
    Slot& slot = slots_[idx];
    if (slot.epoch < epoch_) return nullptr;
    if (!slot.dead && slot.key == key) return &slot;
    idx = (idx + 1) & mask_;
  }
}

void OccupancyRegistry::claim(EdgeId link, Wavelength wavelength,
                              const Claim& claim) {
  OPTO_DASSERT(claim.release > claim.entry);
  if (dense()) {
    const std::size_t idx = dense_index(link, wavelength);
    const std::uint32_t epoch = d_epoch_[idx];
    if (epoch == kHeldEpoch) return;  // the held occupant shadows it
    if (epoch != epoch_) {
      d_epoch_[idx] = epoch_;
      ++live_;
    }
    d_claim_[idx] = claim;
    d_release_[idx] = claim.release;
    return;
  }
  if ((used_ + 1) * 4 >= slots_.size() * 3) grow();
  const std::uint64_t key = pack(link, wavelength);
  std::size_t idx = bucket(key);
  std::size_t reusable = kNoSlot;
  while (true) {
    Slot& slot = slots_[idx];
    if (slot.epoch < epoch_) {
      // End of chain: the key has no live entry. Prefer recycling a
      // tombstone or an expired entry seen on the way (keeps chains
      // short); otherwise take the empty slot.
      if (reusable != kNoSlot) {
        Slot& reuse = slots_[reusable];
        if (reuse.dead) {
          reuse.dead = false;
          ++live_;
        }
        // An expired live entry is evicted in place: live_ unchanged.
        reuse.key = key;
        reuse.claim = claim;
        return;
      }
      slot.key = key;
      slot.claim = claim;
      slot.epoch = epoch_;
      slot.dead = false;
      ++live_;
      ++used_;
      return;
    }
    if (!slot.dead && slot.key == key) {
      // Overwrite: an admitted winner replaces the loser. A held channel
      // is never overwritten.
      if (slot.epoch != kHeldEpoch) slot.claim = claim;
      return;
    }
    // Held slots (tombstones too) are never recycled for transient
    // claims: clear() would then empty them and cut held keys off.
    if (reusable == kNoSlot &&
        (slot.dead || slot.claim.release <= claim.entry) &&
        slot.epoch == epoch_)
      reusable = idx;
    idx = (idx + 1) & mask_;
  }
}

SimTime OccupancyRegistry::shorten(EdgeId link, Wavelength wavelength,
                                   WormId worm, SimTime new_release) {
  if (dense()) {
    const std::size_t idx = dense_index(link, wavelength);
    if (d_epoch_[idx] != epoch_ || d_claim_[idx].worm != worm) return 0;
    Claim& c = d_claim_[idx];
    if (new_release < c.entry) new_release = c.entry;
    if (new_release >= c.release) return 0;
    const SimTime trimmed = c.release - new_release;
    c.release = new_release;
    d_release_[idx] = new_release;
    return trimmed;
  }
  Slot* slot = locate(pack(link, wavelength));
  if (slot == nullptr || slot->epoch != epoch_ || slot->claim.worm != worm)
    return 0;
  if (new_release < slot->claim.entry) new_release = slot->claim.entry;
  if (new_release >= slot->claim.release) return 0;
  const SimTime trimmed = slot->claim.release - new_release;
  slot->claim.release = new_release;
  return trimmed;
}

void OccupancyRegistry::clear() {
  // Epoch wrap: the next epoch would read as held, and lazily emptied
  // slots would turn ambiguous. Empty every transient slot for real.
  if (++epoch_ == kHeldEpoch) {
    for (Slot& slot : slots_)
      if (slot.epoch != kHeldEpoch) slot.epoch = 0;
    for (std::uint32_t& e : d_epoch_)
      if (e != kHeldEpoch) e = 0;
    epoch_ = 1;
  }
  live_ = held_live_;
  used_ = held_used_;
  sweep_cursor_ = 0;
}

void OccupancyRegistry::pin(EdgeId link, Wavelength wavelength) {
  if (dense()) {
    const std::size_t idx = dense_index(link, wavelength);
    const std::uint32_t epoch = d_epoch_[idx];
    if (epoch == kHeldEpoch) return;
    if (epoch != epoch_) ++live_;  // else it replaces a transient claim
    d_epoch_[idx] = kHeldEpoch;
    d_claim_[idx] = held_claim();
    d_release_[idx] = d_claim_[idx].release;
    ++held_live_;
    ++held_used_;
    return;
  }
  // With the transient layer gone, the first non-held slot from the
  // bucket is empty, so the key lands at the end of a run of held slots.
  clear();
  if ((used_ + 1) * 4 >= slots_.size() * 3) grow();
  const std::uint64_t key = pack(link, wavelength);
  std::size_t idx = bucket(key);
  std::size_t tombstone = kNoSlot;
  while (slots_[idx].epoch == kHeldEpoch) {
    const Slot& slot = slots_[idx];
    if (!slot.dead && slot.key == key) return;  // already held
    if (slot.dead && tombstone == kNoSlot) tombstone = idx;
    idx = (idx + 1) & mask_;
  }
  Slot& slot = slots_[tombstone != kNoSlot ? tombstone : idx];
  if (tombstone == kNoSlot) {
    slot.epoch = kHeldEpoch;
    ++used_;
    ++held_used_;
  }
  slot.key = key;
  slot.claim = held_claim();
  slot.dead = false;
  ++live_;
  ++held_live_;
}

void OccupancyRegistry::unpin(EdgeId link, Wavelength wavelength) {
  if (dense()) {
    const std::size_t idx = dense_index(link, wavelength);
    if (d_epoch_[idx] != kHeldEpoch) return;
    d_epoch_[idx] = 0;
    --live_;
    --held_live_;
    --held_used_;
    return;
  }
  // A held key is reachable through held slots alone; leave a held
  // tombstone so the keys behind it stay reachable.
  const std::uint64_t key = pack(link, wavelength);
  for (std::size_t idx = bucket(key); slots_[idx].epoch == kHeldEpoch;
       idx = (idx + 1) & mask_) {
    Slot& slot = slots_[idx];
    if (slot.dead || slot.key != key) continue;
    slot.dead = true;
    --live_;
    --held_live_;
    return;
  }
}

void OccupancyRegistry::unpin_all() {
  if (held_used_ == 0) return;
  if (dense()) {
    for (std::uint32_t& e : d_epoch_)
      if (e == kHeldEpoch) e = 0;
    live_ -= held_live_;
  } else {
    clear();  // emptied held slots may sit on transient chains
    for (Slot& slot : slots_)
      if (slot.epoch == kHeldEpoch) slot.epoch = 0;
    live_ = 0;
    used_ = 0;
  }
  held_live_ = 0;
  held_used_ = 0;
}

void OccupancyRegistry::sweep(SimTime now) {
  if (dense()) return;  // fixed slots; expiry is judged at read time
  for (Slot& slot : slots_) {
    if (slot.epoch != epoch_ || slot.dead) continue;
    if (slot.claim.release <= now) {
      slot.dead = true;
      --live_;
    }
  }
}

void OccupancyRegistry::sweep_step(SimTime now, std::size_t budget) {
  if (dense()) return;  // nothing to reclaim
  if (live_ == held_live_) return;  // held channels never expire
  budget = std::min(budget, slots_.size());
  for (std::size_t i = 0; i < budget; ++i) {
    Slot& slot = slots_[sweep_cursor_];
    sweep_cursor_ = (sweep_cursor_ + 1) & mask_;
    if (slot.epoch != epoch_ || slot.dead) continue;
    if (slot.claim.release <= now) {
      slot.dead = true;
      --live_;
    }
  }
}

void OccupancyRegistry::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  used_ = live_;
  held_used_ = held_live_;
  sweep_cursor_ = 0;
  // Held keys first, so each lands at the end of a run of held slots
  // from its bucket; transient chains may then run through them.
  const auto reinsert = [&](bool held) {
    for (const Slot& slot : old) {
      if (slot.epoch < epoch_ || slot.dead) continue;
      if ((slot.epoch == kHeldEpoch) != held) continue;
      std::size_t idx = bucket(slot.key);
      while (slots_[idx].epoch >= epoch_) idx = (idx + 1) & mask_;
      slots_[idx] = slot;
    }
  };
  if (held_live_ != 0) reinsert(true);
  reinsert(false);
}

}  // namespace opto
