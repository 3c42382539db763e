// The simulator's free-singleton prescan over the packed attempt words —
// the per-step hot path that lets a worm alone on a free channel skip the
// group build and registry find (DESIGN.md §9).
//
// Key layout (bandwidth-adaptive, chosen per simulator):
//   key32  = (link << (wl_bits + 1)) | merge_bit? | wavelength
//   word   = (u64(key32) << id_bits) | worm id
// where merge_bit = 1 << wl_bits marks a converting coupler's link (its
// entrants group by link alone). The simulator pre-bakes the link and
// merge halves per flat-path position, so key build is one lookup + a
// masked OR of the worm's wavelength.
#pragma once

#include <cstdint>
#include <span>

#include "opto/optical/worm.hpp"

namespace opto::attempt {

/// Flags the sorted attempt words whose group is a singleton on a
/// non-merge key whose channel is free in the dense registry at `now`
/// (epoch below `current_epoch` or release ≤ now; a held channel's epoch
/// is the top value, so it is never free): mask[i] = 1 exactly for those, else
/// 0. The simulator admits flagged worms in place, skipping the group
/// build and registry find — legal because a same-step truncation can
/// never free a channel at `now` and distinct groups never share one, so
/// a channel free before the step's groups run stays free at the group's
/// turn. `mask` must hold keys.size() bytes.
///
/// Channel index = (key32 >> (wl_bits + 1)) * bandwidth + wavelength,
/// matching OccupancyRegistry's dense layout; wl_bits is implied by
/// merge_bit = 1 << wl_bits.
void prescan_free_singletons(std::span<const std::uint64_t> keys,
                             unsigned id_bits, std::uint32_t merge_bit,
                             std::uint32_t bandwidth,
                             const std::uint32_t* epochs,
                             std::uint32_t current_epoch,
                             const SimTime* releases, SimTime now,
                             std::uint8_t* mask);

}  // namespace opto::attempt
