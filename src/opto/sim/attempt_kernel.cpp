#include "opto/sim/attempt_kernel.hpp"

#include <bit>

namespace opto::attempt {

void prescan_free_singletons(std::span<const std::uint64_t> keys,
                             unsigned id_bits, std::uint32_t merge_bit,
                             std::uint32_t bandwidth,
                             const std::uint32_t* epochs,
                             std::uint32_t current_epoch,
                             const SimTime* releases, SimTime now,
                             std::uint8_t* mask) {
  const std::size_t n = keys.size();
  const std::uint64_t wl_mask = merge_bit - 1;
  const unsigned link_shift =
      static_cast<unsigned>(std::countr_zero(merge_bit)) + 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i] >> id_bits;
    const bool singleton = (i == 0 || (keys[i - 1] >> id_bits) != k) &&
                           (i + 1 == n || (keys[i + 1] >> id_bits) != k);
    std::uint8_t flag = 0;
    if (singleton && (k & merge_bit) == 0) {
      const std::size_t channel =
          static_cast<std::size_t>(k >> link_shift) * bandwidth +
          static_cast<std::size_t>(k & wl_mask);
      flag = (epochs[channel] < current_epoch || releases[channel] <= now)
                 ? 1
                 : 0;
    }
    mask[i] = flag;
  }
}

}  // namespace opto::attempt
