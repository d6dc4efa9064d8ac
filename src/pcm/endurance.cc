#include "pcm/endurance.h"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace wompcm {

WearTracker::WearTracker(unsigned lines_per_row, unsigned wear_divisor)
    : rows_(lines_per_row), quanta_per_cycle_(4 * wear_divisor) {
  assert(wear_divisor >= 1);
}

void WearTracker::merge_from(const WearTracker& o) {
  assert(o.quanta_per_cycle_ == quanta_per_cycle_);
  total_ += o.total_;
  touched_ += o.touched_;
  if (o.max_ > max_) max_ = o.max_;
}

void WearTracker::reject_pulses(double pulses_per_cell) const {
  if (pulses_per_cell * quanta_per_cycle_ > kMaxWear) {
    reject_overflow(0, kMaxWear);
  }
  throw std::invalid_argument(
      "wear increment of " + std::to_string(pulses_per_cell) +
      " pulses per cell is not a whole number of 1/" +
      std::to_string(quanta_per_cycle_) + "-cycle wear quanta");
}

void WearTracker::reject_overflow(std::uint32_t wear,
                                  std::uint32_t quanta) const {
  throw std::overflow_error(
      "line wear of " + std::to_string(cycles(wear)) + " + " +
      std::to_string(cycles(quanta)) + " cycles exceeds the per-line wear "
      "counter's " + std::to_string(cycles(kMaxWear)) + " cycles (32-bit "
      "count of 1/" + std::to_string(quanta_per_cycle_) + "-cycle quanta); "
      "the line is far past any PCM endurance, so split the run into "
      "shorter ones (fewer accesses=)");
}

double WearTracker::lifetime_seconds(Tick elapsed_ns,
                                     double cell_endurance) const {
  if (max_ == 0 || elapsed_ns == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const double elapsed_s = static_cast<double>(elapsed_ns) * 1e-9;
  // cycles/second, hottest line
  const double wear_rate = max_line_wear() / elapsed_s;
  return cell_endurance / wear_rate;
}

}  // namespace wompcm
