#include "wom/wom_tracker.h"

#include <cassert>
#include <cstring>

#include "common/perf.h"

namespace wompcm {

WomStateTracker::WomStateTracker(unsigned max_writes, RowTable& rows,
                                 bool erased_start)
    : rows_(&rows), t_(max_writes), erased_start_(erased_start) {
  assert(t_ >= 1);
  assert(t_ < kUnknownGen);
}

WomStateTracker::WomStateTracker(unsigned max_writes, unsigned lines_per_row,
                                 bool erased_start)
    : own_(std::make_unique<RowTable>(lines_per_row)),
      rows_(own_.get()),
      t_(max_writes),
      erased_start_(erased_start) {
  assert(t_ >= 1);
  assert(t_ < kUnknownGen);
}

unsigned WomStateTracker::generation(RowKey row, unsigned line) const {
  assert(line < rows_->lines());
  const RowTable::Row r = rows_->find(row);
  const unsigned g = r ? r.gen()[line] : kUnknownGen;
  return g == kUnknownGen && erased_start_ ? 0 : g;
}

WomStateTracker::WriteRecord WomStateTracker::record_write(RowKey row,
                                                           unsigned line) {
  // Counted as codec time: this is the timing simulator's stand-in for the
  // per-line encode step (SimResult::phases.codec_ns).
  perf::ScopedCodecTimer codec_timer;
  assert(line < rows_->lines());
  ++writes_;
  const RowTable::Row r = rows_->get(row);
  std::uint8_t& g = r.gen()[line];
  if (g == kUnknownGen && erased_start_) g = 0;
  std::uint32_t& at_limit = r.at_limit();
  if (g == kUnknownGen || g == t_) {
    // Alpha-write: re-initialize the codeword (SET) and store the data as a
    // fresh first write. Unknown lines are alpha too: an arbitrary array
    // state cannot be programmed with RESET pulses alone.
    ++alpha_writes_;
    const bool cold = g == kUnknownGen;
    if (cold) {
      ++cold_alpha_writes_;
    } else {
      --at_limit;
    }
    g = 1;
    if (t_ == 1) ++at_limit;  // with t=1, a fresh write is already at limit
    return {WriteClass::kAlpha, cold, r};
  }
  ++g;
  if (g == t_) ++at_limit;
  return {WriteClass::kResetOnly, false, r};
}

bool WomStateTracker::refresh(RowTable::Row r) {
  if (!r) return false;
  const bool useful = r.at_limit() > 0;
  std::memset(r.gen(), 0, rows_->lines());
  r.at_limit() = 0;
  return useful;
}

}  // namespace wompcm
