// PCM cell-wear accounting.
//
// The paper explicitly leaves endurance open ("their impact on the
// endurance of PCM is not explicitly addressed"); this tracker quantifies
// it. Every programming pulse cycles the chalcogenide; a PCM cell survives
// on the order of 1e8 SET/RESET cycles. We track expected pulses *per cell*
// at line granularity:
//   - a RESET-only (WOM fast-path) write flips about half the coded cells:
//     0.5 pulses/cell;
//   - an alpha/conventional write erases and reprograms: ~1.0 pulses/cell;
//   - a PCM-refresh re-initializes a row: ~0.5 pulses/cell on every line.
// The hottest line bounds the array lifetime (without wear leveling).
#pragma once

#include <cstdint>

#include "common/row_table.h"
#include "common/types.h"

namespace wompcm {

inline constexpr double kResetOnlyWearPerCell = 0.5;
inline constexpr double kAlphaWearPerCell = 1.0;
inline constexpr double kRefreshWearPerCell = 0.5;

// Typical PCM endurance (cycles per cell) used by the lifetime estimate.
inline constexpr double kDefaultCellEndurance = 1e8;

class WearTracker {
 public:
  // `wear_divisor` is the lcm L of the wear divisors of the regions this
  // tracker serves (a time-space constrained code touches 1/R of its cells
  // per write: divisor R; every other coding: 1). Wear is counted in
  // integer quanta of 1/(4L) cycle, which makes every increment exact —
  // 0.25, 0.5 and 1.0 cycles, those over R, and whole retry pulses — so
  // sums do not depend on order; counts become doubles only when read.
  explicit WearTracker(unsigned lines_per_row, unsigned wear_divisor = 1);

  // The architecture's per-row table the wear lives in. WOM-coded regions
  // keep their line generations in the same records (wom/wom_tracker.h),
  // so a write locates its row once.
  RowTable& rows() { return rows_; }

  std::uint32_t quanta_per_cycle() const { return quanta_per_cycle_; }
  // `pulses_per_cell` in wear quanta. Throws std::invalid_argument unless
  // it is a whole, non-negative number of quanta, and std::overflow_error
  // past one line's counter.
  std::uint32_t quanta(double pulses_per_cell) const {
    const double q = pulses_per_cell * quanta_per_cycle_;
    if (!(q >= 0.0 && q <= kMaxWear) || q != static_cast<std::uint32_t>(q)) {
      reject_pulses(pulses_per_cell);
    }
    return static_cast<std::uint32_t>(q);
  }

  void on_write(RowKey row, unsigned line, WriteClass cls) {
    add(rows_.get(row), line,
        quanta(cls == WriteClass::kResetOnly ? kResetOnlyWearPerCell
                                             : kAlphaWearPerCell));
  }

  // A refresh cycles every line of the row: one walk over its record.
  void on_refresh(RowKey row) { on_refresh(rows_.get(row)); }
  void on_refresh(RowTable::Row r) {
    const std::uint32_t q = quanta(kRefreshWearPerCell);
    std::uint32_t* w = r.wear();
    const unsigned lines = rows_.lines();
    if (max_ > kMaxWear - q) {  // some line may overflow: check each one
      for (unsigned l = 0; l < lines; ++l) bump(w[l], q);
      return;
    }
    // No line holds more than max_, so none can overflow: the same updates
    // as bump(), in a branch-free loop the compiler vectorizes.
    std::uint32_t fresh = 0;
    std::uint32_t hottest = max_;
    for (unsigned l = 0; l < lines; ++l) {
      const std::uint32_t old = w[l];
      const bool untouched = old == RowTable::kUntouchedWear;
      w[l] = (untouched ? 0 : old) + q;
      fresh += untouched;
      hottest = w[l] > hottest ? w[l] : hottest;
    }
    touched_ += fresh;
    total_ += static_cast<std::uint64_t>(q) * lines;
    max_ = hottest;
  }

  // Explicit pulse count for schemes with their own write model
  // (e.g. Flip-N-Write's at-most-half-the-bits guarantee).
  void on_write_pulses(RowKey row, unsigned line, double pulses_per_cell) {
    add(rows_.get(row), line, quanta(pulses_per_cell));
  }

  // `quanta` of wear on one line of an already located row.
  void add(RowTable::Row r, unsigned line, std::uint32_t quanta) {
    bump(r.wear()[line], quanta);
  }

  double total_wear() const { return cycles(total_); }
  double max_line_wear() const { return cycles(max_); }

  // Accumulated wear of one line (0 for a line never touched). Const and
  // allocation-free: safe on the fault model's per-write classification path.
  double line_wear(RowKey row, unsigned line) const {
    const RowTable::Row r = rows_.find(row);
    if (!r) return 0.0;
    const std::uint32_t w = r.wear()[line];
    return w == RowTable::kUntouchedWear ? 0.0 : cycles(w);
  }

  std::size_t touched_lines() const { return touched_; }
  double mean_line_wear() const {
    return touched_ == 0 ? 0.0
                         : total_wear() / static_cast<double>(touched_);
  }

  // Lifetime until the hottest line exhausts `cell_endurance` cycles, if
  // the observed wear rate over `elapsed_ns` continues. Returns +inf when
  // nothing wore.
  double lifetime_seconds(Tick elapsed_ns,
                          double cell_endurance = kDefaultCellEndurance) const;
  double lifetime_years(Tick elapsed_ns,
                        double cell_endurance = kDefaultCellEndurance) const {
    return lifetime_seconds(elapsed_ns, cell_endurance) / (365.25 * 86400.0);
  }

  // Folds another tracker's aggregate figures (total / touched / max) into
  // this one, for summing per-channel architecture replicas after a sharded
  // run. Per-row records are not transferred — the merged instance answers
  // the end-of-run aggregate queries only, which is all publish_metrics
  // reads. Exactness: both trackers count integer quanta of the same size
  // (replicas are built from one configuration), so summing per-channel
  // totals equals the serial interleaved total exactly, for every code —
  // including the non-dyadic 1/R increments of time-space constrained
  // codes; max and touched are order-independent outright.
  void merge_from(const WearTracker& o);

 private:
  // Largest count one line may hold; all-ones marks a line never touched.
  static constexpr std::uint32_t kMaxWear = RowTable::kUntouchedWear - 1;

  double cycles(std::uint64_t quanta) const {
    return static_cast<double>(quanta) / quanta_per_cycle_;
  }

  // A line's first touch counts it in touched_ even when it adds no wear,
  // matching the per-(row, line) key count a map would hold.
  void bump(std::uint32_t& w, std::uint32_t q) {
    const bool fresh = w == RowTable::kUntouchedWear;
    const std::uint32_t base = fresh ? 0 : w;
    if (q > kMaxWear - base) reject_overflow(base, q);
    w = base + q;
    touched_ += fresh;
    total_ += q;
    if (w > max_) max_ = w;
  }

  [[noreturn]] void reject_pulses(double pulses_per_cell) const;
  [[noreturn]] void reject_overflow(std::uint32_t wear,
                                    std::uint32_t quanta) const;

  RowTable rows_;
  std::uint32_t quanta_per_cycle_;
  std::size_t touched_ = 0;
  std::uint64_t total_ = 0;  // quanta
  std::uint32_t max_ = 0;    // quanta
};

}  // namespace wompcm
