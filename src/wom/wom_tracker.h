// WOM write-generation tracking for the timing simulator.
//
// Encoding is per column (Section 3.1: "memory data is encoded in the unit
// of a column"), so each burst-sized line of a row carries its own n-wit
// codeword and its own rewrite budget; PCM-refresh re-initializes a whole
// row at once (Section 3.2). The controller only needs each line's
// *generation* to classify a write as RESET-only (fast) or alpha (slow):
// the inverted code makes the classification data independent.
//
// Line generation semantics (t = code rewrite limit):
//   unknown      : never written since power-on. The array state is
//                  arbitrary, so the first write needs SET pulses -> alpha.
//   gen 0        : erased by PCM-refresh; next write is RESET-only.
//   0 < gen < t  : in budget; next write is RESET-only.
//   gen == t     : at the rewrite limit; the next write is the alpha-write,
//                  which re-initializes the codeword and leaves it at gen 1.
//
// A line of a sectioned code (polar, time-space constrained) spans several
// independently budgeted sections, but one generation still describes it:
// every write programs the whole line, rows start uniform and refresh clears
// whole rows, so all sections of a line always share one generation.
//
// The generations live in the owning architecture's per-row table
// (common/row_table.h), next to the row's wear, so a write locates its row
// with one probe.
#pragma once

#include <cstdint>
#include <memory>

#include "common/row_table.h"
#include "common/types.h"

namespace wompcm {

class WomStateTracker {
 public:
  // erased_start: lines of untouched rows count as erased (generation 0)
  // rather than unknown. Used for the WOM-cache, whose small array is
  // formatted at boot and cycles through refresh continuously; main-memory
  // trackers keep the conservative unknown-start semantics. A fresh
  // record's generations read kUnknownGen, and an erased-start tracker
  // reads that as 0: the table is shared, the start state is the region's.
  //
  // The tracker keeps its generations in `rows`, which must outlive it.
  WomStateTracker(unsigned max_writes, RowTable& rows,
                  bool erased_start = false);
  // A tracker with a table of its own (standalone use).
  WomStateTracker(unsigned max_writes, unsigned lines_per_row,
                  bool erased_start = false);

  unsigned max_writes() const { return t_; }
  unsigned lines_per_row() const { return rows_->lines(); }

  struct WriteRecord {
    WriteClass cls = WriteClass::kResetOnly;
    bool cold = false;  // alpha on a never-touched line (not refreshable)
    RowTable::Row row;  // the written row's record
  };

  // Records a demand write to line `line` of `row` and returns its class.
  WriteRecord record_write(RowKey row, unsigned line);

  // Generation of one line; kUnknownGen if never written nor refreshed.
  static constexpr unsigned kUnknownGen = RowTable::kUnknownGen;
  unsigned generation(RowKey row, unsigned line) const;

  // True if any line of `row` is at the rewrite limit (the row belongs in
  // the refresh row-address table).
  bool row_has_limit_lines(RowKey row) const {
    const RowTable::Row r = rows_->find(row);
    return r && r.at_limit() > 0;
  }

  // PCM-refresh: pre-erases every codeword of the row so subsequent writes
  // take the RESET-only path. Returns true if the row still had lines at
  // the rewrite limit (i.e. the refresh was useful). A row with no record
  // (never written) is left alone.
  bool refresh(RowKey row) { return refresh(rows_->find(row)); }
  bool refresh(RowTable::Row r);

  // Statistics.
  std::uint64_t writes() const { return writes_; }
  std::uint64_t alpha_writes() const { return alpha_writes_; }
  std::uint64_t cold_alpha_writes() const { return cold_alpha_writes_; }

 private:
  std::unique_ptr<RowTable> own_;  // set only for a standalone tracker
  RowTable* rows_;
  unsigned t_;
  bool erased_start_;
  std::uint64_t writes_ = 0;
  std::uint64_t alpha_writes_ = 0;
  std::uint64_t cold_alpha_writes_ = 0;
};

}  // namespace wompcm
