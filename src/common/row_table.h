// The per-row state table: one record per touched row, one probe per write.
//
// Every per-row fact the write path keeps lives in one record: the wear
// count of each line (pcm/endurance.h) and, for WOM-coded regions, each
// line's write generation plus the row's at-limit count
// (wom/wom_tracker.h). An architecture owns one table for all its regions —
// the regions' row keys are disjoint — so a demand write locates its row
// once and a PCM-refresh walks one record.
//
// Records live in fixed-size chunks that are never moved or copied: a Row
// handle stays valid for the table's lifetime, across later insertions.
// Rows are indexed by an insert-only FlatMap64 (row key -> 1-based record
// id); the table is never iterated, so no reported value depends on where
// a record lands.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace wompcm {

class RowTable {
 public:
  // Initial values of a fresh record: every line's wear count and
  // generation read as "never touched" (all-ones), none at the limit.
  static constexpr std::uint32_t kUntouchedWear = 0xFFFFFFFFu;
  static constexpr std::uint8_t kUnknownGen = 0xFF;

  // Handle to one row's record. Null when the row has none yet.
  class Row {
   public:
    Row() = default;
    explicit operator bool() const { return p_ != nullptr; }
    // Lines of the row at the rewrite limit (WOM-coded regions only).
    std::uint32_t& at_limit() const { return p_[0]; }
    // Per-line wear counts in the owner's wear quanta (kUntouchedWear for
    // a line never worn).
    std::uint32_t* wear() const { return p_ + 1; }
    // Per-line write generations (kUnknownGen for a line never written
    // nor refreshed).
    std::uint8_t* gen() const {
      return reinterpret_cast<std::uint8_t*>(p_ + 1 + lines_);
    }

   private:
    friend class RowTable;
    Row(std::uint32_t* p, unsigned lines) : p_(p), lines_(lines) {}
    std::uint32_t* p_ = nullptr;
    unsigned lines_ = 0;
  };

  explicit RowTable(unsigned lines_per_row)
      : lines_(lines_per_row),
        words_(1 + lines_per_row + (lines_per_row + 3) / 4) {
    // The index is only ever keyed (never iterated), so pre-sizing cannot
    // change any reported value; it just avoids rehash churn on the write
    // hot path. Records are not pre-sized: they grow a chunk at a time.
    index_.reserve(1 << 14);
  }

  unsigned lines() const { return lines_; }
  // Rows holding a record.
  std::size_t size() const { return index_.size(); }

  // The row's record, or a null handle. Const and allocation-free; the
  // handle grants write access, const callers only read through it.
  Row find(RowKey row) const {
    const std::uint32_t* id = index_.find(row);
    return id == nullptr ? Row() : at(*id);
  }

  // The row's record, created fresh (see kUntouchedWear / kUnknownGen) on
  // first touch.
  Row get(RowKey row) {
    std::uint32_t& id = index_[row];
    if (id == 0) {
      // The new key is already counted: ids run 1, 2, ... in insertion
      // order.
      id = static_cast<std::uint32_t>(index_.size());
      init(id);
    }
    return at(id);
  }

 private:
  static constexpr unsigned kChunkShift = 6;  // 64 records per chunk
  static constexpr std::uint32_t kChunkRows = 1u << kChunkShift;

  Row at(std::uint32_t id) const {
    const std::uint32_t i = id - 1;
    return Row(chunks_[i >> kChunkShift].get() +
                   static_cast<std::size_t>(i & (kChunkRows - 1)) * words_,
               lines_);
  }

  // Initializes record `id`, the next free one, opening a chunk if needed.
  void init(std::uint32_t id) {
    if ((id - 1) % kChunkRows == 0) {
      chunks_.push_back(
          std::make_unique_for_overwrite<std::uint32_t[]>(kChunkRows * words_));
    }
    std::uint32_t* p = at(id).p_;
    p[0] = 0;
    std::memset(p + 1, 0xFF, (words_ - 1) * sizeof(std::uint32_t));
  }

  unsigned lines_;
  std::size_t words_;  // record size: at-limit, wear counts, generations
  FlatMap64<std::uint32_t> index_;  // row key -> 1-based record id
  std::vector<std::unique_ptr<std::uint32_t[]>> chunks_;
};

}  // namespace wompcm
