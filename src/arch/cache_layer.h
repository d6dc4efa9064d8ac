// The per-rank WOM-cache front end (Section 4): tag state of one bank-sized
// array per rank, N_bank-way associative by bank address, with per-line
// valid bits and a dead-row set for rows retired by the fault model.
//
// Tag/valid/victim bookkeeping lives in a TagArray per (channel, rank) —
// 1-way sets indexed by row, tagged by bank, under bank_tag replacement —
// so the WOM cache is one point in the same tag-array design space as the
// DRAM front tier. The layer additionally owns the per-line valid bitmaps
// (the cache row only holds the lines written since the install) and the
// cache's CodingPolicy, held by value; the access protocol (victim
// spawning, bypass, fault pipeline, refresh scheduling) stays in
// Architecture.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/coding_policies.h"
#include "arch/tag_array.h"
#include "common/address.h"
#include "common/flat_map.h"

namespace wompcm {

class CacheLayer final {
 public:
  CacheLayer(const MemoryGeometry& geom, CodingPolicy coding);

  CodingPolicy& coding() { return coding_; }
  const CodingPolicy& coding() const { return coding_; }

  unsigned arrays() const { return static_cast<unsigned>(tags_.size()); }
  unsigned index(unsigned channel, unsigned rank) const {
    return channel * ranks_ + rank;
  }

  // Tag state of the single way of row-set `row` in array `cache_idx`.
  bool valid(unsigned cache_idx, unsigned row) const {
    return tags_[cache_idx].valid(row, 0);
  }
  unsigned installed_bank(unsigned cache_idx, unsigned row) const {
    return static_cast<unsigned>(tags_[cache_idx].tag(row, 0));
  }

  bool line_set(unsigned cache_idx, unsigned row, unsigned line) const {
    const LineBits& bits = lines_[cache_idx][row];
    if (bits.empty()) return false;
    return (bits[line / 64] >> (line % 64)) & 1;
  }

  // A read hits only if this bank's row is installed AND the requested line
  // was written since the install; other lines of the row are still current
  // in main memory (whose copy of those lines is still current).
  bool probe_read_hit(const DecodedAddr& dec) const;

  // Eviction flushed the previous occupant's lines; the tag itself is
  // rewritten by the install() that follows the fault pipeline.
  void evict_lines(unsigned cache_idx, unsigned row) {
    lines_[cache_idx][row].clear();
  }

  // Dead-row retirement: drop the occupant outright.
  void invalidate(unsigned cache_idx, unsigned row) {
    tags_[cache_idx].invalidate(row, 0);
    lines_[cache_idx][row].clear();
  }

  // Commit a write of `line`: (re)install `bank` as the row's occupant and
  // mark the line valid.
  void install(unsigned cache_idx, unsigned row, unsigned bank, unsigned line);

  // Cache rows have no spare pool behind them: a dead row is invalidated
  // and bypassed (writes latch through to main memory) instead of remapped.
  bool row_dead(unsigned cache_idx, unsigned row) const {
    return dead_rows_.find(row_key(cache_idx, row)) != nullptr;
  }
  void mark_dead(unsigned cache_idx, unsigned row) {
    dead_rows_[row_key(cache_idx, row)] = 1;
  }

  // Monotone stamp advanced on every tag mutation that could flip a queued
  // demand read's probe outcome (install, re-bank, new valid line,
  // invalidation) — see Architecture::route_version.
  std::uint64_t route_version() const { return route_version_; }
  void note_route_change() { ++route_version_; }

 private:
  using LineBits = std::vector<std::uint64_t>;

  // Dead-row set key of a cache row — local to the cache arrays (the row's
  // generations, wear and fault state live under the owning architecture's
  // cache_wear_key).
  std::uint64_t row_key(unsigned cache_idx, unsigned row) const {
    return static_cast<std::uint64_t>(cache_idx) * rows_per_bank_ + row;
  }

  unsigned ranks_;
  unsigned rows_per_bank_;
  unsigned lines_per_row_;
  CodingPolicy coding_;
  // One 1-way bank_tag TagArray per (channel, rank) cache array, with the
  // per-line valid bitmaps as the slot-parallel payload (slot == row).
  std::vector<TagArray> tags_;
  std::vector<std::vector<LineBits>> lines_;
  std::uint64_t route_version_ = 0;
  // Keyed like row_key; only ever populated while faults are enabled.
  FlatMap64<std::uint8_t> dead_rows_;
};

}  // namespace wompcm
