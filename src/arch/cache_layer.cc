#include "arch/cache_layer.h"

#include <utility>

namespace wompcm {

CacheLayer::CacheLayer(const MemoryGeometry& geom, CodingPolicy coding)
    : ranks_(geom.ranks),
      rows_per_bank_(geom.rows_per_bank),
      lines_per_row_(geom.lines_per_row()),
      coding_(std::move(coding)) {
  const unsigned arrays = geom.channels * geom.ranks;
  tags_.reserve(arrays);
  for (unsigned i = 0; i < arrays; ++i) {
    tags_.emplace_back(geom.rows_per_bank, /*ways=*/1,
                       ReplacementKind::kBankTag);
  }
  lines_.assign(arrays, std::vector<LineBits>(geom.rows_per_bank));
}

bool CacheLayer::probe_read_hit(const DecodedAddr& dec) const {
  const unsigned ci = index(dec.channel, dec.rank);
  return tags_[ci].valid(dec.row, 0) &&
         tags_[ci].tag(dec.row, 0) == dec.bank &&
         line_set(ci, dec.row, dec.col);
}

void CacheLayer::install(unsigned cache_idx, unsigned row, unsigned bank,
                         unsigned line) {
  TagArray& t = tags_[cache_idx];
  if (t.valid(row, 0) && t.tag(row, 0) == bank) {
    t.touch(row, 0);
  } else {
    t.install(row, 0, bank);
  }
  LineBits& bits = lines_[cache_idx][row];
  if (bits.empty()) bits.assign((lines_per_row_ + 63) / 64, 0);
  bits[line / 64] |= std::uint64_t{1} << (line % 64);
}

}  // namespace wompcm
