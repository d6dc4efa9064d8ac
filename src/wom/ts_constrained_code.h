// Time-space constrained WOM codec (after Qin, Yaakobi & Siegel, "Time-
// space constrained codes for phase-change memories").
//
// Bounds the per-cell write frequency by time-multiplexing R replicas of a
// base WOM code: each section holds R physical copies of a 16-symbol group,
// and successive writes rotate through the replicas — writes
// [q*t_base, (q+1)*t_base) land in replica q, so any individual cell is
// programmed during at most a 1/R fraction of the section's life. That
// budget is surfaced to the wear model as wear_divisor() = R: the same
// write traffic ages each cell R times slower, trading capacity (overhead
// grows R-fold) for endurance — the paper's space axis of the time-space
// constraint.
//
// The rotation also multiplies the rewrite budget: a section survives
// t = R * t_base writes before an alpha re-initialization, so with an
// inverted base code the RESET-only run between alphas grows from
// t_base - 1 to R * t_base - 1.
//
// Decode is generation-AWARE — the live replica is (writes-1) / t_base —
// which is exactly what the whole-page WomCode interface cannot express and
// the BlockCodec seam exists to carry. Encode per base symbol reuses the
// base code's EncodeLut when one exists.
#pragma once

#include <cstdint>
#include <vector>

#include "wom/block_codec.h"
#include "wom/encode_lut.h"
#include "wom/wom_code.h"

namespace wompcm {

class TsConstrainedCodec final : public BlockCodec {
 public:
  static constexpr unsigned kMinReplicas = 2;
  static constexpr unsigned kMaxReplicas = 8;
  // Base symbols grouped per section; keeps sections line-divisible for
  // every registry base code (16 * k_base data bits per section).
  static constexpr unsigned kGroup = 16;

  TsConstrainedCodec(WomCodePtr base, unsigned replicas);

  std::string name() const override;
  unsigned section_data_bits() const override {
    return kGroup * base_->data_bits();
  }
  unsigned section_wits() const override { return replicas_ * replica_wits_; }
  unsigned max_writes() const override {
    return replicas_ * base_->max_writes();
  }
  bool raises_bits() const override { return base_->raises_bits(); }
  bool lut_backed() const override { return lut_ != nullptr; }
  unsigned wear_divisor() const override { return replicas_; }

  SectionWrite erase_section(BitVec& image,
                             std::size_t section) const override;
  SectionWrite write_section(BitVec& image, const BitVec& data,
                             std::size_t section,
                             unsigned* generation) override;
  void read_section(const BitVec& image, std::size_t section,
                    unsigned generation, BitVec& data) const override;

  const WomCodePtr& base() const { return base_; }
  unsigned replicas() const { return replicas_; }

 private:
  WomCodePtr base_;
  std::shared_ptr<const EncodeLut> lut_;  // base-code table, if narrow enough
  unsigned replicas_ = 0;
  unsigned replica_wits_ = 0;             // kGroup * base wits
  BitVec init_;                           // one section's erased wit state
  mutable BitVec sym_;                    // scratch: one symbol (virtual)
  BitVec enc_;                            // scratch: encoded wits (virtual)
  std::vector<std::uint16_t> bitrev_;     // base-k MSB-first <-> word
};

}  // namespace wompcm
