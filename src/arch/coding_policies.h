// The closed set of codings, and the CodingPolicy that holds one by value.
//
// RawCoding, SymmetricCoding, FnwCoding and WomCoding are plain classes
// with no virtual functions. CodingPolicy holds exactly one of them in a
// std::variant and forwards every hook through std::visit; GCC lowers a
// visit over one variant to a switch on its index, so each per-access hook
// is a direct, inlinable call on the concrete class. The variant also makes
// the kind <-> type mapping a property of the type system: the four WOM
// kinds (wom-wide, wom-hidden, polar, ts-constrained) are all WomCoding,
// and nothing else can be built.
#pragma once

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "arch/coding_policy.h"
#include "common/rng.h"
#include "wom/wom_tracker.h"

namespace wompcm {

// Conventional PCM: every write almost surely needs SET pulses somewhere in
// the line, so it completes at the full row-write latency.
class RawCoding : public CodingBase {
 public:
  using CodingBase::CodingBase;

  CodingKind kind() const { return CodingKind::kRaw; }
  double overhead() const { return 0.0; }

  WriteBegin begin_write(std::uint64_t, unsigned, IssuePlan* p) {
    p->write_class = WriteClass::kAlpha;
    p->program_ns = ctx_.timing->row_write_ns;
    return {WriteClass::kAlpha, false, {}};
  }

  bool finish_write(const WriteBegin&, bool, std::uint64_t key, unsigned line,
                    bool internal, IssuePlan*) {
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else {
      bump(ctr_slow_, "writes.slow");
    }
    ctx_.energy->on_write(WriteClass::kAlpha, ctx_.line_bits);
    // A conventional bit-alterable write flips about half the cells.
    ctx_.wear->on_write_pulses(key, line, kResetOnlyWearPerCell);
    return false;
  }

 private:
  std::uint64_t* ctr_slow_ = nullptr;
};

// Hypothetical symmetric-write memory: SET as fast as RESET (S = 1), the
// latency upper bound every WOM scheme chases.
class SymmetricCoding : public CodingBase {
 public:
  using CodingBase::CodingBase;

  CodingKind kind() const { return CodingKind::kSymmetric; }
  double overhead() const { return 0.0; }

  WriteBegin begin_write(std::uint64_t, unsigned, IssuePlan* p) {
    p->write_class = WriteClass::kResetOnly;
    p->program_ns = ctx_.timing->reset_ns;
    return {WriteClass::kResetOnly, false, {}};
  }

  bool finish_write(const WriteBegin&, bool, std::uint64_t key, unsigned line,
                    bool internal, IssuePlan* p) {
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else {
      bump(ctr_fast_, "writes.fast");
    }
    // Post-fault class: a demoted write is charged at the alpha rate.
    ctx_.energy->on_write(p->write_class, ctx_.line_bits);
    ctx_.wear->on_write_pulses(key, line, kResetOnlyWearPerCell);
    return false;
  }

 private:
  std::uint64_t* ctr_fast_ = nullptr;
};

// Flip-N-Write (Cho & Lee, MICRO 2009): at most half the bits programmed
// per write, but RESET-latency completion only when the chosen encoding
// needs no SET pulse anywhere — an explicit probability here, since the
// timing model carries no data payloads.
class FnwCoding : public CodingBase {
 public:
  FnwCoding(const RegionContext& ctx, double fast_fraction, std::uint64_t seed)
      : CodingBase(ctx), fast_fraction_(fast_fraction) {
    // One generator per channel, so the fast/slow draw sequence each
    // channel sees depends only on that channel's own write order — not on
    // cross-channel interleaving (the sharded-run determinism contract,
    // mirroring FaultModel's per-channel event streams). Channel 0 seeds
    // exactly as the single shared generator used to, keeping
    // single-channel runs bit-identical.
    rngs_.reserve(ctx.channels == 0 ? 1 : ctx.channels);
    for (unsigned c = 0; c < (ctx.channels == 0 ? 1 : ctx.channels); ++c) {
      rngs_.emplace_back(seed ^ (0x9e3779b97f4a7c15ULL * c));
    }
  }

  CodingKind kind() const { return CodingKind::kFlipNWrite; }
  // One flip bit per data word.
  double overhead() const { return 1.0 / 64.0; }

  WriteBegin begin_write(std::uint64_t, unsigned, IssuePlan* p) {
    Rng& rng = rngs_[active_channel()];
    const bool fast = fast_fraction_ > 0.0 && rng.next_bool(fast_fraction_);
    p->write_class = fast ? WriteClass::kResetOnly : WriteClass::kAlpha;
    p->program_ns = ctx_.timing->program_ns(p->write_class);
    return {p->write_class, false, {}};
  }

  bool finish_write(const WriteBegin& rec, bool, std::uint64_t key,
                    unsigned line, bool internal, IssuePlan* p) {
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else if (rec.cls == WriteClass::kResetOnly) {
      bump(ctr_fast_, "writes.fast");
    } else {
      bump(ctr_slow_, "writes.slow");
    }
    // Flip-N-Write programs at most half the line's bits.
    ctx_.energy->on_write(p->write_class, ctx_.line_bits / 2);
    ctx_.wear->on_write_pulses(key, line, kResetOnlyWearPerCell / 2);
    return false;
  }

 private:
  double fast_fraction_;
  std::vector<Rng> rngs_;  // one per channel, indexed by active_channel()
  std::uint64_t* ctr_fast_ = nullptr;
  std::uint64_t* ctr_slow_ = nullptr;
};

// Inverted WOM-code region (Section 3.1): rewrites within the code's budget
// are RESET-only; a row at the limit takes the alpha-write. The hidden-page
// organization pays a dependent second access per demand read and write.
//
// One class serves all four WOM kinds, with one tracker slot per line. The
// sectioned kinds (polar, ts-constrained) split a line into independently
// budgeted sections, but every write programs the whole line and refresh
// clears whole rows, so all sections of a line share one generation and
// the line's slot classes the write exactly as the sections would.
//
// The generations live in the architecture's per-row table next to the
// row's wear: begin_write locates the record once and finish_write charges
// the wear and reads the at-limit count through it.
class WomCoding : public CodingBase {
 public:
  WomCoding(const RegionContext& ctx, CodingKind kind, RegionCode rc,
            bool erased_start)
      : CodingBase(ctx),
        kind_(kind),
        code_(std::move(rc.code)),
        name_(std::move(rc.name)),
        data_bits_(rc.data_bits),
        wits_(rc.wits),
        max_writes_(rc.max_writes),
        lut_(rc.lut),
        hidden_(kind == CodingKind::kWomHidden),
        tracker_(rc.max_writes >= 1 ? rc.max_writes : 1, ctx.wear->rows(),
                 erased_start) {
    if (data_bits_ == 0 || wits_ == 0 || max_writes_ == 0) {
      throw std::invalid_argument("WomCoding: null code");
    }
    // A wear-bounded family (time-space constrained) touches at most 1/R of
    // the region's cells per write: the per-cell wear rates scale by 1/R,
    // exactly, since the architecture's wear quantum divides by every
    // region's R.
    reset_quanta_ = ctx.wear->quanta(kResetOnlyWearPerCell) / rc.wear_divisor;
    alpha_quanta_ = ctx.wear->quanta(kAlphaWearPerCell) / rc.wear_divisor;
    assert(reset_quanta_ * rc.wear_divisor ==
           ctx.wear->quanta(kResetOnlyWearPerCell));
  }

  CodingKind kind() const { return kind_; }
  double overhead() const {
    return static_cast<double>(wits_) / data_bits_ - 1.0;
  }
  const WomCode* code() const { return code_.get(); }
  std::string code_name() const { return name_; }

  WriteBegin begin_write(std::uint64_t key, unsigned line, IssuePlan* p) {
    const auto rec = tracker_.record_write(key, line);
    p->write_class = rec.cls;
    p->program_ns = ctx_.timing->program_ns(rec.cls);
    return {rec.cls, rec.cold, rec.row};
  }

  void note_remap(WriteBegin* rec, std::uint64_t key, unsigned line) {
    rec->row = tracker_.record_write(key, line).row;
  }

  bool finish_write(const WriteBegin& rec, bool demoted, std::uint64_t,
                    unsigned line, bool internal, IssuePlan* p) {
    if (internal) {
      bump(ctr_victim_, "writes.victim");
    } else if (p->write_class == WriteClass::kAlpha) {
      bump(ctr_alpha_, "writes.alpha");
      // A cold alpha was alpha-classed before the fault pipeline ran, so it
      // can never also be a demotion; the guard keeps that invariant local.
      if (rec.cold && !demoted) bump(ctr_alpha_cold_, "writes.alpha.cold");
    } else {
      bump(ctr_fast_, "writes.fast");
    }
    // Every line write runs the encode once per line; publish whether it
    // took the two-lookup LUT fast path or the per-symbol fallback.
    if (lut_) {
      bump(ctr_lut_hits_, "codec.lut_hits");
    } else {
      bump(ctr_lut_fallbacks_, "codec.lut_fallbacks");
    }
    ctx_.energy->on_write(p->write_class, coded_line_bits());
    ctx_.wear->add(rec.row, line,
                   p->write_class == WriteClass::kResetOnly ? reset_quanta_
                                                            : alpha_quanta_);
    if (hidden_) {
      // The upper half-codeword lives in a hidden page the controller
      // reserves in a parallel bank region, so its program overlaps the
      // main one; the cost is the extra command/data transfer plus the
      // tail of the (half-width) hidden program that outlasts the overlap.
      p->post_ns += ctx_.timing->burst_ns() + ctx_.timing->tag_check_ns;
      bump(ctr_hidden_writes_, "hidden_page.extra_writes");
    }
    return rec.row.at_limit() > 0;
  }

  void read_energy(IssuePlan*) {
    ctx_.energy->on_read(coded_line_bits());
  }

  void read_extras(IssuePlan* p) {
    if (!hidden_) return;
    // Fetch the hidden half-codeword (parallel bank region) before decode:
    // one extra column access plus its burst.
    p->post_ns += ctx_.timing->col_read_ns + ctx_.timing->burst_ns();
    bump(ctr_hidden_reads_, "hidden_page.extra_reads");
  }

  // One probe and one walk over the row's record: a row the region never
  // wrote has none and is left alone.
  bool refresh_row(std::uint64_t key) {
    const RowTable::Row r = ctx_.wear->rows().find(key);
    if (!tracker_.refresh(r)) return false;
    ctx_.energy->on_refresh(coded_line_bits());
    ctx_.wear->on_refresh(r);
    return true;
  }

  bool refreshable() const { return true; }

 private:
  // Coded bits programmed per line write, for the energy model.
  std::uint64_t coded_line_bits() const {
    return ctx_.line_bits * wits_ / data_bits_;
  }

  CodingKind kind_;
  WomCodePtr code_;  // symbol code behind the classic kinds; may be null
  std::string name_;
  unsigned data_bits_;
  unsigned wits_;
  unsigned max_writes_;
  std::uint32_t reset_quanta_;  // wear of one RESET-only write
  std::uint32_t alpha_quanta_;  // wear of one alpha write
  bool lut_;
  bool hidden_;
  WomStateTracker tracker_;
  std::uint64_t* ctr_alpha_ = nullptr;
  std::uint64_t* ctr_alpha_cold_ = nullptr;
  std::uint64_t* ctr_fast_ = nullptr;
  std::uint64_t* ctr_lut_hits_ = nullptr;
  std::uint64_t* ctr_lut_fallbacks_ = nullptr;
  std::uint64_t* ctr_hidden_writes_ = nullptr;
  std::uint64_t* ctr_hidden_reads_ = nullptr;
};

// One region's coding, held by value. Every hook visits the concrete
// coding; the hooks are documented on CodingBase and the classes above.
class CodingPolicy {
 public:
  // `code` must be resolved (resolve_region_code) for the WOM kinds and is
  // ignored by the others; `erased_start` seeds untouched rows as erased
  // (the boot-formatted WOM-cache) instead of unknown.
  CodingPolicy(CodingKind kind, const RegionContext& ctx, RegionCode code,
               bool erased_start, double fnw_fast_fraction,
               std::uint64_t seed);

  CodingKind kind() const {
    return std::visit([](const auto& c) { return c.kind(); }, impl_);
  }
  // Capacity overhead of this coding relative to uncoded storage.
  double overhead() const {
    return std::visit([](const auto& c) { return c.overhead(); }, impl_);
  }

  // `key` is the row's key in the architecture's per-row table (its wear
  // and fault key too).
  WriteBegin begin_write(std::uint64_t key, unsigned line, IssuePlan* p) {
    return std::visit([&](auto& c) { return c.begin_write(key, line, p); },
                      impl_);
  }
  void note_remap(WriteBegin* rec, std::uint64_t key, unsigned line) {
    std::visit([&](auto& c) { c.note_remap(rec, key, line); }, impl_);
  }
  // `demoted` is the fault pipeline's fast-path demotion verdict;
  // `internal` marks controller-spawned writes (cache victims and dead-row
  // bypasses), which count as "writes.victim" instead of the demand
  // classes. `key` is the key the write's state lives at (the spare's after
  // a remap). Returns true when the write left the row with lines at the
  // rewrite limit — a refresh candidate.
  bool finish_write(const WriteBegin& rec, bool demoted, std::uint64_t key,
                    unsigned line, bool internal, IssuePlan* p) {
    return std::visit(
        [&](auto& c) {
          return c.finish_write(rec, demoted, key, line, internal, p);
        },
        impl_);
  }
  // Read-path energy (the caller owns the read counters) and organization
  // extras, split so the fault pipeline's read hook runs between them.
  void read_energy(IssuePlan* p) {
    std::visit([&](auto& c) { c.read_energy(p); }, impl_);
  }
  void read_extras(IssuePlan* p) {
    std::visit([&](auto& c) { c.read_extras(p); }, impl_);
  }

  bool refresh_row(std::uint64_t key) {
    return std::visit([&](auto& c) { return c.refresh_row(key); }, impl_);
  }
  bool refreshable() const {
    return std::visit([](const auto& c) { return c.refreshable(); }, impl_);
  }
  const WomCode* code() const {
    return std::visit([](const auto& c) { return c.code(); }, impl_);
  }
  std::string code_name() const {
    return std::visit([](const auto& c) { return c.code_name(); }, impl_);
  }

 private:
  using Impl = std::variant<RawCoding, SymmetricCoding, FnwCoding, WomCoding>;

  static Impl make(CodingKind kind, const RegionContext& ctx, RegionCode code,
                   bool erased_start, double fnw_fast_fraction,
                   std::uint64_t seed);

  Impl impl_;
};

}  // namespace wompcm
