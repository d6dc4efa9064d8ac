// Coding policies: how one memory region (main memory or the per-rank
// WOM-cache) stores its lines, classed per write.
//
// This header holds what every coding shares: the CodingKind names, the
// IssuePlan the write path fills in, the RegionContext a coding publishes
// into, the resolved RegionCode of a WOM-coded region, and CodingBase. The
// four concrete codings, and the CodingPolicy that holds one of them by
// value, are in arch/coding_policies.h.
//
// A coding owns the region's generation tracking, write classing and
// program-latency selection, plus the per-write counter/energy/wear
// accounting. It deliberately does NOT own routing, fault injection or
// refresh scheduling — those stay in Architecture so one fault pipeline and
// one refresh engine serve every composition. The write path is split
// around the fault pipeline:
//
//   begin_write()   record the write, settle write_class / program_ns
//   (fault pipeline runs: may demote the fast path, may remap the row)
//   note_remap()    re-record at the spare's key after a remap
//   finish_write()  counters, energy, wear, organization extras
//
// so demotion and remapping are charged at the rates the cells actually
// saw.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/address.h"
#include "common/row_table.h"
#include "common/types.h"
#include "pcm/endurance.h"
#include "pcm/energy.h"
#include "pcm/timing.h"
#include "stats/stats.h"
#include "wom/wom_code.h"

namespace wompcm {

// An internal write the controller must enqueue on behalf of the
// architecture (e.g. a WOM-cache victim flushed to PCM main memory).
struct SpawnedWrite {
  DecodedAddr dec;
};

// The issue-time decision for one demand or internal access.
struct IssuePlan {
  unsigned resource = 0;  // bank-like resource the access occupies
  unsigned row = 0;       // row latched in that resource's row buffer
  Tick pre_ns = 0;        // before the array phase: tag checks, pauses
  Tick program_ns = 0;    // write programming latency (0 for reads)
  Tick post_ns = 0;       // after the array phase: hidden-page second access
  WriteClass write_class = WriteClass::kResetOnly;  // diagnostics
  std::vector<SpawnedWrite> spawned;  // internal writes to enqueue
};

// How one region stores its lines.
enum class CodingKind : std::uint8_t {
  kRaw,         // uncoded: every write is SET-bound (conventional PCM)
  kWomWide,     // inverted WOM code, wide-column organization (Section 3.1)
  kWomHidden,   // inverted WOM code, hidden-page organization (Section 3.1)
  kFlipNWrite,  // Flip-N-Write coding (Cho & Lee, MICRO 2009)
  kSymmetric,   // hypothetical S=1 memory: every write at RESET latency
  kPolar,       // polar-kernel WOM block code, sectioned (wide columns)
  kTsConstrained,  // time-space constrained replica rotation, sectioned
};

const char* to_string(CodingKind k);
// Parser for the main.coding= / cache.coding= config keys. Returns false
// on an unknown name.
bool coding_kind_from_string(const std::string& s, CodingKind* out);

inline bool is_wom_coding(CodingKind k) {
  return k == CodingKind::kWomWide || k == CodingKind::kWomHidden ||
         k == CodingKind::kPolar || k == CodingKind::kTsConstrained;
}

// The accounting surface a coding publishes into. The pointers alias the
// owning Architecture's own state, so both regions of a composition write
// one set of books.
struct RegionContext {
  const PcmTiming* timing = nullptr;
  CounterSet* counters = nullptr;
  EnergyCounters* energy = nullptr;
  WearTracker* wear = nullptr;
  std::uint64_t line_bits = 0;  // uncoded bits per line
  // Channel of the access currently being planned (aliases the owning
  // architecture's cursor, kept current across plan()/perform_refresh()).
  // Stochastic codings draw from a per-channel stream keyed by it, so
  // their draws — like the fault model's — are independent of how the
  // channels' issue streams interleave (the sharded-run determinism
  // contract). Null means "always channel 0" (single-region tests).
  const unsigned* channel = nullptr;
  // Number of channels, for sizing per-channel streams.
  unsigned channels = 1;
};

// The decision made before the fault pipeline runs: the class the coding
// scheme chose (faults may later demote kResetOnly to kAlpha), whether it
// was a cold alpha (first touch of an unknown-state line), and the row's
// record in the per-row table when the coding located it (WOM codings), so
// finish_write needs no second probe.
struct WriteBegin {
  WriteClass cls = WriteClass::kAlpha;
  bool cold = false;
  RowTable::Row row;
};

// State and default hooks every coding shares. Not a polymorphic base: each
// concrete coding hides the hooks it implements, and CodingPolicy calls
// them on the concrete type.
class CodingBase {
 public:
  explicit CodingBase(const RegionContext& ctx) : ctx_(ctx) {}

  // The fault pipeline moved the row onto a fresh spare: re-record there so
  // the rewrite budget tracks the cells actually being programmed. The
  // write's state now lives at the spare's key, so `rec` is re-pointed.
  void note_remap(WriteBegin*, std::uint64_t, unsigned) {}
  // Read-path energy of an uncoded line (the caller owns the read
  // counters); WomCoding reads its coded width instead.
  void read_energy(IssuePlan*) { ctx_.energy->on_read(ctx_.line_bits); }
  // Organization extras on the read path (the hidden-page second access).
  void read_extras(IssuePlan*) {}
  // PCM-refresh support: re-initializes one row's codewords. Returns false
  // when the scheme has no refreshable generation state, or when the row
  // had no lines at the limit (a stale RAT entry).
  bool refresh_row(std::uint64_t) { return false; }
  bool refreshable() const { return false; }
  // The symbol code behind a WOM-coded region and its name; null / empty
  // otherwise.
  const WomCode* code() const { return nullptr; }
  std::string code_name() const { return {}; }

 protected:
  // Cached counter increment (same contract as Architecture::bump).
  void bump(std::uint64_t*& slot, const char* name, std::uint64_t by = 1) {
    if (slot == nullptr) slot = ctx_.counters->slot(name);
    *slot += by;
  }

  // Channel of the access being planned (0 when the owner wired no cursor).
  unsigned active_channel() const {
    return ctx_.channel == nullptr ? 0u : *ctx_.channel;
  }

  RegionContext ctx_;
  std::uint64_t* ctr_victim_ = nullptr;
};

// The resolved code parameters one WOM-coded region runs under. The timing
// simulator carries no data payloads, so a region needs only the code's
// section geometry and classification parameters — not the codec itself.
// `code` is the symbol code behind the classic kinds (and the bit-exact
// reference codecs); native sectioned families (ts-constrained) have none.
struct RegionCode {
  std::string name;
  unsigned data_bits = 0;    // k per section
  unsigned wits = 0;         // n per section
  unsigned max_writes = 0;   // t per section
  unsigned wear_divisor = 1;  // an in-budget write touches 1/divisor of
                              // the cells (R for tsc-...xR codes)
  bool lut = false;          // EncodeLut fast path behind the encode
  WomCodePtr code;           // null for native block families
};

// Resolves the code a WOM-coded region of `kind` runs: `override_name`
// (the main.code= / cache.code= key) when set, else `legacy_code` (the
// code= key) for the classic kinds or the family default for the sectioned
// ones. Validates family membership, write direction, and that `line_bits`
// splits into whole sections; throws std::invalid_argument with an
// actionable message otherwise. Non-WOM kinds return an empty RegionCode.
RegionCode resolve_region_code(CodingKind kind,
                               const std::string& override_name,
                               const std::string& legacy_code,
                               std::uint64_t line_bits);

}  // namespace wompcm
