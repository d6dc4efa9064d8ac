// Architecture: the policy layer the memory controller consults.
//
// The controller owns the timing machinery (queues, banks, bus, refresh
// engine); an Architecture decides *where* an access goes (which bank-like
// resource), *how long* its array phase takes (the WOM fast path vs the
// alpha-write), and what side work it creates (WCPCM victim write-backs).
//
// Resource indexing: main banks occupy flat indices
// [0, channels*ranks*banks_per_rank); architectures with per-rank WOM-cache
// arrays (WCPCM) append one resource per rank after the main banks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/cache_layer.h"
#include "arch/coding_policies.h"
#include "arch/refresh_policy.h"
#include "common/address.h"
#include "common/types.h"
#include "controller/remap_table.h"
#include "controller/wear_leveling.h"
#include "pcm/endurance.h"
#include "pcm/fault_model.h"
#include "pcm/energy.h"
#include "pcm/timing.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

enum class ArchKind : std::uint8_t {
  kBaseline,       // conventional PCM, every write is SET-bound
  kWomPcm,         // WOM-code PCM (Section 3.1)
  kRefreshWomPcm,  // WOM-code PCM + PCM-refresh (Section 3.2)
  kWcpcm,          // WOM-code cached PCM (Section 4)
  kFlipNWrite,     // Flip-N-Write coding baseline (ablation)
  kSymmetric,      // hypothetical S=1 memory (every write at RESET latency):
                   // the upper bound all the WOM machinery chases
};

const char* to_string(ArchKind k);

// ---- Composable architecture description ----
//
// Every architecture is a composition of orthogonal policies: a coding
// scheme for the main-memory region, an optional per-rank WOM-cache front
// end with its own coding scheme, and a refresh policy that attaches to
// each WOM-coded region. The five legacy ArchKinds are points in this
// space (see canonical_composition); the cross-product admits designs the
// paper never evaluated (Flip-N-Write behind a WOM-cache, hidden-page +
// refresh, a symmetric-latency cache as an upper bound).

enum class RefreshKind : std::uint8_t {
  kNone,
  kRat,  // row-address tables + burst re-initialization (Section 3.2)
};

const char* to_string(RefreshKind k);
// Parser for the refresh= config key. Returns false on an unknown name.
bool refresh_kind_from_string(const std::string& s, RefreshKind* out);

struct Composition {
  CodingKind main_coding = CodingKind::kRaw;
  bool cache_enabled = false;
  // Coding of the per-rank WOM-cache arrays; meaningful only when
  // cache_enabled (normalized to kWomWide otherwise so compositions that
  // differ only in a disabled cache's coding compare equal).
  CodingKind cache_coding = CodingKind::kWomWide;
  RefreshKind refresh = RefreshKind::kNone;

  bool operator==(const Composition&) const = default;
};

// The composition each legacy ArchKind is shorthand for. Architectures
// built from a kind and from its canonical composition are bit-identical.
Composition canonical_composition(ArchKind kind, WomOrganization org);

// Validates and normalizes a composition. Returns false (with an
// actionable message in *why) for combinations with no meaning: refresh
// without a WOM-coded region, a hidden-page-coded cache, ...
bool composition_valid(const Composition& c, std::string* why = nullptr);
// As above but throwing std::invalid_argument; returns the normalized
// composition.
Composition validate_composition(Composition c);

struct ArchConfig {
  ArchKind kind = ArchKind::kBaseline;
  // Explicit policy composition. When set it takes precedence over `kind`
  // (which the legacy call sites keep using as shorthand); when unset the
  // kind's canonical composition applies. See resolved_composition().
  std::optional<Composition> composition;
  // WOM-code used by every WOM-coded region; must be an inverted code.
  std::string code = "rs23-inv";
  // Per-region code overrides (config keys main.code= / cache.code=).
  // Empty means "derive": classic WOM kinds fall back to `code`, the
  // sectioned families (polar / ts-constrained) to their family default.
  std::string main_code;
  std::string cache_code;
  WomOrganization organization = WomOrganization::kWideColumn;
  // Row-address-table capacity per refresh unit (Section 3.2 uses 5).
  unsigned rat_entries = 5;
  // Flip-N-Write: probability that a write needs no SET pulse at all.
  double fnw_fast_fraction = 0.0;
  std::uint64_t seed = 1;
  // Optional Start-Gap wear leveling on the main-memory rows (endurance
  // extension; the paper leaves endurance open). One gap move per
  // `start_gap_interval` writes per bank. Not applied when a cache front
  // end is enabled: the cache index is the row address, so remapping main
  // rows would desynchronize the tags.
  bool start_gap = false;
  unsigned start_gap_interval = 128;

  // The composition this config builds: `composition` if set, else the
  // kind's canonical one. Throws std::invalid_argument (with the reason)
  // on an invalid explicit composition.
  Composition resolved_composition() const;
};

// The one architecture, built from a Composition: it wires a main-memory
// CodingPolicy, an optional per-rank WOM-cache CacheLayer (with its own
// CodingPolicy), and a RatRefreshPolicy per refreshable region into the
// interface the controller consumes.
class Architecture {
 public:
  // Resolves cfg.resolved_composition() and builds the policy stack. Throws
  // std::invalid_argument on an invalid composition or (when a WOM-coded
  // region exists) an unknown / non-inverted code. make_architecture() also
  // validates the geometry and timing and installs Start-Gap and faults.
  Architecture(const MemoryGeometry& geom, const PcmTiming& timing,
               const ArchConfig& cfg);
  // The policies alias this object's books and channel cursor.
  Architecture(const Architecture&) = delete;
  Architecture& operator=(const Architecture&) = delete;

  std::string name() const;

  // Total bank-like resources (main banks + any per-rank cache arrays).
  unsigned num_resources() const {
    return main_banks() + (cache_ == nullptr ? 0 : cache_->arrays());
  }

  // Resource an access will occupy. Pure routing: must not mutate state.
  unsigned route(const DecodedAddr& dec, AccessType type, bool internal) const;

  // True when route() for demand reads can change while the read waits in
  // a queue: with a cache front end, demand reads probe the mutable cache
  // tags, so a queued read's destination can flip between main memory and
  // the WOM-cache. Controllers must not cache the routing of such reads at
  // enqueue time; every other access class routes identically for the
  // lifetime of the transaction.
  bool read_route_dynamic() const { return cache_ != nullptr; }

  // Monotone stamp that advances whenever route() could start returning a
  // different resource for some queued demand read (tag state mutated).
  // While the stamp is unchanged, schedulers may reuse a dynamic read's
  // previously computed route instead of re-probing every scan.
  std::uint64_t route_version() const {
    return cache_ == nullptr ? 0 : cache_->route_version();
  }

  // Channel that owns a bank-like resource. Resources never span channels;
  // per-channel controllers use this to claim exactly their own banks.
  unsigned resource_channel(unsigned resource) const;

  // True for auxiliary cache arrays (the per-rank WOM-cache), false for
  // main-memory banks. Drives the per-class utilization/row-hit split.
  bool is_cache_resource(unsigned resource) const {
    return cache_ != nullptr && resource >= main_banks();
  }

  // Commits the access at issue time (updates WOM generations, cache tags,
  // energy) and returns its plan. Called exactly once per issued access.
  IssuePlan plan(const DecodedAddr& dec, AccessType type, bool internal,
                 Tick now);

  // ---- PCM-refresh hooks (Section 3.2) ----

  // Work done by one burst-mode refresh command.
  struct RefreshWork {
    std::vector<unsigned> resources;  // units that streamed a row
    unsigned rows = 0;                // rows re-initialized
  };

  bool refresh_enabled() const {
    return main_rat_ != nullptr || cache_rat_ != nullptr;
  }
  // Fraction of this rank's refreshable units that have at least one row
  // pending re-initialization (compared against r_th by the engine).
  double refresh_pending_fraction(unsigned channel, unsigned rank) const;
  // Executes one burst-mode refresh command against the units of
  // (channel, rank) for which `unit_ready` is true (idle banks: demand on
  // the other banks proceeds untouched, which is what write pausing buys).
  // Pops pending rows from the row address tables and re-initializes them.
  RefreshWork perform_refresh(unsigned channel, unsigned rank,
                              const std::function<bool(unsigned)>& unit_ready);
  // Resources a refresh of (channel, rank) may touch.
  std::vector<unsigned> refresh_resources(unsigned channel,
                                          unsigned rank) const;

  // Capacity overhead relative to uncoded PCM (e.g. 0.5 for full
  // <2^2>^2/3 WOM-code PCM, 1.5/32 for WCPCM): the main coding's expansion
  // plus, with a cache, one coded bank's worth of rows per rank.
  double capacity_overhead() const;

  const Composition& composition() const { return comp_; }
  // The WOM code behind the WOM-coded regions (main memory's if it has
  // one); null when no region runs a symbol code.
  const WomCode* code() const;
  // Test access: pending rows in one main bank's RAT.
  std::size_t rat_size(unsigned flat_bank_idx) const {
    return main_rat_ == nullptr ? 0 : main_rat_->size(flat_bank_idx);
  }
  double write_hit_rate() const;

  const CounterSet& counters() const { return counters_; }
  const EnergyCounters& energy() const { return energy_; }
  const WearTracker& wear() const { return wear_; }
  const MemoryGeometry& geometry() const { return geom_; }

  // Publishes the architecture's end-of-run scalars (energy, wear,
  // capacity overhead) into the unified registry. `end_time` is the last
  // completion instant, needed for the lifetime projection.
  void publish_metrics(MetricsRegistry& reg, Tick end_time) const;

  // Folds another instance's accounting (counters, energy buckets, wear
  // aggregates, per-channel fault tallies) into this one. The sharded
  // runner builds one architecture replica per channel — replica c only
  // ever services channel c — and merges replicas 1..N-1 into replica 0
  // before the single publish_metrics() call, reproducing the books the
  // shared serial instance keeps. Call only after the run is complete; the
  // donor must be built from the same configuration.
  void merge_accounting_from(const Architecture& o);

  // Enables Start-Gap wear leveling on the main-memory banks. Must be
  // called before the first plan().
  void enable_start_gap(unsigned interval);
  bool start_gap_enabled() const { return !start_gap_.empty(); }

  // Installs the fault-injection model (pcm/fault_model.h). A disabled
  // config is a no-op, keeping the off-path bit-identical to a build
  // without faults. Must be called before the first plan();
  // make_architecture() does it. Throws std::invalid_argument on a bad
  // fault config.
  void configure_faults(const FaultConfig& fault);
  bool faults_enabled() const { return fault_ != nullptr; }
  // Test/diagnostic access; null while faults are off.
  const SpareRowRemapper* remapper() const { return remap_.get(); }
  const FaultModel* fault_model() const { return fault_.get(); }

 private:
  // The composition and region codes a config resolves to. Resolved ahead
  // of the members: the wear tracker's quantum depends on both codes.
  struct Regions {
    Composition comp;
    RegionCode main;
    RegionCode cache;  // empty without a cache front end
  };
  static Regions resolve_regions(const ArchConfig& cfg,
                                 std::uint64_t line_bits);
  Architecture(const MemoryGeometry& geom, const PcmTiming& timing,
               const ArchConfig& cfg, Regions regions);

  unsigned main_banks() const { return mapper_.num_flat_banks(); }
  unsigned flat_bank(const DecodedAddr& dec) const {
    return mapper_.flat_bank(dec);
  }
  std::uint64_t row_key_for(unsigned bank, unsigned row) const {
    // Physical rows may include the Start-Gap spare (== rows_per_bank) and,
    // with faults enabled, the bank's fault spares — the stride widens to
    // cover them (see configure_faults), so keys never collide across
    // banks. With faults off the stride is rows_per_bank + 1, unchanged.
    return static_cast<std::uint64_t>(bank) * row_key_stride_ + row;
  }
  std::uint64_t line_bits() const { return geom_.line_bytes() * 8ull; }
  // The books and channel cursor both regions' codings publish into.
  RegionContext region_context();

  unsigned cache_resource(unsigned channel, unsigned rank) const {
    return main_banks() + cache_->index(channel, rank);
  }
  // Row-table key of a cache row (its generations, wear and fault state),
  // disjoint from main-memory keys (cache arrays are keyed as banks
  // appended after the main banks).
  std::uint64_t cache_wear_key(unsigned cache_idx, unsigned row) const {
    return row_key_for(main_banks() + cache_idx, row);
  }
  IssuePlan plan_main_write(const DecodedAddr& dec, bool internal,
                            IssuePlan p);
  IssuePlan plan_cache_write(const DecodedAddr& dec, IssuePlan p);

  // Physical row backing this access. With Start-Gap enabled, writes may
  // trigger a gap move whose row-copy cost is charged to `plan->post_ns`.
  // With faults enabled, rows retired to spares resolve through the remap
  // table afterwards.
  unsigned physical_row(const DecodedAddr& dec, AccessType type,
                        IssuePlan* plan);

  // Bad-row chain only (no Start-Gap): for paths that address main memory
  // directly by decoded row (WCPCM victims / bypasses).
  unsigned resolved_row(unsigned bank, unsigned row) const {
    return remap_ == nullptr ? row : remap_->resolve(bank, row);
  }

  // ---- Fault pipeline (no-ops while faults are off) ----

  struct FaultOutcome {
    bool demoted = false;       // fast-path write demoted to alpha
    bool remapped = false;      // row retired; plan->row moved to a spare
    bool dead_unmapped = false; // line dead but not remappable here (cache
                                // rows, exhausted spares): caller degrades
  };

  // Write-path hook. Call after plan->row / write_class / program_ns are
  // settled and *before* energy/wear accounting, so demotion and remapping
  // are charged at the rates the cells actually saw. `keyed_bank` is the
  // row_key_for bank index (a cache array index for WCPCM cache rows);
  // `allow_remap` is false for rows with no spare pool behind them.
  FaultOutcome fault_on_write(unsigned keyed_bank, unsigned channel,
                              unsigned line, bool allow_remap, IssuePlan* p);

  // Read-path hook: transient read-disturb draw; a disturbed read pays one
  // corrective re-read.
  void fault_on_read(unsigned channel, IssuePlan* p);

  // Cached counter increment for per-access hot paths: binds `slot` on the
  // first call and skips the string-keyed map lookup afterwards. Equivalent
  // to counters_.inc(name, by), including key creation on the first call.
  void bump(std::uint64_t*& slot, const char* name, std::uint64_t by = 1) {
    if (slot == nullptr) slot = counters_.slot(name);
    *slot += by;
  }

  // Per-channel fault bookkeeping, summed into fault.* metrics and also
  // published per channel (ch<N>.fault.*).
  struct FaultTally {
    std::uint64_t injected = 0;       // healthy -> degraded/dead transitions
    std::uint64_t retries = 0;        // extra write-verify programming pulses
    std::uint64_t demoted = 0;        // fast-path writes demoted to alpha
    std::uint64_t remapped = 0;       // rows retired to spares
    std::uint64_t dead_rows = 0;      // rows declared dead (pre-remap)
    std::uint64_t read_disturbs = 0;  // transient read upsets
    std::uint64_t exhausted = 0;      // retirements denied: spare pool empty
  };

  MemoryGeometry geom_;
  AddressMapper mapper_;
  PcmTiming timing_;
  CounterSet counters_;
  EnergyCounters energy_;
  WearTracker wear_;
  std::vector<StartGapRemapper> start_gap_;  // per main bank; empty = off
  std::unique_ptr<FaultModel> fault_;        // null = faults off
  std::unique_ptr<SpareRowRemapper> remap_;  // null = no spare pool
  std::vector<FaultTally> fault_by_channel_;
  unsigned row_key_stride_;  // rows_per_bank + 1 (+ fault spares)

  Composition comp_;
  // Channel of the access currently being planned (or rank being
  // refreshed). Set at the top of plan()/perform_refresh() and aliased by
  // the codings' RegionContext::channel, it keys every per-channel
  // stream — energy buckets, the FNW draw RNGs — so per-channel accounting
  // stays exact whether channels run interleaved (serial) or each on its
  // own worker against its own replica (sharded).
  unsigned active_channel_ = 0;
  CodingPolicy main_coding_;
  std::unique_ptr<CacheLayer> cache_;            // null = no front end
  std::unique_ptr<RatRefreshPolicy> main_rat_;   // null = not attached
  std::unique_ptr<RatRefreshPolicy> cache_rat_;  // null = not attached

  // Lazily-bound counter slots for the per-access hot path (see bump).
  std::uint64_t* ctr_reads_ = nullptr;
  std::uint64_t* ctr_write_hits_ = nullptr;
  std::uint64_t* ctr_write_misses_ = nullptr;
  std::uint64_t* ctr_victims_ = nullptr;
  std::uint64_t* ctr_read_hits_ = nullptr;
  std::uint64_t* ctr_read_misses_ = nullptr;
  std::uint64_t* ctr_dead_rows_ = nullptr;
  std::uint64_t* ctr_bypass_writes_ = nullptr;
  std::uint64_t* ctr_refresh_rows_ = nullptr;
};

// Factory. Throws std::invalid_argument on bad configuration (unknown code
// name, non-inverted code for a WOM architecture, ...).
std::unique_ptr<Architecture> make_architecture(const ArchConfig& cfg,
                                                const MemoryGeometry& geom,
                                                const PcmTiming& timing);
// As above, plus fault injection (configure_faults is called before the
// architecture is returned; a disabled FaultConfig is exactly the 3-arg
// overload).
std::unique_ptr<Architecture> make_architecture(const ArchConfig& cfg,
                                                const MemoryGeometry& geom,
                                                const PcmTiming& timing,
                                                const FaultConfig& fault);

}  // namespace wompcm
