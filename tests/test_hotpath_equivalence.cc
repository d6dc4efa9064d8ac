// Optimized-vs-reference cross-check for the event-loop hot path.
//
// ScanMode::kIndexed layers bank-occupancy masks, the readiness bitmap,
// cached next-event dispatch, and memoized failed scans on top of the
// straight-line age-order scan that ScanMode::kReference still runs. The
// two modes must be observationally indistinguishable: every statistic of a
// run — counters, latency sums, histograms, per-bank utilization, energy
// and wear gauges — must match bit for bit. This suite runs both modes on
// the three reference platforms plus the scheduler/row-policy variants the
// indexed path special-cases, over multiple workloads and seeds.
#include <gtest/gtest.h>

#include <string>

#include "result_compare.h"
#include "sim/experiment.h"

namespace wompcm {
namespace {

SimResult run_with_mode(SimConfig cfg, ScanMode mode,
                        const std::string& profile, std::uint64_t accesses,
                        std::uint64_t seed) {
  cfg.sched.scan_mode = mode;
  return run({cfg, TraceSpec::profile(*find_profile(profile), accesses),
              RunOptions::with_seed(seed)});
}

void check(const SimConfig& cfg, const std::string& profile,
           std::uint64_t accesses, std::uint64_t seed) {
  SCOPED_TRACE("profile=" + profile + " seed=" + std::to_string(seed));
  const SimResult ref =
      run_with_mode(cfg, ScanMode::kReference, profile, accesses, seed);
  const SimResult idx =
      run_with_mode(cfg, ScanMode::kIndexed, profile, accesses, seed);
  expect_identical(ref, idx);
}

constexpr std::uint64_t kAccesses = 15000;

TEST(HotpathEquivalence, PaperRefreshPlatform) {
  SimConfig cfg = paper_config();
  cfg.arch.kind = ArchKind::kRefreshWomPcm;
  check(cfg, "401.bzip2", kAccesses, 42);
  check(cfg, "ocean", kAccesses, 7);
}

TEST(HotpathEquivalence, DualChannelPlatform) {
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 8;
  cfg.arch.kind = ArchKind::kRefreshWomPcm;
  check(cfg, "401.bzip2", kAccesses, 42);
  check(cfg, "462.libq", kAccesses, 11);
}

TEST(HotpathEquivalence, WcpcmPlatform) {
  // WCPCM exercises dynamic routing (cache arrays, RAT migration), the
  // spawned-transaction path, and the route-version memoization.
  SimConfig cfg = paper_config();
  cfg.arch.kind = ArchKind::kWcpcm;
  check(cfg, "401.bzip2", kAccesses, 42);
  check(cfg, "qsort", kAccesses, 3);
}

TEST(HotpathEquivalence, BaselineAndWomPcm) {
  SimConfig cfg = paper_config();
  cfg.arch.kind = ArchKind::kBaseline;
  check(cfg, "400.perlbench", kAccesses, 42);
  cfg.arch.kind = ArchKind::kWomPcm;
  check(cfg, "400.perlbench", kAccesses, 42);
}

TEST(HotpathEquivalence, ReadPriorityScheduling) {
  // The write-drain hysteresis flips the scanned queue mid-run; the indexed
  // scan must agree on every pick either way.
  SimConfig cfg = paper_config();
  cfg.arch.kind = ArchKind::kRefreshWomPcm;
  cfg.sched.policy = SchedulingPolicy::kReadPriority;
  check(cfg, "401.bzip2", kAccesses, 42);
}

TEST(HotpathEquivalence, ClosedPageOldestFirst) {
  // No row hits to prefer and no open rows to match: the degenerate
  // scheduling case where the indexed path must fall back to pure age order.
  SimConfig cfg = paper_config();
  cfg.arch.kind = ArchKind::kRefreshWomPcm;
  cfg.row_policy = RowPolicy::kClosed;
  cfg.sched.row_hit_first = false;
  check(cfg, "464.h264ref", kAccesses, 42);
}

TEST(HotpathEquivalence, NoReadForwardingSmallQueues) {
  // Small queues force back-pressure (deferred injections) and disabling
  // forwarding removes the contains_line fast-out — both affect which
  // events the cached next-event path must surface.
  SimConfig cfg = paper_config();
  cfg.arch.kind = ArchKind::kWcpcm;
  cfg.read_forwarding = false;
  cfg.queue_capacity = 8;
  check(cfg, "401.bzip2", kAccesses, 42);
}

}  // namespace
}  // namespace wompcm
