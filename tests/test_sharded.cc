// Serial-vs-sharded cross-check for single-run channel sharding.
//
// run() with RunOptions::jobs > 1 on a multi-channel config executes each
// channel's controller on its own worker, stepped through conservative
// lookahead windows (sim/sharded.h). The contract is bit-identity: every
// deterministic field of the SimResult — counters, latency sums,
// histograms, the full metrics registry, per-bank utilization, energy and
// wear gauges, fault tallies — must match the serial run exactly, under
// every scan mode, composition, and fault seed. This suite sweeps
// serial vs jobs in {2, 4} over both scan modes, faults on and off, and
// compositions covering refresh, dynamic cache routing (WCPCM), and the
// per-channel Flip-N-Write RNG streams. ShardedWindows drives the service
// directly, with K live sessions, at the edges of the lookahead windows:
// slot budgets that end a window mid-step, and a drain with idle lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/address.h"
#include "result_compare.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/run.h"
#include "sim/service.h"

namespace wompcm {
namespace {

SimResult run_jobs(const SimConfig& cfg, const TraceSpec& trace,
                   std::uint64_t seed, unsigned jobs) {
  RunRequest req;
  req.config = cfg;
  req.trace = trace;
  req.options = RunOptions::with_seed(seed);
  req.options.jobs = ParallelPolicy::with_jobs(jobs);
  return run(req);
}

// Serial against jobs in {2, 4}, under both scan modes. jobs = 4 on a
// two-channel config also covers the executors = min(jobs, channels)
// clamp.
void check(SimConfig cfg, const TraceSpec& trace, std::uint64_t seed) {
  for (const ScanMode mode : {ScanMode::kIndexed, ScanMode::kReference}) {
    SCOPED_TRACE(std::string("scan=") +
                 (mode == ScanMode::kIndexed ? "indexed" : "reference") +
                 " seed=" + std::to_string(seed));
    cfg.sched.scan_mode = mode;
    const SimResult serial = run_jobs(cfg, trace, seed, 1);
    for (const unsigned jobs : {2u, 4u}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      expect_identical(serial, run_jobs(cfg, trace, seed, jobs));
    }
  }
}

constexpr std::uint64_t kAccesses = 12000;

SimConfig quad_channel_config(ArchKind kind) {
  SimConfig cfg = paper_config();
  cfg.geom.channels = 4;
  cfg.geom.ranks = 4;  // keep total ranks comparable to the paper platform
  cfg.arch.kind = kind;
  return cfg;
}

TEST(ShardedEquivalence, RefreshWomPcmQuadChannel) {
  check(quad_channel_config(ArchKind::kRefreshWomPcm),
        TraceSpec::benchmark("401.bzip2", kAccesses), 42);
}

TEST(ShardedEquivalence, BaselineQuadChannel) {
  check(quad_channel_config(ArchKind::kBaseline),
        TraceSpec::benchmark("400.perlbench", kAccesses), 42);
}

TEST(ShardedEquivalence, FlipNWritePerChannelDraws) {
  // Flip-N-Write draws a fast/slow verdict per write from a seeded RNG:
  // the per-channel draw streams must make the outcome independent of how
  // the shards interleave.
  check(quad_channel_config(ArchKind::kFlipNWrite),
        TraceSpec::benchmark("462.libq", kAccesses), 11);
}

TEST(ShardedEquivalence, WcpcmDualChannel) {
  // WCPCM adds per-rank cache arrays, dynamic read routing, and
  // controller-spawned victim write-backs; jobs = 4 > channels = 2 also
  // exercises the executor clamp.
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 8;
  cfg.arch.kind = ArchKind::kWcpcm;
  check(cfg, TraceSpec::benchmark("401.bzip2", kAccesses), 42);
}

TEST(ShardedEquivalence, BackPressureSmallQueues) {
  // Tiny queues force deferred injections: the coordinator's serial
  // injection loop must defer and re-time arrivals exactly as the serial
  // run does.
  SimConfig cfg = quad_channel_config(ArchKind::kRefreshWomPcm);
  cfg.queue_capacity = 8;
  cfg.read_forwarding = false;
  check(cfg, TraceSpec::benchmark("464.h264ref", kAccesses), 42);
}

TEST(ShardedEquivalence, FaultInjectionOn) {
  // A deliberately tiny endurance budget on a hot write stream: retries,
  // demotions, remaps and dead rows all fire. The per-channel fault event
  // streams must line up between serial and sharded execution.
  SimConfig cfg;
  cfg.geom.channels = 2;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 2;
  cfg.geom.rows_per_bank = 64;
  cfg.geom.cols_per_row = 64;
  cfg.arch.kind = ArchKind::kWomPcm;
  cfg.warmup_accesses = 0;
  cfg.fault.enabled = true;
  cfg.fault.seed = 7;
  cfg.fault.endurance = 10.0;
  cfg.fault.sigma = 0.25;
  cfg.fault.initial_wear = 0.9;
  cfg.fault.spare_rows = 8;
  cfg.fault.read_disturb = 0.05;

  WorkloadProfile hot;
  hot.name = "hot-row";
  hot.suite = "demo";
  hot.write_fraction = 0.8;
  hot.footprint_pages = 8;
  hot.write_zipf = 1.4;
  hot.rewrite_frac = 0.9;

  const TraceSpec trace = TraceSpec::profile(hot, 6000);
  check(cfg, trace, 42);

  // The scenario actually degrades (otherwise the check proves nothing).
  const SimResult r = run_jobs(cfg, trace, 42, 2);
  EXPECT_GT(r.fault_injected, 0u);
  EXPECT_GT(r.fault_retries, 0u);
}

TEST(ShardedEquivalence, NonDyadicWearBoundCodes) {
  // A time-space constrained code with R replicas charges 1/R of the
  // per-cell wear rates per write. For R in {3, 5, 7} those increments are
  // not dyadic, so wear summed per channel and then merged equals the
  // serial interleaved sum only because wear is counted in exact integer
  // quanta (pcm/endurance.h).
  for (const char* code :
       {"tsc-rs23x3-inv", "tsc-rs23x5-inv", "tsc-rs23x7-inv"}) {
    SCOPED_TRACE(code);
    SimConfig cfg = load_config_file(
        paper_config(), WOMPCM_REPO_DIR "/configs/ts_constrained.cfg");
    cfg.arch.main_code = code;
    check(cfg, TraceSpec::benchmark("470.lbm", kAccesses), 3);
  }
}

TEST(ShardedEquivalence, SerialFallbackSingleChannel) {
  // One channel: jobs > 1 must silently take the legacy serial path and
  // still produce the identical result.
  SimConfig cfg = paper_config();
  cfg.arch.kind = ArchKind::kRefreshWomPcm;
  const TraceSpec trace = TraceSpec::benchmark("401.bzip2", 8000);
  expect_identical(run_jobs(cfg, trace, 42, 1), run_jobs(cfg, trace, 42, 4));
}

// ------------------------------------------------------ lookahead windows

// A short stream with same-instant bursts (gap 0) and idle stretches.
std::vector<TraceRecord> window_records(std::size_t n, std::uint64_t seed) {
  std::vector<TraceRecord> out;
  out.reserve(n);
  std::uint64_t x = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    TraceRecord r;
    r.gap = (x >> 33) % 3 == 0 ? 0 : (x >> 40) % 40;
    r.type = (x >> 13) % 3 == 0 ? AccessType::kWrite : AccessType::kRead;
    r.addr = (x >> 7) % (1u << 24);
    out.push_back(r);
  }
  return out;
}

// The service's closed loop: each round submits up to `chunk` records per
// open session (a bounced tail is resubmitted next round), closes a
// session once its last record is accepted, then steps once.
SimResult serve(const SimConfig& cfg, unsigned jobs,
                const std::vector<std::vector<TraceRecord>>& streams,
                std::size_t chunk, std::size_t capacity) {
  ServiceOptions opts;
  opts.jobs = jobs;
  SimService svc(cfg, opts);
  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    StreamSpec spec;
    spec.capacity = capacity;
    ids.push_back(svc.open_session(spec));
  }
  std::vector<std::size_t> at(streams.size(), 0);
  std::vector<bool> open(streams.size(), true);
  std::size_t live = streams.size();
  while (live > 0) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (!open[i]) continue;
      const std::size_t n = std::min(chunk, streams[i].size() - at[i]);
      at[i] += svc.submit(ids[i], streams[i].data() + at[i], n).accepted;
      if (at[i] == streams[i].size()) {
        svc.close_session(ids[i]);
        open[i] = false;
        --live;
      }
    }
    svc.step();
  }
  return svc.drain();
}

SimConfig window_config(bool faults) {
  SimConfig cfg;
  cfg.geom.channels = 4;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 4;
  cfg.geom.rows_per_bank = 128;
  cfg.geom.cols_per_row = 128;
  cfg.arch.kind = ArchKind::kRefreshWomPcm;
  cfg.warmup_accesses = 100;
  if (faults) {
    cfg.fault.enabled = true;
    cfg.fault.seed = 7;
    cfg.fault.initial_wear = 0.9;
  }
  return cfg;
}

// Serial against jobs in {2, 4}, both scan modes, faults off and on, for
// the config `tweak` leaves.
template <typename Tweak>
void check_windows(const std::vector<std::vector<TraceRecord>>& streams,
                   std::size_t chunk, std::size_t capacity, Tweak tweak) {
  for (const bool faults : {false, true}) {
    for (const ScanMode mode : {ScanMode::kIndexed, ScanMode::kReference}) {
      SCOPED_TRACE(std::string("scan=") +
                   (mode == ScanMode::kIndexed ? "indexed" : "reference") +
                   (faults ? " faults" : " nofaults"));
      SimConfig cfg = window_config(faults);
      cfg.sched.scan_mode = mode;
      tweak(cfg);
      const SimResult serial = serve(cfg, 1, streams, chunk, capacity);
      for (const unsigned jobs : {2u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        expect_identical(serial, serve(cfg, jobs, streams, chunk, capacity));
      }
    }
  }
}

TEST(ShardedWindows, SlotBudgetEndsWindowsMidStep) {
  // Tiny channel queues: a window ends at the first arrival whose channel
  // has no free slot left, often in the middle of a same-instant burst
  // that spans channels, and the deferred heads then run one instant at a
  // time. Read forwarding off keeps every arrival charged to a slot.
  std::vector<std::vector<TraceRecord>> streams;
  for (std::uint64_t s = 0; s < 3; ++s) {
    streams.push_back(window_records(700, 31 + s));
  }
  for (const unsigned cap : {1u, 8u}) {
    SCOPED_TRACE("queue_capacity=" + std::to_string(cap));
    check_windows(streams, 64, 256, [cap](SimConfig& cfg) {
      cfg.queue_capacity = cap;
      cfg.read_forwarding = false;
    });
  }
}

TEST(ShardedWindows, SlotBudgetWithForwardingAndTightRings) {
  // Forwarded reads take no slot, so the budget is conservative; tight
  // session rings add partial accepts and frequent emptied sessions.
  std::vector<std::vector<TraceRecord>> streams;
  for (std::uint64_t s = 0; s < 4; ++s) {
    streams.push_back(window_records(500, 53 + s));
  }
  for (const unsigned cap : {1u, 8u}) {
    SCOPED_TRACE("queue_capacity=" + std::to_string(cap));
    check_windows(streams, 24, 16,
                  [cap](SimConfig& cfg) { cfg.queue_capacity = cap; });
  }
}

TEST(ShardedWindows, DrainWithOneLaneIdle) {
  // One long stream bound to channel 0 and one short stream bound to
  // channel 1: after the short one closes, windows and the drain run with
  // lane 0 busy while the other lanes idle (or only tick refresh).
  const SimConfig geom_cfg = window_config(false);
  const AddressMapper mapper(geom_cfg.geom);
  auto on_channel = [&](unsigned channel, std::size_t n, std::uint64_t seed) {
    std::vector<TraceRecord> out;
    for (TraceRecord r : window_records(4 * n, seed)) {
      DecodedAddr d = mapper.decode(r.addr);
      d.channel = channel;
      r.addr = mapper.encode(d);
      out.push_back(r);
      if (out.size() == n) break;
    }
    return out;
  };
  const std::vector<std::vector<TraceRecord>> streams = {
      on_channel(0, 900, 71), on_channel(1, 120, 73)};
  check_windows(streams, 48, 256, [](SimConfig&) {});
}

}  // namespace
}  // namespace wompcm
