// Golden digests of whole runs across the architecture seams.
//
// Each case is one short run, folded into a 64-bit FNV-1a digest over every
// deterministic SimResult field the shared comparator checks
// (result_compare.h). The cases cover every shipped configs/*.cfg, each
// canonical architecture on a small two-channel platform, and tiered.cfg on
// a smaller tier under each tag-array replacement scheme. Each runs with
// faults off and on, at jobs 1 and 2 (the sharded backend on every
// multi-channel case), against one recorded digest. The digests were recorded before the
// coding, replacement and architecture seams were collapsed to one
// implementation each, so any change in what those layers compute shows up
// here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include "result_compare.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/run.h"

namespace wompcm {
namespace {

constexpr std::uint64_t kAccesses = 3000;
constexpr std::uint64_t kSeed = 42;

// The composition suite's small platform, on two channels so jobs = 2
// shards it.
SimConfig small_config() {
  SimConfig cfg = paper_config();
  cfg.geom.channels = 2;
  cfg.geom.ranks = 2;
  cfg.geom.banks_per_rank = 4;
  cfg.geom.rows_per_bank = 2048;
  cfg.arch.code = "rs23-inv";
  return cfg;
}

SimConfig from_file(const char* file) {
  return load_config_file(paper_config(),
                          std::string(WOMPCM_REPO_DIR "/configs/") + file);
}

SimConfig canonical(ArchKind kind, WomOrganization org) {
  SimConfig cfg = small_config();
  cfg.arch.kind = kind;
  cfg.arch.organization = org;
  return cfg;
}

// tiered.cfg's 4096-set tier barely fills in a short run; at 64 sets the
// replacement scheme picks hundreds of victims.
SimConfig small_tier(ReplacementKind repl) {
  SimConfig cfg = from_file("tiered.cfg");
  cfg.tier.sets = 64;
  cfg.tier.replacement = repl;
  return cfg;
}

struct GoldenCase {
  const char* name;  // ctest-safe: letters, digits, underscores
  SimConfig (*config)();
  std::uint64_t digest_faults_off;
  std::uint64_t digest_faults_on;
};

const GoldenCase kCases[] = {
    {"dualchannel_cfg", [] { return from_file("dualchannel.cfg"); },
     0x1055743a0d6a3d2eULL, 0xd56b18a3b73052edULL},
    {"embedded_cfg", [] { return from_file("embedded.cfg"); },
     0x40fc29b28265e1e4ULL, 0x5ce5581ebc773510ULL},
    {"faulty_cfg", [] { return from_file("faulty.cfg"); },
     0x1f1e0409920d875eULL, 0xdecd75407f7f1663ULL},
    {"fnw_wom_cache_cfg", [] { return from_file("fnw_wom_cache.cfg"); },
     0xe246d28ec71e741eULL, 0x7137837ac14dc2fcULL},
    {"hidden_refresh_cache_cfg",
     [] { return from_file("hidden_refresh_cache.cfg"); },
     0x04d48bf9c15037cbULL, 0x4cfa82f9da7e5998ULL},
    {"paper_cfg", [] { return from_file("paper.cfg"); },
     0x1f1e0409920d875eULL, 0xf926d79d4083d31cULL},
    {"polar_cfg", [] { return from_file("polar.cfg"); },
     0x353f552b91800206ULL, 0x68311c6d11118c15ULL},
    {"symmetric_cache_cfg", [] { return from_file("symmetric_cache.cfg"); },
     0xa1388fcd6ee578afULL, 0xb2903f463aad8f45ULL},
    {"tiered_cfg", [] { return from_file("tiered.cfg"); },
     0x6f779b7be0dea253ULL, 0xcb68557c673aed3eULL},
    {"ts_constrained_cfg", [] { return from_file("ts_constrained.cfg"); },
     0x579ee6cea7daa32bULL, 0x0a52eca1e8dd9ee7ULL},
    {"wcpcm32_cfg", [] { return from_file("wcpcm32.cfg"); },
     0xd3fc0347959582b3ULL, 0x1fdde49ddcdaf0a4ULL},
    {"pcm",
     [] { return canonical(ArchKind::kBaseline, WomOrganization::kWideColumn); },
     0x8b8afc62b1c8ae25ULL, 0xf092ca174661ddc7ULL},
    {"wom_pcm_wide",
     [] { return canonical(ArchKind::kWomPcm, WomOrganization::kWideColumn); },
     0x3cd24ec47c63a089ULL, 0x5ac75425d90a8108ULL},
    {"wom_pcm_hidden",
     [] { return canonical(ArchKind::kWomPcm, WomOrganization::kHiddenPage); },
     0x352620e3a97f5990ULL, 0x693653855bacdcd0ULL},
    {"pcm_refresh_wide",
     [] {
       return canonical(ArchKind::kRefreshWomPcm, WomOrganization::kWideColumn);
     },
     0x467676bc10a1fa24ULL, 0x07f663ee7b086f07ULL},
    {"pcm_refresh_hidden",
     [] {
       return canonical(ArchKind::kRefreshWomPcm, WomOrganization::kHiddenPage);
     },
     0xb9a706b0ac9bd967ULL, 0xbbdb09569120f3b3ULL},
    {"wcpcm",
     [] { return canonical(ArchKind::kWcpcm, WomOrganization::kWideColumn); },
     0x9e3f94f2bd46eb25ULL, 0x4e688eeac1989378ULL},
    {"fnw_half_fast",
     [] {
       SimConfig cfg =
           canonical(ArchKind::kFlipNWrite, WomOrganization::kWideColumn);
       cfg.arch.fnw_fast_fraction = 0.5;
       return cfg;
     },
     0x39543133af72f398ULL, 0xbcf6fb6228378319ULL},
    {"symmetric",
     [] { return canonical(ArchKind::kSymmetric, WomOrganization::kWideColumn); },
     0x36df076010bba760ULL, 0x4a01c2ad3c3271b6ULL},
    {"small_tier_lru", [] { return small_tier(ReplacementKind::kLru); },
     0xbb324a6c5221cc7eULL, 0xe99339bc56e05b1dULL},
    {"small_tier_fifo", [] { return small_tier(ReplacementKind::kFifo); },
     0x78b3c99b58c2bde4ULL, 0x6b8bd3be0b84a57dULL},
    {"small_tier_random", [] { return small_tier(ReplacementKind::kRandom); },
     0xb8d600834b73a856ULL, 0xc63ece77540ea956ULL},
};

// Faults on: the config's own fault block where it has one (faulty.cfg),
// else the one the composition suite uses. Faults off disables either.
SimConfig with_faults(SimConfig cfg, bool faults) {
  if (!faults) {
    cfg.fault.enabled = false;
  } else if (!cfg.fault.enabled) {
    cfg.fault.enabled = true;
    cfg.fault.seed = 7;
    cfg.fault.endurance = 400;
    cfg.fault.sigma = 0.35;
    cfg.fault.initial_wear = 0.75;
    cfg.fault.spare_rows = 4;
    cfg.fault.read_disturb = 0.0005;
  }
  return cfg;
}

// (case index, faults, jobs)
using GoldenParam = std::tuple<std::size_t, bool, unsigned>;

class ArchGoldens : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(ArchGoldens, DigestMatchesRecordedValue) {
  const auto [index, faults, jobs] = GetParam();
  const GoldenCase& c = kCases[index];
  RunRequest req;
  req.config = with_faults(c.config(), faults);
  req.trace = TraceSpec::profile(*find_profile("401.bzip2"), kAccesses);
  req.options = RunOptions::with_seed(kSeed);
  req.options.jobs = ParallelPolicy::with_jobs(jobs);
  const SimResult r = run(req);
  ASSERT_EQ(r.injected_reads + r.injected_writes, kAccesses);
  // The fault model is installed exactly when asked for (tiered.cfg's big
  // writeback tier absorbs every write of a short run, so its PCM side
  // sees no faults to inject).
  EXPECT_EQ(r.metrics.all().count("fault.injected"), faults ? 1u : 0u);
  if (std::string(c.name).rfind("small_tier", 0) == 0) {
    EXPECT_GT(r.tier_evictions, 100u) << "replacement scheme not in play";
  }

  const std::uint64_t want =
      faults ? c.digest_faults_on : c.digest_faults_off;
  char got[32];
  std::snprintf(got, sizeof got, "0x%016llxULL",
                static_cast<unsigned long long>(result_digest(r)));
  EXPECT_EQ(result_digest(r), want) << "digest of " << c.name
                                    << (faults ? " (faults on)" : "") << ": "
                                    << got;
}

std::string golden_name(const ::testing::TestParamInfo<GoldenParam>& info) {
  const auto [index, faults, jobs] = info.param;
  return std::string(kCases[index].name) + (faults ? "_faults" : "_nofaults") +
         "_jobs" + std::to_string(jobs);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ArchGoldens,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kCases)),
                       ::testing::Bool(), ::testing::Values(1u, 2u)),
    golden_name);

}  // namespace
}  // namespace wompcm
