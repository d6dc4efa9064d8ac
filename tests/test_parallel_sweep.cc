// Determinism contract of the parallel sweep engine: for the paper
// configuration, the parallel and serial run_sweep produce identical
// SimResult stats in identical order, regardless of worker count.
#include <gtest/gtest.h>

#include <vector>

#include "result_compare.h"
#include "sim/experiment.h"
#include "sim/parallel_sweep.h"

namespace wompcm {
namespace {

std::vector<WorkloadProfile> test_profiles() {
  // One profile per suite, covering the behavioural spread.
  return {*find_profile("401.bzip2"), *find_profile("464.h264ref"),
          *find_profile("qsort"), *find_profile("ocean")};
}

TEST(ParallelSweep, ParallelMatchesSerialBitForBit) {
  const auto archs = paper_architectures();
  const auto profiles = test_profiles();
  RunRequest req;
  req.config = paper_config();
  req.trace = TraceSpec::profile(WorkloadProfile{}, 2500);
  req.options.seed = 42;
  req.options.jobs = ParallelPolicy::serial();
  const auto serial = run_sweep(req, archs, profiles);
  req.options.jobs = ParallelPolicy::with_jobs(4);
  const auto parallel = run_sweep(req, archs, profiles);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].benchmark);
    EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
    ASSERT_EQ(serial[i].results.size(), parallel[i].results.size());
    for (std::size_t j = 0; j < serial[i].results.size(); ++j) {
      SCOPED_TRACE(serial[i].results[j].arch_name);
      expect_identical(serial[i].results[j], parallel[i].results[j]);
    }
  }
}

TEST(ParallelSweep, DefaultPolicyIsAutomatic) {
  const ParallelPolicy p;
  EXPECT_EQ(p.jobs, 0u);
  EXPECT_GE(p.resolved_jobs(), 1u);
  EXPECT_EQ(ParallelPolicy::serial().resolved_jobs(), 1u);
  EXPECT_EQ(ParallelPolicy::with_jobs(3).resolved_jobs(), 3u);
}

TEST(ParallelSweep, RunnerPreservesRowAndColumnOrder) {
  const auto archs = paper_architectures();
  const auto profiles = test_profiles();
  const ParallelSweepRunner runner(ParallelPolicy::with_jobs(3));
  EXPECT_EQ(runner.jobs(), 3u);
  const auto rows =
      runner.run(paper_config(), archs, profiles, 1500, 7);
  ASSERT_EQ(rows.size(), profiles.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].benchmark, profiles[i].name);
    ASSERT_EQ(rows[i].results.size(), archs.size());
  }
  // Column order is the arch list order: baseline first, WCPCM last.
  EXPECT_EQ(rows[0].results[0].arch_name, "pcm");
  EXPECT_NE(rows[0].results[3].arch_name.find("wcpcm"), std::string::npos);
}

TEST(ParallelSweep, RejectsWarmupAtLeastTraceLength) {
  SimConfig cfg = paper_config();
  cfg.warmup_accesses = 1000;
  EXPECT_THROW(run({cfg, TraceSpec::profile(*find_profile("qsort"), 1000),
                    RunOptions::with_seed(1)}),
               std::invalid_argument);
  EXPECT_NO_THROW(run({cfg, TraceSpec::profile(*find_profile("qsort"), 1001),
                       RunOptions::with_seed(1)}));
}

}  // namespace
}  // namespace wompcm
