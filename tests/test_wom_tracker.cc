// Tests for the per-line WOM generation tracker used by the timing model.
#include <gtest/gtest.h>

#include "wom/wom_tracker.h"

namespace wompcm {
namespace {

TEST(WomStateTracker, UnknownLinesStartAlpha) {
  WomStateTracker t(2, 8);
  EXPECT_EQ(t.generation(5, 3), WomStateTracker::kUnknownGen);
  const auto r = t.record_write(5, 3);
  EXPECT_EQ(r.cls, WriteClass::kAlpha);
  EXPECT_TRUE(r.cold);
  EXPECT_EQ(t.generation(5, 3), 1u);
  EXPECT_EQ(t.cold_alpha_writes(), 1u);
}

TEST(WomStateTracker, ErasedStartSkipsColdAlpha) {
  WomStateTracker t(2, 8, /*erased_start=*/true);
  EXPECT_EQ(t.generation(5, 3), 0u);
  const auto r = t.record_write(5, 3);
  EXPECT_EQ(r.cls, WriteClass::kResetOnly);
  EXPECT_FALSE(r.cold);
}

TEST(WomStateTracker, AlphaEveryTPlusOneWritesAfterCold) {
  // t = 2: cold alpha, then F F A F A F A ...
  WomStateTracker t(2, 4);
  EXPECT_EQ(t.record_write(1, 0).cls, WriteClass::kAlpha);  // cold
  EXPECT_EQ(t.record_write(1, 0).cls, WriteClass::kResetOnly);
  EXPECT_EQ(t.record_write(1, 0).cls, WriteClass::kAlpha);
  EXPECT_EQ(t.record_write(1, 0).cls, WriteClass::kResetOnly);
  EXPECT_EQ(t.record_write(1, 0).cls, WriteClass::kAlpha);
  EXPECT_EQ(t.alpha_writes(), 3u);
  EXPECT_EQ(t.cold_alpha_writes(), 1u);
  EXPECT_EQ(t.writes(), 5u);
}

TEST(WomStateTracker, LinesAreIndependent) {
  WomStateTracker t(2, 4);
  t.record_write(1, 0);
  t.record_write(1, 0);  // line 0 at limit now
  EXPECT_EQ(t.generation(1, 0), 2u);
  EXPECT_EQ(t.generation(1, 1), WomStateTracker::kUnknownGen);
  EXPECT_EQ(t.record_write(1, 1).cls, WriteClass::kAlpha);  // cold, own line
  EXPECT_EQ(t.generation(1, 0), 2u);  // untouched by line 1's write
}

TEST(WomStateTracker, RowHasLimitLines) {
  WomStateTracker t(2, 4);
  EXPECT_FALSE(t.row_has_limit_lines(9));
  t.record_write(9, 2);
  EXPECT_FALSE(t.row_has_limit_lines(9));  // gen 1 < t
  t.record_write(9, 2);
  EXPECT_TRUE(t.row_has_limit_lines(9));  // gen 2 == t
  t.record_write(9, 2);                   // alpha resets the cycle
  EXPECT_FALSE(t.row_has_limit_lines(9));
}

TEST(WomStateTracker, RefreshErasesWholeRow) {
  WomStateTracker t(2, 4);
  t.record_write(3, 0);
  t.record_write(3, 0);  // line 0 at limit
  t.record_write(3, 1);  // line 1 cold alpha -> gen 1
  ASSERT_TRUE(t.row_has_limit_lines(3));
  EXPECT_TRUE(t.refresh(3));
  EXPECT_FALSE(t.row_has_limit_lines(3));
  EXPECT_EQ(t.generation(3, 0), 0u);
  EXPECT_EQ(t.generation(3, 1), 0u);
  EXPECT_EQ(t.generation(3, 2), 0u);  // never-written lines also erased
  // Next writes to any line of the row are fast.
  EXPECT_EQ(t.record_write(3, 2).cls, WriteClass::kResetOnly);
  EXPECT_EQ(t.generation(3, 2), 1u);
}

TEST(WomStateTracker, RefreshOnUntrackedRowIsNoop) {
  RowTable rows(4);
  WomStateTracker t(2, rows);
  EXPECT_FALSE(t.refresh(77));
  // No record appears and the row is not erased: its first write is still
  // the cold alpha.
  EXPECT_EQ(rows.size(), 0u);
  EXPECT_EQ(t.generation(77, 0), WomStateTracker::kUnknownGen);
  EXPECT_TRUE(t.record_write(77, 0).cold);
}

TEST(WomStateTracker, RefreshWithoutLimitLinesReportsUseless) {
  WomStateTracker t(2, 4);
  t.record_write(3, 0);  // gen 1
  EXPECT_FALSE(t.refresh(3));  // erased anyway, but not "useful"
  EXPECT_EQ(t.generation(3, 0), 0u);
}

TEST(WomStateTracker, SingleWriteCodeAlwaysAlphaAfterFirst) {
  WomStateTracker t(1, 2);
  EXPECT_EQ(t.record_write(0, 0).cls, WriteClass::kAlpha);  // cold
  EXPECT_TRUE(t.row_has_limit_lines(0));  // t=1: gen 1 is at the limit
  EXPECT_EQ(t.record_write(0, 0).cls, WriteClass::kAlpha);
  EXPECT_TRUE(t.row_has_limit_lines(0));
}

class TrackerLimitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TrackerLimitSweep, SteadyStateAlphaRate) {
  // In steady state, exactly one write in t is alpha.
  const unsigned t = GetParam();
  WomStateTracker tracker(t, 1);
  // Warm the line past the cold write.
  tracker.record_write(0, 0);
  const std::uint64_t alpha_before = tracker.alpha_writes();
  unsigned alphas = 0;
  constexpr unsigned kWrites = 120;
  for (unsigned i = 0; i < kWrites; ++i) {
    if (tracker.record_write(0, 0).cls == WriteClass::kAlpha) ++alphas;
  }
  (void)alpha_before;
  EXPECT_NEAR(static_cast<double>(alphas),
              static_cast<double>(kWrites) / t, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Limits, TrackerLimitSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(WomStateTracker, TrackedRowsGrowLazily) {
  RowTable rows(16);
  WomStateTracker t(2, rows);
  EXPECT_EQ(rows.size(), 0u);
  t.record_write(1, 0);
  t.record_write(2, 0);
  t.record_write(1, 5);
  EXPECT_EQ(rows.size(), 2u);
}

}  // namespace
}  // namespace wompcm
