// Tests of the cell-wear tracker and lifetime estimation.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "pcm/endurance.h"

namespace wompcm {
namespace {

TEST(WearTracker, StartsClean) {
  WearTracker w(8);
  EXPECT_DOUBLE_EQ(w.total_wear(), 0.0);
  EXPECT_DOUBLE_EQ(w.max_line_wear(), 0.0);
  EXPECT_EQ(w.touched_lines(), 0u);
  EXPECT_TRUE(std::isinf(w.lifetime_seconds(1000)));
}

TEST(WearTracker, WriteClassesWearDifferently) {
  WearTracker w(8);
  w.on_write(1, 0, WriteClass::kResetOnly);
  EXPECT_DOUBLE_EQ(w.max_line_wear(), kResetOnlyWearPerCell);
  w.on_write(1, 1, WriteClass::kAlpha);
  EXPECT_DOUBLE_EQ(w.max_line_wear(), kAlphaWearPerCell);
  EXPECT_EQ(w.touched_lines(), 2u);
  EXPECT_DOUBLE_EQ(w.total_wear(),
                   kResetOnlyWearPerCell + kAlphaWearPerCell);
}

TEST(WearTracker, WearAccumulatesPerLine) {
  WearTracker w(8);
  for (int i = 0; i < 4; ++i) w.on_write(3, 2, WriteClass::kResetOnly);
  EXPECT_DOUBLE_EQ(w.max_line_wear(), 4 * kResetOnlyWearPerCell);
  EXPECT_EQ(w.touched_lines(), 1u);
}

TEST(WearTracker, RefreshWearsEveryLineOfTheRow) {
  WearTracker w(4);
  w.on_refresh(7);
  EXPECT_EQ(w.touched_lines(), 4u);
  EXPECT_DOUBLE_EQ(w.total_wear(), 4 * kRefreshWearPerCell);
  EXPECT_DOUBLE_EQ(w.max_line_wear(), kRefreshWearPerCell);
}

TEST(WearTracker, DistinctRowsDistinctLines) {
  WearTracker w(8);
  w.on_write(1, 0, WriteClass::kResetOnly);
  w.on_write(2, 0, WriteClass::kResetOnly);
  EXPECT_EQ(w.touched_lines(), 2u);
  EXPECT_DOUBLE_EQ(w.mean_line_wear(), kResetOnlyWearPerCell);
}

TEST(WearTracker, ExplicitPulseInterface) {
  WearTracker w(8);
  w.on_write_pulses(1, 0, 0.25);
  w.on_write_pulses(1, 0, 0.25);
  EXPECT_DOUBLE_EQ(w.max_line_wear(), 0.5);
}

TEST(WearTracker, LifetimeScalesWithEnduranceAndRate) {
  WearTracker w(8);
  // 100 cycles of wear on the hottest line over 1 ms.
  for (int i = 0; i < 100; ++i) w.on_write(1, 0, WriteClass::kAlpha);
  const Tick elapsed = 1'000'000;  // 1 ms
  // rate = 100 cycles / 1e-3 s = 1e5 cycles/s; 1e8 endurance -> 1000 s.
  EXPECT_NEAR(w.lifetime_seconds(elapsed, 1e8), 1000.0, 1e-6);
  // Doubling endurance doubles lifetime.
  EXPECT_NEAR(w.lifetime_seconds(elapsed, 2e8), 2000.0, 1e-6);
  EXPECT_NEAR(w.lifetime_years(elapsed, 1e8), 1000.0 / (365.25 * 86400.0),
              1e-9);
}

TEST(WearTracker, AlphaHeavyArchitectureWearsFaster) {
  WearTracker wom(8), refreshed(8);
  // Plain WOM: alternating alpha/fast on a hot line.
  for (int i = 0; i < 100; ++i) {
    wom.on_write(0, 0, i % 2 == 0 ? WriteClass::kAlpha
                                  : WriteClass::kResetOnly);
  }
  // With refresh, writes stay fast but each cycle adds a row refresh.
  for (int i = 0; i < 100; ++i) {
    refreshed.on_write(0, 0, WriteClass::kResetOnly);
    if (i % 2 == 0) refreshed.on_refresh(0);
  }
  // The refresh variant trades demand-write wear for background wear; the
  // hot line ends up with comparable total cycling.
  EXPECT_NEAR(refreshed.max_line_wear(), wom.max_line_wear(), 26.0);
  EXPECT_GT(refreshed.total_wear(), wom.total_wear());
}

TEST(WearTracker, LineCountRejectsOverflowInsteadOfWrapping) {
  // Wear divisor 8: quanta of 1/32 cycle, so one line's 32-bit count holds
  // (2^32 - 2) / 32 cycles, just under 2^27. One call reaches the cap.
  WearTracker w(4, /*wear_divisor=*/8);
  const double cap = static_cast<double>(0xFFFFFFFEu) / 32.0;
  w.on_write_pulses(1, 0, cap);
  EXPECT_EQ(w.line_wear(1, 0), cap);
  EXPECT_THROW(w.on_write_pulses(1, 0, kResetOnlyWearPerCell),
               std::overflow_error);
  EXPECT_THROW(w.on_write(1, 0, WriteClass::kAlpha), std::overflow_error);
  // A rejected increment changes nothing.
  EXPECT_EQ(w.line_wear(1, 0), cap);
  EXPECT_EQ(w.total_wear(), cap);
  EXPECT_EQ(w.max_line_wear(), cap);
  EXPECT_EQ(w.touched_lines(), 1u);
  // A single increment past the cap is rejected on a fresh line too, and
  // other lines keep counting.
  EXPECT_THROW(w.on_write_pulses(2, 0, cap + 1.0), std::overflow_error);
  w.on_write_pulses(1, 1, kAlphaWearPerCell);
  EXPECT_EQ(w.line_wear(1, 1), kAlphaWearPerCell);
  EXPECT_EQ(w.touched_lines(), 2u);
}

TEST(WearTracker, RejectsIncrementsThatAreNotWholeQuanta) {
  WearTracker w(4);  // quanta of 1/4 cycle
  EXPECT_THROW(w.on_write_pulses(1, 0, 1.0 / 3.0), std::invalid_argument);
  EXPECT_THROW(w.on_write_pulses(1, 0, -0.5), std::invalid_argument);
  EXPECT_EQ(w.quanta(kResetOnlyWearPerCell / 2), 1u);
  WearTracker thirds(4, /*wear_divisor=*/3);  // quanta of 1/12 cycle
  EXPECT_EQ(thirds.quanta(kAlphaWearPerCell), 12u);
}

TEST(WearTracker, NonDyadicSumsAreExactAndOrderFree) {
  // A time-space constrained code with 3 replicas charges 1/6 cycle per
  // RESET-only write. Counted in 1/12-cycle quanta, the same increments
  // give the same total in any order, split over any number of trackers.
  WearTracker serial(2, /*wear_divisor=*/3);
  WearTracker a(2, 3), b(2, 3);
  const std::uint32_t sixth = serial.quanta(kResetOnlyWearPerCell) / 3;
  for (int i = 0; i < 1000; ++i) {
    const RowKey row = static_cast<RowKey>(i % 7);
    serial.add(serial.rows().get(row), i % 2, sixth);
    WearTracker& part = row < 3 ? a : b;
    part.add(part.rows().get(row), i % 2, sixth);
  }
  a.merge_from(b);
  EXPECT_EQ(serial.total_wear(), a.total_wear());
  EXPECT_EQ(serial.mean_line_wear(), a.mean_line_wear());
  EXPECT_EQ(serial.max_line_wear(), a.max_line_wear());
  // 1000 / 6 cycles, correctly rounded once.
  EXPECT_EQ(serial.total_wear(), 1000.0 / 6.0);
}

}  // namespace
}  // namespace wompcm
