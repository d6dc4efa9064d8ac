// Differential test of the per-row state table (common/row_table.h).
//
// One table, shared the way an Architecture shares it: the WearTracker
// holds it, and two WOM regions keep their generations in it — main memory
// (unknown start, t = 2, full per-cell wear) on keys [0, 4) and a WOM-cache
// (erased start, t = 3, half the wear, like a two-replica time-space
// constrained code) on keys [100, 104). Seeded random streams of writes,
// refreshes and explicit pulses, all with dyadic increments, drive the
// table exactly as WomCoding does and, in parallel, a plain
// per-(row, line) std::map model of double wear and generations. Every
// observable must agree after every step. Keys 7 and 107 are only ever
// refreshed: a refresh of a row its region never wrote must stay a no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/row_table.h"
#include "pcm/endurance.h"
#include "wom/wom_tracker.h"

namespace wompcm {
namespace {

constexpr unsigned kLines = 4;
constexpr unsigned kUnknown = WomStateTracker::kUnknownGen;

struct Region {
  RowKey base;
  unsigned t;
  bool erased_start;
  unsigned wear_divisor;
  RowKey untouched;  // a key of the region that is only ever refreshed
};

constexpr Region kMain{0, 2, false, 1, 7};
constexpr Region kCache{100, 3, true, 2, 107};

// The reference: one map entry per touched (row, line), doubles for wear.
class Model {
 public:
  WriteClass write(const Region& g, RowKey key, unsigned line, bool* cold) {
    rows_.insert(key);
    unsigned gen = generation(g, key, line);
    WriteClass cls = WriteClass::kResetOnly;
    *cold = gen == kUnknown;
    if (gen == kUnknown || gen == g.t) {
      cls = WriteClass::kAlpha;
      gen = 1;
    } else {
      ++gen;
    }
    gen_[{key, line}] = gen;
    wear_[{key, line}] += (cls == WriteClass::kAlpha ? kAlphaWearPerCell
                                                     : kResetOnlyWearPerCell) /
                          g.wear_divisor;
    return cls;
  }

  bool refresh(const Region& g, RowKey key) {
    if (rows_.count(key) == 0) return false;
    const bool useful = at_limit(g, key) > 0;
    for (unsigned l = 0; l < kLines; ++l) {
      gen_[{key, l}] = 0;
      if (useful) wear_[{key, l}] += kRefreshWearPerCell;
    }
    return useful;
  }

  void pulse(RowKey key, unsigned line, double pulses) {
    rows_.insert(key);
    wear_[{key, line}] += pulses;
  }

  unsigned generation(const Region& g, RowKey key, unsigned line) const {
    const auto it = gen_.find({key, line});
    if (it != gen_.end()) return it->second;
    return g.erased_start ? 0 : kUnknown;
  }
  unsigned at_limit(const Region& g, RowKey key) const {
    unsigned n = 0;
    for (unsigned l = 0; l < kLines; ++l) n += generation(g, key, l) == g.t;
    return n;
  }
  double line_wear(RowKey key, unsigned line) const {
    const auto it = wear_.find({key, line});
    return it == wear_.end() ? 0.0 : it->second;
  }
  double total() const {
    double t = 0.0;
    for (const auto& [k, w] : wear_) t += w;
    return t;
  }
  double max() const {
    double m = 0.0;
    for (const auto& [k, w] : wear_) m = std::max(m, w);
    return m;
  }
  std::size_t touched() const { return wear_.size(); }
  bool has_row(RowKey key) const { return rows_.count(key) != 0; }
  std::size_t rows() const { return rows_.size(); }

 private:
  std::set<RowKey> rows_;  // rows holding a record
  std::map<std::pair<RowKey, unsigned>, unsigned> gen_;
  std::map<std::pair<RowKey, unsigned>, double> wear_;
};

// The table under test, wired as an Architecture wires it.
struct Table {
  WearTracker wear{kLines, /*wear_divisor=*/2};
  WomStateTracker main{kMain.t, wear.rows(), kMain.erased_start};
  WomStateTracker cache{kCache.t, wear.rows(), kCache.erased_start};

  WomStateTracker& tracker(const Region& g) {
    return g.erased_start ? cache : main;
  }

  // WomCoding::begin_write + finish_write.
  WomStateTracker::WriteRecord write(const Region& g, RowKey key,
                                     unsigned line) {
    const auto rec = tracker(g).record_write(key, line);
    const std::uint32_t q =
        wear.quanta(rec.cls == WriteClass::kAlpha ? kAlphaWearPerCell
                                                  : kResetOnlyWearPerCell) /
        g.wear_divisor;
    wear.add(rec.row, line, q);
    return rec;
  }

  // WomCoding::refresh_row.
  bool refresh(const Region& g, RowKey key) {
    const RowTable::Row r = wear.rows().find(key);
    if (!tracker(g).refresh(r)) return false;
    wear.on_refresh(r);
    return true;
  }
};

void expect_agree(Table& table, const Model& model) {
  for (const Region& g : {kMain, kCache}) {
    std::vector<RowKey> keys = {g.untouched};
    for (RowKey k = 0; k < 4; ++k) keys.push_back(g.base + k);
    for (const RowKey key : keys) {
      SCOPED_TRACE("key " + std::to_string(key));
      const RowTable::Row r = table.wear.rows().find(key);
      ASSERT_EQ(static_cast<bool>(r), model.has_row(key));
      if (r) {
        ASSERT_EQ(r.at_limit(), model.at_limit(g, key));
      }
      ASSERT_EQ(table.tracker(g).row_has_limit_lines(key),
                model.at_limit(g, key) > 0);
      for (unsigned l = 0; l < kLines; ++l) {
        ASSERT_EQ(table.tracker(g).generation(key, l),
                  model.generation(g, key, l))
            << "line " << l;
        ASSERT_EQ(table.wear.line_wear(key, l), model.line_wear(key, l))
            << "line " << l;
      }
    }
  }
  ASSERT_EQ(table.wear.rows().size(), model.rows());
  ASSERT_EQ(table.wear.touched_lines(), model.touched());
  ASSERT_EQ(table.wear.total_wear(), model.total());
  ASSERT_EQ(table.wear.max_line_wear(), model.max());
  ASSERT_EQ(table.wear.mean_line_wear(),
            model.touched() == 0
                ? 0.0
                : model.total() / static_cast<double>(model.touched()));
}

TEST(RowTable, MatchesPerLineMapModel) {
  const double kPulses[] = {0.25, 0.5, 1.0, 2.0, 3.0};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table;
    Model model;
    Rng rng(seed);
    unsigned refreshes = 0;
    unsigned useful = 0;
    for (int op = 0; op < 3000; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const Region& g = rng.next_below(2) == 0 ? kMain : kCache;
      const RowKey key = g.base + rng.next_below(4);
      const auto line = static_cast<unsigned>(rng.next_below(kLines));
      const std::uint64_t kind = rng.next_below(20);
      if (kind < 12) {
        bool cold = false;
        const WriteClass want = model.write(g, key, line, &cold);
        const auto got = table.write(g, key, line);
        ASSERT_EQ(got.cls, want);
        ASSERT_EQ(got.cold, cold);
      } else if (kind < 16) {
        const bool want = model.refresh(g, key);
        ASSERT_EQ(table.refresh(g, key), want);
        ++refreshes;
        useful += want;
      } else if (kind < 19) {
        const double p = kPulses[rng.next_below(5)];
        model.pulse(key, line, p);
        table.wear.on_write_pulses(key, line, p);
      } else {
        // The region never wrote this row: no record, no erase, no wear.
        ASSERT_FALSE(model.refresh(g, g.untouched));
        ASSERT_FALSE(table.refresh(g, g.untouched));
      }
      ASSERT_NO_FATAL_FAILURE(expect_agree(table, model));
    }
    // The stream exercised what it claims to.
    EXPECT_GT(useful, 0u);
    EXPECT_LT(useful, refreshes);
    EXPECT_GT(table.main.cold_alpha_writes(), 0u);
    EXPECT_EQ(table.cache.cold_alpha_writes(), 0u);  // erased start
  }
}

TEST(RowTable, RecordsNeverMoveAsTheTableGrows) {
  RowTable rows(3);
  const RowTable::Row first = rows.get(42);
  first.wear()[2] = 7;
  first.gen()[1] = 5;
  first.at_limit() = 1;
  // Many insertions: new chunks and index rehashes, but no record moves.
  for (RowKey k = 1000; k < 1000 + 5000; ++k) rows.get(k).gen()[0] = 1;
  const RowTable::Row again = rows.find(42);
  EXPECT_EQ(again.wear(), first.wear());
  EXPECT_EQ(again.wear()[2], 7u);
  EXPECT_EQ(again.gen()[1], 5u);
  EXPECT_EQ(again.at_limit(), 1u);
  EXPECT_EQ(rows.size(), 5001u);
  // A fresh record reads untouched everywhere.
  const RowTable::Row fresh = rows.get(9);
  EXPECT_EQ(fresh.at_limit(), 0u);
  for (unsigned l = 0; l < 3; ++l) {
    EXPECT_EQ(fresh.wear()[l], RowTable::kUntouchedWear);
    EXPECT_EQ(fresh.gen()[l], RowTable::kUnknownGen);
  }
  EXPECT_FALSE(rows.find(8));
}

TEST(RowTable, RecordStartStateIsTheRegions) {
  // A record created by wear alone (no write yet) reads unknown to a
  // main-memory tracker and erased to a WOM-cache tracker.
  WearTracker wear(2);
  WomStateTracker main(2, wear.rows());
  WomStateTracker cache(2, wear.rows(), /*erased_start=*/true);
  wear.on_write_pulses(1, 0, kAlphaWearPerCell);
  wear.on_write_pulses(101, 0, kAlphaWearPerCell);
  EXPECT_EQ(main.generation(1, 0), WomStateTracker::kUnknownGen);
  EXPECT_EQ(cache.generation(101, 0), 0u);
  const auto m = main.record_write(1, 0);
  EXPECT_EQ(m.cls, WriteClass::kAlpha);
  EXPECT_TRUE(m.cold);
  const auto c = cache.record_write(101, 0);
  EXPECT_EQ(c.cls, WriteClass::kResetOnly);
  EXPECT_FALSE(c.cold);
  EXPECT_EQ(wear.rows().size(), 2u);
}

}  // namespace
}  // namespace wompcm
