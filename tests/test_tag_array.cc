// TagArray + ReplacementState unit contract (DESIGN.md "Tag arrays &
// tiered backends"): invalid ways fill before any victim is consulted,
// LRU/FIFO/random order evictions as advertised, the random stream is a
// pure function of its seed, the bank_tag scheme degenerates to the WOM
// cache's 1-way overwrite scheme, and every scheme picks the victims an
// independent recency-list / RNG model picks over randomized hook streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "arch/tag_array.h"
#include "common/rng.h"

namespace wompcm {
namespace {

TagArray make(ReplacementKind kind, unsigned sets, unsigned ways,
              std::uint64_t seed = 1) {
  return TagArray(sets, ways, kind, seed);
}

TEST(TagArray, KindStringsRoundTrip) {
  for (const ReplacementKind k :
       {ReplacementKind::kBankTag, ReplacementKind::kLru,
        ReplacementKind::kFifo, ReplacementKind::kRandom}) {
    ReplacementKind parsed;
    ASSERT_TRUE(replacement_kind_from_string(to_string(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  ReplacementKind parsed;
  EXPECT_FALSE(replacement_kind_from_string("plru", &parsed));
}

TEST(TagArray, LookupInstallInvalidate) {
  TagArray t = make(ReplacementKind::kLru, 4, 2);
  EXPECT_EQ(t.lookup(0, 42), TagArray::kNoWay);
  const unsigned w = t.fill_way(0);
  t.install(0, w, 42);
  EXPECT_EQ(t.lookup(0, 42), w);
  EXPECT_TRUE(t.valid(0, w));
  EXPECT_EQ(t.tag(0, w), 42u);
  EXPECT_FALSE(t.dirty(0, w));
  t.set_dirty(0, w, true);
  EXPECT_TRUE(t.dirty(0, w));
  // Other sets are untouched.
  EXPECT_EQ(t.lookup(1, 42), TagArray::kNoWay);
  t.invalidate(0, w);
  EXPECT_EQ(t.lookup(0, 42), TagArray::kNoWay);
  EXPECT_FALSE(t.dirty(0, w));  // invalidation drops the dirty bit
}

TEST(TagArray, InvalidWaysFillBeforeAnyEviction) {
  TagArray t = make(ReplacementKind::kLru, 1, 4);
  std::set<unsigned> used;
  for (std::uint64_t tag = 0; tag < 4; ++tag) {
    const unsigned w = t.fill_way(0);
    EXPECT_FALSE(t.valid(0, w));  // never clobbers a valid way while room
    t.install(0, w, tag);
    used.insert(w);
  }
  EXPECT_EQ(used.size(), 4u);  // all four ways populated exactly once
}

TEST(TagArray, LruEvictsLeastRecentlyUsed) {
  TagArray t = make(ReplacementKind::kLru, 1, 4);
  for (std::uint64_t tag = 0; tag < 4; ++tag) {
    t.install(0, t.fill_way(0), tag);
  }
  // Touch 0 (the oldest install): the victim must now be 1.
  t.touch(0, t.lookup(0, 0));
  const unsigned victim = t.fill_way(0);
  EXPECT_EQ(t.tag(0, victim), 1u);
  t.install(0, victim, 99);
  // 1 is gone, 0 and 99 are resident.
  EXPECT_EQ(t.lookup(0, 1), TagArray::kNoWay);
  EXPECT_NE(t.lookup(0, 0), TagArray::kNoWay);
  EXPECT_NE(t.lookup(0, 99), TagArray::kNoWay);
}

TEST(TagArray, FifoIgnoresTouches) {
  TagArray t = make(ReplacementKind::kFifo, 1, 3);
  for (std::uint64_t tag = 0; tag < 3; ++tag) {
    t.install(0, t.fill_way(0), tag);
  }
  // However recently used, the first install is still the first out.
  t.touch(0, t.lookup(0, 0));
  t.touch(0, t.lookup(0, 0));
  EXPECT_EQ(t.tag(0, t.fill_way(0)), 0u);
}

TEST(TagArray, RandomVictimStreamIsSeedDeterministic) {
  const auto victims = [](std::uint64_t seed) {
    TagArray t = make(ReplacementKind::kRandom, 1, 8, seed);
    for (std::uint64_t tag = 0; tag < 8; ++tag) {
      t.install(0, t.fill_way(0), tag);
    }
    std::vector<unsigned> v;
    for (int i = 0; i < 32; ++i) {
      const unsigned w = t.fill_way(0);
      v.push_back(w);
      t.install(0, w, 100 + static_cast<std::uint64_t>(i));
    }
    return v;
  };
  EXPECT_EQ(victims(7), victims(7));   // same seed, same stream
  EXPECT_NE(victims(7), victims(8));   // 8^32 draws: collision ~ impossible
}

TEST(TagArray, BankTagIsOneWayOverwrite) {
  // The WOM cache's scheme: sets indexed by row, single way tagged by bank,
  // replacement == overwriting the occupant.
  TagArray t = make(ReplacementKind::kBankTag, 8, 1);
  EXPECT_EQ(t.fill_way(3), 0u);
  t.install(3, 0, /*bank=*/5);
  EXPECT_EQ(t.lookup(3, 5), 0u);
  EXPECT_EQ(t.lookup(3, 6), TagArray::kNoWay);
  EXPECT_EQ(t.fill_way(3), 0u);  // the only possible victim is the occupant
  t.install(3, 0, /*bank=*/6);
  EXPECT_EQ(t.lookup(3, 5), TagArray::kNoWay);
  EXPECT_EQ(t.lookup(3, 6), 0u);
}

TEST(TagArray, BankTagRejectsMultiWaySets) {
  EXPECT_THROW(make(ReplacementKind::kBankTag, 8, 2), std::invalid_argument);
}

TEST(TagArray, RejectsEmptyGeometry) {
  EXPECT_THROW(make(ReplacementKind::kLru, 0, 4), std::invalid_argument);
  EXPECT_THROW(make(ReplacementKind::kLru, 4, 0), std::invalid_argument);
}

// The reference the replacement schemes are checked against, written
// independently of ReplacementState: per set, a recency list of the ways
// that hold a recency mark (oldest first) beside the unmarked ways. LRU
// marks on installs and hits, FIFO on installs only; an invalidated way
// loses its mark. The victim is the lowest unmarked way if any, else the
// oldest marked one. Random draws Rng(seed).next_below(ways) per victim;
// bank_tag's only victim is way 0.
class ReplacementModel {
 public:
  ReplacementModel(ReplacementKind kind, unsigned sets, unsigned ways,
                   std::uint64_t seed)
      : kind_(kind), ways_(ways), order_(sets), rng_(seed) {}

  void touch(unsigned set, unsigned way) {
    if (kind_ == ReplacementKind::kLru) mark(set, way);
  }
  void install(unsigned set, unsigned way) {
    if (kind_ == ReplacementKind::kLru || kind_ == ReplacementKind::kFifo) {
      mark(set, way);
    }
  }
  void invalidate(unsigned set, unsigned way) { unmark(set, way); }
  unsigned victim(unsigned set) {
    if (kind_ == ReplacementKind::kBankTag) return 0;
    if (kind_ == ReplacementKind::kRandom) {
      return static_cast<unsigned>(rng_.next_below(ways_));
    }
    const std::vector<unsigned>& marked = order_[set];
    for (unsigned w = 0; w < ways_; ++w) {
      if (std::find(marked.begin(), marked.end(), w) == marked.end()) return w;
    }
    return marked.front();
  }

 private:
  void unmark(unsigned set, unsigned way) {
    std::vector<unsigned>& marked = order_[set];
    marked.erase(std::remove(marked.begin(), marked.end(), way), marked.end());
  }
  void mark(unsigned set, unsigned way) {
    unmark(set, way);
    order_[set].push_back(way);
  }

  ReplacementKind kind_;
  unsigned ways_;
  std::vector<std::vector<unsigned>> order_;
  Rng rng_;
};

void expect_matches_model(ReplacementKind kind, unsigned sets, unsigned ways,
                          std::uint64_t seed, std::uint64_t drive_seed) {
  ReplacementState state(kind, sets, ways, seed);
  ReplacementModel model(kind, sets, ways, seed);
  Rng rng(drive_seed);
  for (int i = 0; i < 4000; ++i) {
    const unsigned set = static_cast<unsigned>(rng.next_below(sets));
    const unsigned way = static_cast<unsigned>(rng.next_below(ways));
    switch (rng.next_below(4)) {
      case 0:
        state.touch(set, way);
        model.touch(set, way);
        break;
      case 1:
        state.install(set, way);
        model.install(set, way);
        break;
      case 2:
        // The victim is the only observable result; for random it also
        // locks the two RNG streams together.
        ASSERT_EQ(state.victim(set), model.victim(set))
            << to_string(kind) << " diverged at step " << i;
        break;
      case 3:
        state.invalidate(set, way);
        model.invalidate(set, way);
        break;
    }
  }
}

TEST(TagArray, ReplacementStateMatchesIndependentModel) {
  expect_matches_model(ReplacementKind::kBankTag, 64, 1, 7, 101);
  expect_matches_model(ReplacementKind::kLru, 16, 4, 7, 102);
  expect_matches_model(ReplacementKind::kLru, 1, 8, 9, 103);
  expect_matches_model(ReplacementKind::kFifo, 16, 4, 7, 104);
  expect_matches_model(ReplacementKind::kFifo, 32, 2, 9, 105);
  expect_matches_model(ReplacementKind::kRandom, 16, 4, 7, 106);
  expect_matches_model(ReplacementKind::kRandom, 8, 8, 1234, 107);
}

}  // namespace
}  // namespace wompcm
