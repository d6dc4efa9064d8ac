// The one result comparator the test suites share, and the digest the
// golden suite pins.
//
// Two runs that claim bit-identity (serial vs sharded, indexed vs reference
// scan, service vs batch, a legacy kind vs its composition) must agree on
// every deterministic field of SimResult: latency min/max/sum/count, both
// histograms, the counters, the full metrics registry name by name, every
// bank-like resource's busy time / ops / row hits / pauses, energy, wear
// and fault tallies. Wall-clock phase counters are excluded by design.
// result_digest() folds exactly those fields into one 64-bit FNV-1a value,
// so a golden digest pins what expect_identical() compares.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "sim/simulator.h"

namespace wompcm {

// Which registry entries the comparison covers. A service run publishes an
// additive per-session slice ("stream<N>.*") on top of the batch books;
// kIgnoreStreamSlice drops exactly those names before comparing.
enum class RegistryScope : std::uint8_t { kAll, kIgnoreStreamSlice };

inline bool is_stream_metric(const std::string& name) {
  if (name.rfind("stream", 0) != 0) return false;
  std::size_t i = 6;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  return i > 6 && i < name.size() && name[i] == '.';
}

inline void expect_identical(const SimResult& a, const SimResult& b,
                             RegistryScope scope = RegistryScope::kAll) {
  EXPECT_EQ(a.arch_name, b.arch_name);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.injected_reads, b.injected_reads);
  EXPECT_EQ(a.injected_writes, b.injected_writes);
  EXPECT_EQ(a.deferred_injections, b.deferred_injections);
  EXPECT_EQ(a.refresh_commands, b.refresh_commands);
  EXPECT_EQ(a.refresh_rows, b.refresh_rows);

  auto expect_latency_eq = [](const LatencyStats& x, const LatencyStats& y,
                              const char* what) {
    EXPECT_EQ(x.count(), y.count()) << what;
    EXPECT_EQ(x.min(), y.min()) << what;
    EXPECT_EQ(x.max(), y.max()) << what;
    EXPECT_EQ(x.sum(), y.sum()) << what;  // bit-exact: integer-tick sums
  };
  expect_latency_eq(a.stats.demand_read_latency, b.stats.demand_read_latency,
                    "demand read latency");
  expect_latency_eq(a.stats.demand_write_latency,
                    b.stats.demand_write_latency, "demand write latency");
  expect_latency_eq(a.stats.internal_write_latency,
                    b.stats.internal_write_latency, "internal write latency");

  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.stats.read_latency_hist.bucket(i),
              b.stats.read_latency_hist.bucket(i))
        << "read hist bucket " << i;
    EXPECT_EQ(a.stats.write_latency_hist.bucket(i),
              b.stats.write_latency_hist.bucket(i))
        << "write hist bucket " << i;
  }

  EXPECT_EQ(a.stats.counters.all(), b.stats.counters.all());

  // The full registry, name by name: catches any per-channel scalar or
  // fault tally the convenience fields do not surface.
  auto ma = a.metrics.all();  // copies: name-sorted maps
  auto mb = b.metrics.all();
  if (scope == RegistryScope::kIgnoreStreamSlice) {
    std::erase_if(ma, [](const auto& kv) { return is_stream_metric(kv.first); });
    std::erase_if(mb, [](const auto& kv) { return is_stream_metric(kv.first); });
  }
  ASSERT_EQ(ma.size(), mb.size());
  auto ib = mb.begin();
  for (auto ia = ma.begin(); ia != ma.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.kind, ib->second.kind) << ia->first;
    EXPECT_EQ(ia->second.count, ib->second.count) << ia->first;
    EXPECT_EQ(ia->second.value, ib->second.value) << ia->first;
  }

  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].busy_time, b.banks[i].busy_time) << "bank " << i;
    EXPECT_EQ(a.banks[i].ops, b.banks[i].ops) << "bank " << i;
    EXPECT_EQ(a.banks[i].row_hits, b.banks[i].row_hits) << "bank " << i;
    EXPECT_EQ(a.banks[i].pauses, b.banks[i].pauses) << "bank " << i;
    EXPECT_EQ(a.banks[i].cache, b.banks[i].cache) << "bank " << i;
  }

  EXPECT_EQ(a.capacity_overhead, b.capacity_overhead);
  EXPECT_EQ(a.energy_read_pj, b.energy_read_pj);
  EXPECT_EQ(a.energy_write_pj, b.energy_write_pj);
  EXPECT_EQ(a.energy_refresh_pj, b.energy_refresh_pj);
  EXPECT_EQ(a.max_line_wear, b.max_line_wear);
  EXPECT_EQ(a.mean_line_wear, b.mean_line_wear);
  EXPECT_EQ(a.lifetime_years, b.lifetime_years);
  EXPECT_EQ(a.fault_injected, b.fault_injected);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.fault_demoted_writes, b.fault_demoted_writes);
  EXPECT_EQ(a.fault_remapped_rows, b.fault_remapped_rows);
  EXPECT_EQ(a.fault_dead_rows, b.fault_dead_rows);
  EXPECT_EQ(a.fault_read_disturbs, b.fault_read_disturbs);
}

// 64-bit FNV-1a over every field expect_identical() compares, in the order
// it compares them. Doubles fold in by bit pattern; strings by length and
// bytes, so adjacent names cannot run together.
class ResultDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const LatencyStats& l) {
    add(l.count());
    add(static_cast<std::uint64_t>(l.min()));
    add(static_cast<std::uint64_t>(l.max()));
    add(l.sum());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t result_digest(const SimResult& r) {
  ResultDigest d;
  d.add(r.arch_name);
  d.add(static_cast<std::uint64_t>(r.end_time));
  d.add(r.injected_reads);
  d.add(r.injected_writes);
  d.add(r.deferred_injections);
  d.add(r.refresh_commands);
  d.add(r.refresh_rows);
  d.add(r.stats.demand_read_latency);
  d.add(r.stats.demand_write_latency);
  d.add(r.stats.internal_write_latency);
  for (std::size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
    d.add(r.stats.read_latency_hist.bucket(i));
    d.add(r.stats.write_latency_hist.bucket(i));
  }
  for (const auto& [name, v] : r.stats.counters.all()) {
    d.add(name);
    d.add(v);
  }
  for (const auto& [name, m] : r.metrics.all()) {
    d.add(name);
    d.add(static_cast<std::uint64_t>(m.kind));
    d.add(m.count);
    d.add(m.value);
  }
  for (const SimResult::BankUtilization& b : r.banks) {
    d.add(static_cast<std::uint64_t>(b.busy_time));
    d.add(b.ops);
    d.add(b.row_hits);
    d.add(b.pauses);
    d.add(static_cast<std::uint64_t>(b.cache));
  }
  d.add(r.capacity_overhead);
  d.add(r.energy_read_pj);
  d.add(r.energy_write_pj);
  d.add(r.energy_refresh_pj);
  d.add(r.max_line_wear);
  d.add(r.mean_line_wear);
  d.add(r.lifetime_years);
  d.add(r.fault_injected);
  d.add(r.fault_retries);
  d.add(r.fault_demoted_writes);
  d.add(r.fault_remapped_rows);
  d.add(r.fault_dead_rows);
  d.add(r.fault_read_disturbs);
  return d.value();
}

}  // namespace wompcm
