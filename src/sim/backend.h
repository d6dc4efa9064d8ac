// Execution backends for the simulation service.
//
// A SimBackend is the event-stepped memory system behind one SimService
// (sim/service.h): it accepts demand transactions, answers back-pressure
// and next-event queries, and is driven by the service's deterministic
// event loop in one of two ways:
//
//  - tick(now): one simulated instant, every channel with work due;
//  - run_window(arrivals, from, until): a conservative lookahead window,
//    every channel alone through all of its own instants in (from,
//    until), given the window's arrivals up front (DESIGN.md §10).
//
// Two implementations exist:
//
//  - SerialBackend (backend.cc): one MemorySystem stepped inline — the
//    exact substrate of the original serial Simulator loop. Its
//    run_window() runs the channels one after another, but the service
//    drives it instant by instant: windows pay only for concurrent lanes.
//  - ShardedBackend (sharded.h): per-channel controller lanes stepped by a
//    gang of worker threads, one barrier round per window (or per
//    boundary instant that wakes two or more channels).
//
// Both produce bit-identical results under every scan mode, composition,
// and fault seed; shards() is the serial-fallback rule (shard only for an
// explicit jobs > 1 on a multi-channel geometry).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/address.h"
#include "controller/transaction.h"
#include "stats/metrics.h"
#include "stats/stats.h"

namespace wompcm {

struct SimConfig;
struct SimResult;

class SimBackend {
 public:
  virtual ~SimBackend() = default;

  virtual const std::string& arch_name() const = 0;
  virtual unsigned num_channels() const = 0;

  // Frontend back-pressure for the channel this address decodes to.
  virtual bool can_accept(const DecodedAddr& dec) const = 0;
  // Demand transactions `channel` takes before can_accept() turns false
  // (MemoryController::free_slots()).
  virtual unsigned free_slots(unsigned channel) const = 0;
  // Routes a demand transaction to its channel. tx.arrival must not
  // precede the latest tick.
  virtual void enqueue(const Transaction& tx) = 0;
  // Earliest future instant any channel could make progress (kNeverTick
  // when the whole system is quiescent).
  virtual Tick next_event_after(Tick now) = 0;
  // Performs all work available at `now` (monotone across calls).
  virtual void tick(Tick now) = 0;
  // Runs every channel through each of its own instants in (from, until),
  // enqueueing arrivals[c] (channel c's, ids assigned, in merge order) at
  // their arrival instants. `from` is the last instant the loop ran, fully
  // ticked; the caller guarantees that every arrival lies in (from, until)
  // and that arrivals[c] fits in free_slots(c). Returns the last instant
  // any channel ran (`from` if none): the system loop's clock at the
  // window's end.
  virtual Tick run_window(const std::vector<std::vector<Transaction>>& arrivals,
                          Tick from, Tick until) = 0;
  virtual bool drained() const = 0;
  virtual Tick last_completion() const = 0;

  // Folds the recorded per-stream slice for `stream` (a nonzero
  // Transaction::stream tag) into `into`, across every lane. Only valid
  // between ticks and windows — the service calls it from poll(), when any
  // workers wait for the next round.
  virtual void fold_stream(std::uint32_t stream,
                           SimStats::StreamSlice& into) const = 0;

  // End of run: stops any workers, publishes every layer's end-of-run
  // scalars into `reg` (including "sim.end_time"), and fills
  // `result.stats` and `result.banks`. The driver keeps ownership of the
  // injection counters and of result.collect().
  virtual void finish(MetricsRegistry& reg, SimResult& result) = 0;

  // Codec nanoseconds accumulated on worker threads; valid after finish()
  // (zero for the serial backend, whose codec time lands in the calling
  // thread's counter).
  virtual std::uint64_t worker_codec_ns() const { return 0; }
};

// Serial-fallback rule (see RunOptions::jobs): sharded only when jobs > 1
// AND cfg.geom.channels > 1; jobs <= 1 or a one-channel geometry take the
// exact serial path.
bool shards(const SimConfig& cfg, unsigned jobs);

// Builds the backend for `cfg`: a ShardedBackend when shards(cfg, jobs),
// the SerialBackend otherwise.
std::unique_ptr<SimBackend> make_backend(const SimConfig& cfg, unsigned jobs);

}  // namespace wompcm
