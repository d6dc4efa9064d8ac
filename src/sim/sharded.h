// Sharded single-run execution: one worker thread per channel group.
//
// ShardedBackend executes one trace-driven run with each channel's
// controller stepped on its own executor. Channels share no state: they
// interact only through the driving loop (SimService, sim/service.h),
// which stays serial — clock advance, merge, id assignment and back-
// pressure all happen on the calling thread, in merge order. The loop
// hands the backend work in two shapes:
//
//   - run_window(arrivals, from, until): a conservative lookahead window.
//     The service has proven that no queue can fill before `until` and
//     that no record can still arrive there, and hands over every arrival
//     in the window up front, split per channel. Each lane then runs alone
//     through all of its own instants — arrivals and controller events —
//     with no barrier between them: one gang round per window.
//   - tick(now): a boundary instant the service runs one at a time
//     (a deferred head, an emptied session, the drain). A single due
//     channel steps inline; two or more meet at one gang round.
//
// A lane's state changes only at its own arrivals and events, so running
// it alone through a window performs exactly the serial loop's sequence
// of enqueues and ticks on it. Each lane owns a private MemoryController,
// Architecture replica, and SimStats sink, and every cross-channel
// accounting stream (energy buckets, fault event draws, Flip-N-Write RNGs)
// is keyed per channel, so folding the lanes back in channel order at
// finish() reproduces the serial books bit for bit. See DESIGN.md §10
// "Sharded execution & lookahead windows" for the full argument.
//
// Synchronization is a gang round over two atomics (round epoch, done
// count): the coordinator writes the round's fields, then bumps the epoch
// (release); each worker acquires it, runs its lanes, writes each lane's
// last instant, then bumps `done` (release); the coordinator acquires the
// full count. Every lane-state handoff rides one of those edges, so the
// backend is clean under TSan. The workers persist across rounds — a
// long-lived service steps the same gang for its whole lifetime — and are
// retired by finish() (or the destructor, if a run is abandoned).
//
// Callers gate on shards(cfg, jobs) (sim/backend.h); with a single channel
// there is nothing to shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "controller/controller.h"
#include "sim/backend.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace wompcm {

class ShardedBackend final : public SimBackend {
 public:
  // Spins up min(jobs, cfg.geom.channels) executors (this thread plus
  // jobs - 1 pool workers). Requires jobs >= 2 and cfg.geom.channels >= 2.
  ShardedBackend(const SimConfig& cfg, unsigned jobs);
  ~ShardedBackend() override;

  const std::string& arch_name() const override { return arch_name_; }
  unsigned num_channels() const override {
    return static_cast<unsigned>(lanes_.size());
  }

  bool can_accept(const DecodedAddr& dec) const override;
  unsigned free_slots(unsigned channel) const override;
  void enqueue(const Transaction& tx) override;
  Tick next_event_after(Tick now) override;
  void tick(Tick now) override;
  Tick run_window(const std::vector<std::vector<Transaction>>& arrivals,
                  Tick from, Tick until) override;
  bool drained() const override;
  Tick last_completion() const override;

  void fold_stream(std::uint32_t stream,
                   SimStats::StreamSlice& into) const override;

  void finish(MetricsRegistry& reg, SimResult& result) override;
  std::uint64_t worker_codec_ns() const override { return worker_codec_ns_; }

 private:
  // One channel's shard: a private controller, architecture replica, and
  // stats sink. Replica c only ever services channel c, so the lanes share
  // no mutable state — the gang round below is the only synchronization.
  struct Lane {
    std::unique_ptr<Architecture> arch;
    SimStats stats;
    std::unique_ptr<MemoryController> ctl;
    Tick last = 0;  // last instant of the latest window round
  };

  // What a gang round does. Plain fields: the coordinator writes them
  // before the epoch release and workers read them after the acquire.
  struct Round {
    bool window = false;
    bool stop = false;
    Tick now = 0;    // tick round: the instant
    Tick from = 0;   // window round: (from, until) and its arrivals
    Tick until = 0;
    const std::vector<std::vector<Transaction>>* arrivals = nullptr;
  };

  // The gang barrier. A round is: coordinator writes round_ and bumps
  // `epoch` (release); each worker
  // acquires the bump, runs its lanes, and bumps `done` (release); the
  // coordinator spins on `done` (acquire). Those two edges carry every
  // lane-state handoff: anything an executor wrote to a lane before its
  // release is visible to whichever executor touches that lane after the
  // matching acquire — which is also why the coordinator may step a
  // worker-owned lane inline between rounds, and why the service may read
  // lane stats between steps.
  struct Barrier {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<unsigned> done{0};
  };

  static void wait_for_epoch(const Barrier& bar, std::uint64_t seen);
  static void wait_for_done(const Barrier& bar, unsigned workers);
  // Publishes round_ to the workers and starts the round.
  void start_round();
  // Runs one gang round over every lane and waits for it to finish. An
  // exception a lane throws (on any executor) is rethrown here once the
  // round is over, so no worker still runs against the caller's state.
  void run_round();
  // Runs lane c's share of the current round.
  void run_lane(unsigned c);
  void retire_workers();

  std::string arch_name_;
  bool dispatch_all_ = false;  // reference scan mode ticks every channel
  unsigned executors_ = 0;     // coordinator + workers
  std::vector<std::unique_ptr<Lane>> lanes_;
  Round round_;
  Barrier bar_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<std::uint64_t>> worker_codec_;
  std::vector<std::exception_ptr> worker_error_;  // per worker, last round
  std::uint64_t worker_codec_ns_ = 0;
  bool retired_ = false;
};

// Runs `trace` against `cfg` with min(jobs, cfg.geom.channels) executors:
// a batch SimService run over a ShardedBackend. Results are bit-identical
// to Simulator(cfg).run(trace) under every scan mode, composition, and
// fault seed. Requires jobs >= 2 and cfg.geom.channels >= 2.
SimResult run_single_sharded(const SimConfig& cfg, TraceSource& trace,
                             unsigned jobs);

}  // namespace wompcm
