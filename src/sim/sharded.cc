#include "sim/sharded.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/event_queue.h"
#include "common/perf.h"
#include "sim/service.h"

namespace wompcm {

namespace {

inline void cpu_pause() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// Adaptive wait for the next round: spin briefly (instants are usually
// microseconds apart), then yield, then sleep with a capped backoff so an
// idle worker costs nothing while the coordinator runs inline fast-paths
// — or while a long-lived service waits for client input between steps.
// Yielding early matters on oversubscribed machines (including a
// single-core host): the peer the waiter depends on may need this very
// CPU, and a full quantum of pure spinning would serialize every round at
// scheduler-tick granularity.
void ShardedBackend::wait_for_epoch(const Barrier& bar, std::uint64_t seen) {
  unsigned spins = 0;
  std::uint32_t sleep_us = 1;
  while (bar.epoch.load(std::memory_order_acquire) == seen) {
    ++spins;
    if (spins < 128) {
      cpu_pause();
    } else if (spins < 1024) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      sleep_us = std::min<std::uint32_t>(sleep_us * 2, 100);
    }
  }
}

// The coordinator's end-of-round wait: same spin-then-yield shape, but no
// sleep backoff — workers finish a round in bounded time, and the
// coordinator is on the critical path of every round.
void ShardedBackend::wait_for_done(const Barrier& bar, unsigned workers) {
  unsigned spins = 0;
  while (bar.done.load(std::memory_order_acquire) != workers) {
    if (++spins < 128) {
      cpu_pause();
    } else {
      std::this_thread::yield();
    }
  }
}

ShardedBackend::ShardedBackend(const SimConfig& cfg, unsigned jobs) {
  const unsigned channels = cfg.geom.channels;
  if (jobs < 2 || channels < 2) {
    throw std::invalid_argument(
        "ShardedBackend: needs jobs >= 2 and channels >= 2 (callers fall "
        "back to the serial path otherwise)");
  }
  executors_ = std::min(jobs, channels);
  dispatch_all_ = cfg.sched.scan_mode == ScanMode::kReference;

  // Build the lanes: per-channel replicas of the architecture, each wired
  // to a controller scoped to exactly that channel. Lane c's replica sees
  // only channel c's accesses, and every stochastic or order-sensitive
  // accounting stream is keyed per channel, so the union of the lanes'
  // books equals the one shared instance the serial backend keeps.
  lanes_.reserve(channels);
  for (unsigned c = 0; c < channels; ++c) {
    auto lane = std::make_unique<Lane>();
    lane->arch = make_architecture(cfg.arch, cfg.geom, cfg.timing, cfg.fault);
    ControllerConfig ccfg;
    ccfg.geom = cfg.geom;
    ccfg.timing = cfg.timing;
    ccfg.sched = cfg.sched;
    ccfg.refresh = cfg.refresh;
    ccfg.row_policy = cfg.row_policy;
    ccfg.channel = c;
    ccfg.queue_capacity = cfg.queue_capacity;
    ccfg.read_forwarding = cfg.read_forwarding;
    ccfg.tier = cfg.tier;
    lane->ctl =
        std::make_unique<MemoryController>(ccfg, *lane->arch, lane->stats);
    lanes_.push_back(std::move(lane));
  }
  arch_name_ = lanes_[0]->arch->name();

  // Lane c belongs to executor c % executors; the coordinator (the thread
  // calling tick() and run_window()) is executor 0, workers are
  // 1..executors-1.
  const unsigned workers = executors_ - 1;
  pool_ = std::make_unique<ThreadPool>(workers);
  worker_codec_.reserve(workers);
  worker_error_.resize(workers);
  for (unsigned w = 1; w <= workers; ++w) {
    worker_codec_.push_back(pool_->submit([this, w, channels]() {
      // Report the codec time this worker's shards accumulate (it lands in
      // the pool thread's thread-local counter, invisible to the caller).
      const std::uint64_t codec_start = perf::codec_ns();
      std::uint64_t seen = 0;
      for (;;) {
        wait_for_epoch(bar_, seen);
        ++seen;
        if (round_.stop) break;
        try {
          for (unsigned c = w; c < channels; c += executors_) run_lane(c);
        } catch (...) {
          worker_error_[w - 1] = std::current_exception();
        }
        bar_.done.fetch_add(1, std::memory_order_release);
      }
      return perf::codec_ns() - codec_start;
    }));
  }
}

ShardedBackend::~ShardedBackend() { retire_workers(); }

void ShardedBackend::retire_workers() {
  if (retired_) return;
  retired_ = true;
  round_.stop = true;
  start_round();
  for (auto& f : worker_codec_) worker_codec_ns_ += f.get();
  pool_.reset();
}

void ShardedBackend::start_round() {
  bar_.done.store(0, std::memory_order_relaxed);
  bar_.epoch.fetch_add(1, std::memory_order_release);
}

void ShardedBackend::run_round() {
  start_round();
  std::exception_ptr error;
  try {
    for (unsigned c = 0; c < num_channels(); c += executors_) run_lane(c);
  } catch (...) {
    error = std::current_exception();
  }
  wait_for_done(bar_, executors_ - 1);
  for (std::exception_ptr& e : worker_error_) {
    if (error == nullptr) error = e;
    e = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ShardedBackend::run_lane(unsigned c) {
  Lane& lane = *lanes_[c];
  if (round_.window) {
    const std::vector<Transaction>& mine = (*round_.arrivals)[c];
    lane.last = lane.ctl->run_window(mine.data(), mine.size(), round_.from,
                                     round_.until);
  } else if (dispatch_all_ || lane.ctl->pending_event() <= round_.now) {
    lane.ctl->tick(round_.now);
  }
}

bool ShardedBackend::can_accept(const DecodedAddr& dec) const {
  return lanes_[dec.channel]->ctl->can_accept();
}

unsigned ShardedBackend::free_slots(unsigned channel) const {
  return lanes_[channel]->ctl->free_slots();
}

void ShardedBackend::enqueue(const Transaction& tx) {
  lanes_[tx.dec.channel]->ctl->enqueue(tx);
}

Tick ShardedBackend::next_event_after(Tick now) {
  Tick t = kNeverTick;
  for (const auto& lane : lanes_) {
    t = earliest(t, lane->ctl->next_event_after(now));
  }
  return t;
}

bool ShardedBackend::drained() const {
  for (const auto& lane : lanes_) {
    if (!lane->ctl->drained()) return false;
  }
  return true;
}

Tick ShardedBackend::last_completion() const {
  Tick t = 0;
  for (const auto& lane : lanes_) {
    t = std::max(t, lane->ctl->last_completion());
  }
  return t;
}

void ShardedBackend::tick(Tick now) {
  // Step the shards due at `now`. Most boundary instants wake a single
  // channel: step it inline and skip the gang round entirely (safe — every
  // prior worker write to the lane is ordered before the coordinator's
  // last `done` acquire, and this write before the next epoch release).
  const unsigned channels = num_channels();
  unsigned due = 0;
  unsigned only_due = 0;
  for (unsigned c = 0; c < channels; ++c) {
    if (dispatch_all_ || lanes_[c]->ctl->pending_event() <= now) {
      ++due;
      only_due = c;
    }
  }
  if (due == 0) return;
  if (due == 1) {
    lanes_[only_due]->ctl->tick(now);
    return;
  }
  round_.window = false;
  round_.now = now;
  run_round();
}

Tick ShardedBackend::run_window(
    const std::vector<std::vector<Transaction>>& arrivals, Tick from,
    Tick until) {
  // With one busy lane (an arrival or an event before `until`), run it
  // inline — the others would sit the window out untouched — by the same
  // handoff argument as tick(); otherwise one gang round runs them all.
  const unsigned channels = num_channels();
  unsigned busy = 0;
  unsigned only_busy = 0;
  for (unsigned c = 0; c < channels; ++c) {
    if (!arrivals[c].empty() ||
        lanes_[c]->ctl->next_event_after(from) < until) {
      ++busy;
      only_busy = c;
    }
  }
  if (busy == 1) {
    const std::vector<Transaction>& mine = arrivals[only_busy];
    return lanes_[only_busy]->ctl->run_window(mine.data(), mine.size(), from,
                                              until);
  }
  round_.window = true;
  round_.from = from;
  round_.until = until;
  round_.arrivals = &arrivals;
  run_round();
  Tick last = from;
  for (const auto& lane : lanes_) last = std::max(last, lane->last);
  return last;
}

void ShardedBackend::fold_stream(std::uint32_t stream,
                                 SimStats::StreamSlice& into) const {
  if (stream == 0) return;
  for (const auto& lane : lanes_) {
    if (stream <= lane->stats.streams.size()) {
      into.merge(lane->stats.streams[stream - 1]);
    }
  }
}

void ShardedBackend::finish(MetricsRegistry& reg, SimResult& result) {
  // Retire the workers first: after this the lanes are exclusively ours.
  retire_workers();

  // Fold the lanes back, in channel order, into the books the serial
  // backend keeps: publish the same registry entries, merge the
  // architecture replicas into replica 0, and merge the per-lane stats
  // sinks.
  const unsigned channels = num_channels();
  reg.set_counter("sim.end_time", last_completion());
  for (const auto& lane : lanes_) lane->ctl->publish_metrics(reg);
  for (unsigned c = 1; c < channels; ++c) {
    lanes_[0]->arch->merge_accounting_from(*lanes_[c]->arch);
  }
  lanes_[0]->arch->publish_metrics(reg, last_completion());

  for (const auto& lane : lanes_) result.stats.merge_from(lane->stats);
  result.stats.counters.merge(lanes_[0]->arch->counters());

  const Architecture& arch0 = *lanes_[0]->arch;
  result.banks.reserve(arch0.num_resources());
  for (unsigned r = 0; r < arch0.num_resources(); ++r) {
    const Bank& b = lanes_[arch0.resource_channel(r)]->ctl->bank(r);
    result.banks.push_back(SimResult::BankUtilization{
        b.busy_time(), b.ops(), b.row_hits(), b.pauses(),
        arch0.is_cache_resource(r)});
  }
}

SimResult run_single_sharded(const SimConfig& cfg, TraceSource& trace,
                             unsigned jobs) {
  if (jobs < 2 || cfg.geom.channels < 2) {
    throw std::invalid_argument(
        "run_single_sharded: needs jobs >= 2 and channels >= 2 (callers "
        "fall back to the serial path otherwise)");
  }
  ServiceOptions opts;
  opts.jobs = jobs;
  SimService service(cfg, opts);
  return service.run_to_completion(trace);
}

}  // namespace wompcm
