#include "sim/run.h"

#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "sim/parallel_sweep.h"
#include "sim/sharded.h"
#include "trace/binary_source.h"
#include "trace/synthetic.h"

namespace wompcm {

unsigned ParallelPolicy::resolved_jobs() const {
  return jobs == 0 ? ThreadPool::hardware_workers() : jobs;
}

TraceSpec TraceSpec::benchmark(std::string name, std::uint64_t accesses) {
  TraceSpec s;
  s.kind_ = Kind::kBenchmark;
  s.name_ = std::move(name);
  s.accesses_ = accesses;
  return s;
}

TraceSpec TraceSpec::profile(WorkloadProfile p, std::uint64_t accesses) {
  TraceSpec s;
  s.kind_ = Kind::kProfile;
  s.name_ = p.name;
  s.profile_ = std::move(p);
  s.accesses_ = accesses;
  return s;
}

TraceSpec TraceSpec::file(std::string path) {
  TraceSpec s;
  s.kind_ = Kind::kFile;
  s.name_ = std::move(path);
  return s;
}

std::uint64_t TraceSpec::mixed_seed(std::uint64_t seed) const {
  if (kind_ == Kind::kFile) return seed;
  // FNV-style mix of the benchmark name, so different benchmarks draw
  // different streams even with the same base seed.
  std::uint64_t s = seed;
  for (const char c : name_) {
    s = s * 1099511628211ull + static_cast<unsigned char>(c);
  }
  return s;
}

std::unique_ptr<TraceSource> TraceSpec::open(const MemoryGeometry& geom,
                                             std::uint64_t seed) const {
  switch (kind_) {
    case Kind::kProfile:
      return std::make_unique<SyntheticTraceSource>(*profile_, geom,
                                                    mixed_seed(seed),
                                                    accesses_);
    case Kind::kBenchmark: {
      const std::optional<WorkloadProfile> p = find_profile(name_);
      if (!p.has_value()) {
        throw std::invalid_argument("run: unknown benchmark \"" + name_ +
                                    "\" (see trace/profiles.h)");
      }
      return std::make_unique<SyntheticTraceSource>(*p, geom, mixed_seed(seed),
                                                    accesses_);
    }
    case Kind::kFile:
      // Format-dispatching: binary traces get the zero-copy mmap reader,
      // text traces the buffered parser (trace/binary_source.h).
      return open_trace(name_);
  }
  throw std::invalid_argument("run: bad TraceSpec kind");
}

namespace {

// Folds the per-run option overrides into the config they override.
SimConfig resolved_config(const RunRequest& req) {
  SimConfig cfg = req.config;
  if (req.options.scan_mode.has_value()) {
    cfg.sched.scan_mode = *req.options.scan_mode;
  }
  if (req.options.warmup.has_value()) {
    cfg.warmup_accesses = *req.options.warmup;
  }
  return cfg;
}

}  // namespace

SimResult run(const RunRequest& req) {
  SimConfig cfg = resolved_config(req);
  validate_config(cfg);
  const std::uint64_t accesses = req.trace.accesses();
  if (accesses > 0) {
    if (!cfg.warmup_accesses.has_value()) {
      cfg.warmup_accesses = accesses / 5;
    }
    // The warmup budget is drawn down by reads and writes jointly (the
    // simulator skips recording for the first `warmup` transactions of
    // either kind), so a budget >= accesses would leave every latency stat
    // empty.
    if (*cfg.warmup_accesses >= accesses) {
      throw std::invalid_argument(
          "run: warmup_accesses (" + std::to_string(*cfg.warmup_accesses) +
          ") must be smaller than the trace length (" +
          std::to_string(accesses) + ")");
    }
  }
  const std::unique_ptr<TraceSource> trace =
      req.trace.open(cfg.geom, req.options.seed);
  // Serial-fallback rule (see RunOptions::jobs): shard only on an explicit
  // jobs > 1 with a multi-channel geometry; results are bit-identical.
  if (req.options.jobs.jobs > 1 && cfg.geom.channels > 1) {
    return run_single_sharded(cfg, *trace, req.options.jobs.jobs);
  }
  Simulator sim(cfg);
  return sim.run(*trace);
}

std::vector<SweepRow> run_sweep(const RunRequest& base,
                                const std::vector<ArchConfig>& archs,
                                const std::vector<WorkloadProfile>& profiles) {
  if (base.trace.kind() == TraceSpec::Kind::kFile) {
    throw std::invalid_argument(
        "run_sweep: the base trace must be synthetic (it only supplies the "
        "per-benchmark access count; the profile list names the traces)");
  }
  return ParallelSweepRunner(base.options.jobs)
      .run(resolved_config(base), archs, profiles, base.trace.accesses(),
           base.options.seed);
}

}  // namespace wompcm
