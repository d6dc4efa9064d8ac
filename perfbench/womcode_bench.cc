// womcode_bench: the repository benchmark program.
//
//   womcode_bench --workload paper-single|codes-sweep|serve-4ch --seed N
//                 --seconds S --trace 0|1 [--root DIR] [--scale full|tiny]
//                 [--spans-out FILE] [--perturb repeat|jobs|traced|offered]
//                 [--leave-open]
//
// Everything goes through the public surface in src/womcode.h; each layer
// is timed from outside, around the calls into it. --trace 0 measures the
// end-to-end metrics (no spans recorded); --trace 1 is the separate traced
// run that gives the per-layer metrics and reports its own overhead
// against an untraced run of the same work. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md
// in this directory for the workloads, the metric -> layer -> workload map
// and how to read the traced run.
//
// --perturb and --leave-open exist for the benchmark's own tests: the
// first corrupts one result just before the named gate compares it (the
// gate must then fail the run), the second makes the serve client leave
// finished sessions open (the progress watchdog must then fail the run).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "womcode.h"

namespace {

using namespace wompcm;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  bool tiny = false;
  std::string spans_out;
  std::string perturb;
  bool leave_open = false;
};

// Work per unit. "full" is what the benchmark measures; "tiny" keeps the
// benchmark's own tests fast and exercises every code path.
struct Sizes {
  std::uint64_t single_accesses;  // paper-single: one run()
  std::uint64_t cell_accesses;    // codes-sweep: per (arch, profile) cell
  std::uint64_t stream_records;   // serve-4ch: per session
  std::size_t rs23_lines;         // codec microbench, lines per sample
  std::size_t polar_lines;
};

constexpr Sizes kFull{1'000'000, 250'000, 500'000, 20'000, 200};
constexpr Sizes kTiny{20'000, 5'000, 5'000, 2'000, 20};

// Records per submit() in the serve-4ch closed loop.
constexpr std::size_t kChunk = 256;
// serve-4ch's shards (SimService jobs). The sharded backend meets at a
// barrier every round, so one descheduled thread stalls them all: on a
// shared host, shards on every core measure the scheduler.
constexpr unsigned kServeJobs = 2;
// Set-ups are spread over the whole run: a batch before every timed
// repeat, worth kSetupShare of the last repeat's wall time (at least one,
// at most kMaxSetupBatch). setup_s is their 10th percentile: on a shared
// host set-ups run in fast and slow windows, and how the median falls
// between them changes from run to run while the fast windows' level
// does not. The traced run does kTracedSetups.
constexpr double kSetupShare = 0.25;
constexpr std::size_t kMaxSetupBatch = 100;
constexpr std::size_t kTracedSetups = 5;

unsigned bench_jobs() {
  return std::min(4u, ParallelPolicy::automatic().resolved_jobs());
}

// ------------------------------------------------------------------ clock

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point kEpoch = SteadyClock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - kEpoch)
      .count();
}

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sample set.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

// ---------------------------------------------------------------- tracing
//
// Spans are held in memory, one buffer per thread, and written when the
// run ends. A null Tracer* makes every Span a no-op, so the traced and
// untraced runs share one code path.

struct SpanRec {
  const char* name;
  std::int32_t parent;  // index in the same buffer; -1 for a root
  std::uint64_t req;    // request id: chunk, cell or round
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t items;  // records handled inside the span
};

struct Tracer {
  std::vector<SpanRec> spans;
  std::int32_t open = -1;
};

class Span {
 public:
  static constexpr std::uint64_t kInherit = ~0ull;

  Span(Tracer* t, const char* name, std::uint64_t req = kInherit) : t_(t) {
    if (t_ == nullptr) return;
    if (req == kInherit) req = t_->open >= 0 ? t_->spans[t_->open].req : 0;
    idx_ = static_cast<std::int32_t>(t_->spans.size());
    t_->spans.push_back(SpanRec{name, t_->open, req, now_ns(), 0, 0});
    t_->open = idx_;
  }
  ~Span() {
    if (t_ == nullptr) return;
    t_->spans[idx_].end_ns = now_ns();
    t_->open = t_->spans[idx_].parent;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void items(std::uint64_t n) {
    if (t_ != nullptr) t_->spans[idx_].items += n;
  }

 private:
  Tracer* t_;
  std::int32_t idx_ = -1;
};

struct LayerAgg {
  std::uint64_t count = 0;
  std::uint64_t items = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;  // total minus the time its child spans cover
};

using LayerTable = std::map<std::string, LayerAgg>;

void aggregate(const Tracer& t, LayerTable& table) {
  std::vector<double> child_ns(t.spans.size(), 0.0);
  for (const SpanRec& s : t.spans) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRec& s = t.spans[i];
    LayerAgg& a = table[s.name];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    ++a.count;
    a.items += s.items;
    a.total_ns += d;
    a.self_ns += d - child_ns[i];
  }
}

// One JSON object per span; "buffer" numbers the tracers (one thread
// each), and "id"/"parent" index spans within a buffer.
void write_spans(const std::string& path, const std::vector<Tracer>& ts) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  for (std::size_t b = 0; b < ts.size(); ++b) {
    for (std::size_t i = 0; i < ts[b].spans.size(); ++i) {
      const SpanRec& s = ts[b].spans[i];
      out << "{\"buffer\": " << b << ", \"id\": " << i
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"req\": " << s.req << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"items\": " << s.items
          << "}\n";
    }
  }
}

// ------------------------------------------------------------------ gates

// Fields compared by bench::same_result, folded into one FNV-1a value so
// a run can print what it computed.
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  void add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_str(const std::string& s) {
    add_u64(s.size());
    for (const char c : s) {
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  void add(const SimResult& r) {
    add_str(r.arch_name);
    add_u64(r.end_time);
    add_u64(r.injected_reads);
    add_u64(r.injected_writes);
    add_u64(r.deferred_injections);
    add_u64(r.refresh_commands);
    add_u64(r.refresh_rows);
    for (const LatencyStats* l :
         {&r.stats.demand_read_latency, &r.stats.demand_write_latency}) {
      add_u64(l->count());
      add_f64(l->sum());
      add_u64(l->min());
      add_u64(l->max());
    }
    for (const auto& [name, v] : r.stats.counters.all()) {
      add_str(name);
      add_u64(v);
    }
    add_f64(r.energy_read_pj);
    add_f64(r.energy_write_pj);
    add_f64(r.energy_refresh_pj);
    add_f64(r.max_line_wear);
    add_f64(r.mean_line_wear);
    add_f64(r.lifetime_years);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t digest_of(const std::vector<SimResult>& rs) {
  Digest d;
  for (const SimResult& r : rs) d.add(r);
  return d.value();
}

// Failure accounting: every access a unit offers counts in `attempted`;
// every access of a unit that fails a gate counts in `failed`.
class Gate {
 public:
  explicit Gate(std::string perturb) : perturb_(std::move(perturb)) {}

  void offer(std::uint64_t accesses) { attempted_ += accesses; }

  void fail(std::uint64_t accesses, const std::string& why) {
    failed_ += accesses;
    errors_.push_back(why);
  }

  // Gate `gate`: `got` must equal `ref` in every deterministic field.
  bool same(const char* gate, const SimResult& ref, SimResult got,
            std::uint64_t accesses, const std::string& what) {
    if (perturb_ == gate) got.end_time += 1;
    std::string field;
    if (bench::same_result(ref, got, &field)) return true;
    fail(accesses, std::string(gate) + ": " + what + " differs in " + field);
    return false;
  }

  // Injected reads + writes must equal the records offered.
  bool offered(const SimResult& r, std::uint64_t offered,
               const std::string& what) {
    if (perturb_ == "offered") ++offered;
    const std::uint64_t injected = r.injected_reads + r.injected_writes;
    if (injected == offered) return true;
    fail(offered, "offered: " + what + " injected " +
                      std::to_string(injected) + " of " +
                      std::to_string(offered) + " records");
    return false;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  bool ok() const { return failed_ == 0 && errors_.empty(); }

 private:
  std::string perturb_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// ----------------------------------------------------------------- report

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  // free-form report lines
  std::uint64_t digest = 0;

  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  void line(std::string s) { lines.push_back(std::move(s)); }
};

std::string fmt(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_ratio(double num, double den) {
  return den > 0.0 ? fmt(num / den) : "0";
}

// --------------------------------------------------------------- configs

SimConfig load_cfg(const Options& o, const char* file) {
  return load_config_file(paper_config(), o.root + "/configs/" + file);
}

SimConfig with_overrides(const SimConfig& base,
                         const std::vector<std::string>& tokens) {
  return apply_overrides(base, KeyValueConfig::from_tokens(tokens));
}

WorkloadProfile profile(const std::string& name) {
  const std::optional<WorkloadProfile> p = find_profile(name);
  if (!p.has_value()) throw std::invalid_argument("no profile " + name);
  return *p;
}

// ---------------------------------------------------------- client loops

// What a client loop saw at the service boundary.
struct ServiceBooks {
  std::uint64_t offered = 0;   // records passed to submit()
  std::uint64_t accepted = 0;  // records submit() took
  std::uint64_t steps = 0;
  std::uint64_t starved = 0;   // steps that stopped for lack of input

  void merge(const ServiceBooks& o) {
    offered += o.offered;
    accepted += o.accepted;
    steps += o.steps;
    starved += o.starved;
  }
};

// Drives one trace through SimService the way run() does (one untagged
// session, warmup resolved to accesses/5, injection_block-record chunks)
// with a span around every call, so the traced run sees each layer. The
// result must equal run()'s for the same config, trace and seed.
SimResult drive_single(const SimConfig& base, const TraceSpec& spec,
                       std::uint64_t seed, Tracer* tr, ServiceBooks& books) {
  SimConfig cfg = base;
  if (!cfg.warmup_accesses.has_value()) {
    cfg.warmup_accesses = spec.accesses() / 5;
  }
  const std::unique_ptr<TraceSource> src = spec.open(cfg.geom, seed);
  std::unique_ptr<SimService> svc;
  SessionId sid = 0;
  {
    Span s(tr, "setup.service");
    svc = std::make_unique<SimService>(cfg);
    StreamSpec ss;
    ss.name = spec.name();
    ss.per_access_stats = false;
    sid = svc->open_session(std::move(ss));
  }
  // run()'s own block size, so the traced run differs from it only by
  // the spans.
  std::vector<TraceRecord> buf(std::max(1u, cfg.injection_block));
  for (std::uint64_t chunk = 0;; ++chunk) {
    Span cs(tr, "chunk", chunk);
    std::size_t n = 0;
    {
      Span s(tr, "trace.next_block");
      n = src->next_block(buf.data(), buf.size());
      s.items(n);
    }
    if (n == 0) break;
    std::size_t at = 0;
    while (at < n) {
      {
        Span s(tr, "service.submit");
        const std::size_t took =
            svc->submit(sid, buf.data() + at, n - at).accepted;
        s.items(took);
        books.offered += n - at;
        books.accepted += took;
        at += took;
      }
      Span s(tr, "service.step");
      const StepResult st = svc->step();
      s.items(st.injected);
      ++books.steps;
      books.starved += st.starved ? 1 : 0;
    }
    Span s(tr, "service.poll");
    (void)svc->poll(sid);
  }
  svc->close_session(sid);
  Span s(tr, "service.drain");
  return svc->drain();
}

// One unit of a workload's work, as the gates and the report see it.
struct Unit {
  std::vector<SimResult> results;  // one per cell (one for single runs)
  double wall_s = 0.0;             // timed part
  std::uint64_t accesses = 0;      // offered
  std::vector<double> round_us;    // host time per client round
  ServiceBooks books;
  std::string error;               // offered/watchdog failure
};

using Streams = std::vector<std::vector<TraceRecord>>;

// The serve-4ch client: a closed loop over live sessions. Each round
// submits one kChunk-record chunk per open session (a bounced tail is
// resubmitted next round), closes a session in the round its last record
// is accepted, then calls step() once and poll() once per session. A
// progress watchdog fails the run when a round accepts no record and
// step() injects nothing — e.g. a client that leaves a finished (dry)
// session open, which blocks sealing forever.
Unit closed_loop(const SimConfig& cfg, unsigned jobs, const Streams& streams,
                 const std::vector<std::string>& names, Tracer* tr,
                 bool leave_open) {
  Unit out;
  const std::size_t k = streams.size();
  for (const std::vector<TraceRecord>& recs : streams) {
    out.accesses += recs.size();
  }
  std::unique_ptr<SimService> svc;
  std::vector<SessionId> ids(k);
  {
    Span s(tr, "setup.service");
    ServiceOptions so;
    so.jobs = jobs;
    svc = std::make_unique<SimService>(cfg, so);
    for (std::size_t i = 0; i < k; ++i) {
      StreamSpec ss;
      ss.name = names[i];
      ids[i] = svc->open_session(std::move(ss));
    }
  }
  std::vector<std::size_t> pos(k, 0);
  std::vector<bool> open(k, true);
  std::size_t open_count = k;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t round = 0; open_count > 0; ++round) {
    Span rs(tr, "round", round);
    const std::int64_t r0 = now_ns();
    std::uint64_t accepted = 0;
    const std::vector<bool> polled = open;
    for (std::size_t i = 0; i < k; ++i) {
      if (!open[i]) continue;
      const std::size_t left = streams[i].size() - pos[i];
      if (left > 0) {
        Span s(tr, "service.submit");
        const std::size_t n = std::min(kChunk, left);
        const std::size_t took =
            svc->submit(ids[i], streams[i].data() + pos[i], n).accepted;
        s.items(took);
        out.books.offered += n;
        out.books.accepted += took;
        pos[i] += took;
        accepted += took;
      }
      if (pos[i] == streams[i].size() && !leave_open) {
        svc->close_session(ids[i]);
        open[i] = false;
        --open_count;
      }
    }
    StepResult st;
    {
      Span s(tr, "service.step");
      st = svc->step();
      s.items(st.injected);
    }
    ++out.books.steps;
    out.books.starved += st.starved ? 1 : 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!polled[i]) continue;
      Span s(tr, "service.poll");
      (void)svc->poll(ids[i]);
    }
    out.round_us.push_back((now_ns() - r0) * 1e-3);
    if (accepted == 0 && st.injected == 0) {
      out.error = "watchdog: round " + std::to_string(round) +
                  " accepted no record and step() injected nothing (" +
                  std::to_string(open_count) + " sessions open)";
      return out;
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    const StreamStats st = svc->poll(ids[i]);
    if (st.submitted != streams[i].size()) {
      out.error = "offered: session " + names[i] + " submitted " +
                  std::to_string(st.submitted) + " of " +
                  std::to_string(streams[i].size()) + " records";
    }
  }
  {
    Span s(tr, "service.drain");
    out.results.push_back(svc->drain());
  }
  out.wall_s = seconds_since(t0);
  return out;
}

// ------------------------------------------------------ codec microbench

// Median ns per PageCodec::write of one 512-bit line, over a seeded data
// stream; the last line written is read back and checked.
double encode_ns_per_line(const std::string& code, std::size_t lines,
                          std::uint64_t seed, Gate& gate) {
  constexpr std::size_t kLineBits = 512;
  BlockCodecPtr block = make_block_codec(code);
  if (!block) throw std::invalid_argument("unknown code " + code);
  PageCodec page(std::move(block), kLineBits);
  std::mt19937_64 rng(seed);
  std::vector<BitVec> data(16, BitVec(kLineBits));
  for (BitVec& d : data) {
    for (std::size_t i = 0; i < kLineBits; ++i) d.set(i, (rng() & 1) != 0);
  }
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::size_t l = 0; l < lines; ++l) page.write(data[l % data.size()]);
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(lines));
    gate.offer(lines);
    if (!(page.read() == data[(lines - 1) % data.size()])) {
      gate.fail(lines, "codec: " + code + " read back differs");
    }
  }
  return median(samples);
}

// ----------------------------------------------------- result summaries

std::uint64_t counter(const SimResult& r, const char* name) {
  return r.stats.counters.get(name);
}

// Simulated-model figures over one or more results (counts pooled). The
// sweep cells' mean latencies are averaged geometrically, so each cell's
// relative change weighs the same: an arithmetic mean follows the one
// queue-bound cell whose latency swings by 2x between seeds.
struct ModelFigures {
  double read_ns = 0.0;
  double write_ns = 0.0;
  double deferred_frac = 0.0;
  double row_hit_rate = 0.0;
  double refresh_rows = 0.0;
  double max_bank_util = 0.0;
  double fast_write_frac = 0.0;
  double cache_hit_rate = 0.0;
  double trace_gen_ns_per_acc = 0.0;
  double controller_ns_per_acc = 0.0;
  double tracker_ns_per_acc = 0.0;
};

ModelFigures model_figures(const std::vector<SimResult>& rs) {
  ModelFigures f;
  double injected = 0, deferred = 0, fast = 0, alpha = 0, hits = 0,
         probes = 0;
  double trace_gen = 0, controller = 0, tracker = 0;
  for (const SimResult& r : rs) {
    f.read_ns += std::log(r.avg_read_ns());
    f.write_ns += std::log(r.avg_write_ns());
    f.row_hit_rate += r.row_hit_rate();
    f.refresh_rows += static_cast<double>(r.refresh_rows);
    f.max_bank_util = std::max(f.max_bank_util, r.max_bank_utilization());
    injected += static_cast<double>(r.injected_reads + r.injected_writes);
    deferred += static_cast<double>(r.deferred_injections);
    fast += static_cast<double>(counter(r, "writes.fast"));
    alpha += static_cast<double>(counter(r, "writes.alpha"));
    hits += static_cast<double>(counter(r, "wcpcm.read_hits") +
                                counter(r, "wcpcm.write_hits"));
    probes += static_cast<double>(
        counter(r, "wcpcm.read_hits") + counter(r, "wcpcm.write_hits") +
        counter(r, "wcpcm.read_misses") + counter(r, "wcpcm.write_misses"));
    trace_gen += static_cast<double>(r.phases.trace_gen_ns);
    controller += static_cast<double>(r.phases.controller_ns);
    tracker += static_cast<double>(r.phases.codec_ns);
  }
  const double n = static_cast<double>(std::max<std::size_t>(rs.size(), 1));
  f.read_ns = std::exp(f.read_ns / n);
  f.write_ns = std::exp(f.write_ns / n);
  f.row_hit_rate /= n;
  f.deferred_frac = injected > 0 ? deferred / injected : 0.0;
  f.fast_write_frac = fast + alpha > 0 ? fast / (fast + alpha) : 0.0;
  f.cache_hit_rate = probes > 0 ? hits / probes : 0.0;
  if (injected > 0) {
    f.trace_gen_ns_per_acc = trace_gen / injected;
    f.controller_ns_per_acc = controller / injected;
    f.tracker_ns_per_acc = tracker / injected;
  }
  return f;
}

// ------------------------------------------------------------- workloads
//
// Each workload supplies: a set-up (config load and validation, trace
// pre-generation where it has one, SimService construction plus
// open_session), a unit of work through the public entry point (run(),
// run_sweep() or the serve client), the same work driven call by call by
// the benchmark's own client so spans can sit around each call, and a
// check run at jobs=1 where a parallel path exists. The driven unit runs
// with and without tracers, so the tracing overhead is measured on one
// code path; its results must equal the entry point's.

class Workload {
 public:
  virtual ~Workload() = default;
  // Loads and validates everything the units need; returns the set-up
  // time in seconds.
  virtual double setup(Tracer* tr) = 0;
  virtual Unit run(unsigned jobs) = 0;
  // The driven unit. With tracers, spans go to (*tracers)[0] and the
  // worker tracers it adds; with nullptr every span is a no-op.
  virtual Unit drive(std::vector<Tracer>* tracers) = 0;
  // Threads the entry point runs on; above 1 the workload gets a jobs=1
  // check.
  virtual unsigned jobs() const { return 1; }
  // What a sweep cell is called in gate messages.
  virtual std::string cell_name(std::size_t) const { return "run"; }
};

Tracer* main_tracer(std::vector<Tracer>* tracers) {
  return tracers != nullptr ? &tracers->front() : nullptr;
}

class PaperSingle final : public Workload {
 public:
  PaperSingle(const Options& o, const Sizes& z) : o_(o), z_(z) {}

  double setup(Tracer* tr) override {
    Span root(tr, "setup", setup_id_++);
    const std::int64_t t0 = now_ns();
    {
      Span s(tr, "setup.config");
      cfg_ = load_cfg(o_, "paper.cfg");
    }
    Span s(tr, "setup.service");
    SimService svc(cfg_);
    (void)svc.open_session();
    return seconds_since(t0);
  }

  Unit run(unsigned) override {
    RunRequest req;
    req.config = cfg_;
    req.trace = TraceSpec::benchmark(kProfile, z_.single_accesses);
    req.options.seed = o_.seed;
    Unit u;
    u.accesses = z_.single_accesses;
    const std::int64_t t0 = now_ns();
    u.results.push_back(wompcm::run(req));
    u.wall_s = seconds_since(t0);
    u.round_us.push_back(u.wall_s * 1e6);
    return u;
  }

  Unit drive(std::vector<Tracer>* tracers) override {
    Unit u;
    u.accesses = z_.single_accesses;
    const std::int64_t t0 = now_ns();
    u.results.push_back(drive_single(
        cfg_, TraceSpec::benchmark(kProfile, z_.single_accesses), o_.seed,
        main_tracer(tracers), u.books));
    u.wall_s = seconds_since(t0);
    return u;
  }

 private:
  static constexpr const char* kProfile = "464.h264ref";
  const Options& o_;
  Sizes z_;
  SimConfig cfg_;
  std::uint64_t setup_id_ = 0;
};

class CodesSweep final : public Workload {
 public:
  CodesSweep(const Options& o, const Sizes& z) : o_(o), z_(z) {
    for (const char* p : {"464.h264ref", "470.lbm", "482.sphinx3",
                          "456.hmmer"}) {
      profiles_.push_back(profile(p));
    }
  }

  double setup(Tracer* tr) override {
    Span root(tr, "setup", setup_id_++);
    const std::int64_t t0 = now_ns();
    {
      Span s(tr, "setup.config");
      base_ = load_cfg(o_, "polar.cfg");
      const SimConfig ts = load_cfg(o_, "ts_constrained.cfg");
      // paper_config() alone carries the no-WOM baseline arch, so the rs23
      // cell names its arch explicitly (on paper.cfg: polar.cfg's main.code
      // would clash with code=rs23-inv).
      const SimConfig rs23 = with_overrides(load_cfg(o_, "paper.cfg"),
                                            {"arch=refresh", "code=rs23-inv"});
      archs_ = {base_.arch, ts.arch, rs23.arch};
    }
    for (const ArchConfig& a : archs_) {
      Span s(tr, "setup.service");
      SimConfig c = base_;
      c.arch = a;
      SimService svc(c);
      (void)svc.open_session();
    }
    return seconds_since(t0);
  }

  unsigned jobs() const override { return bench_jobs(); }

  std::string cell_name(std::size_t i) const override {
    static const char* const kArchNames[] = {"polar", "ts-constrained",
                                             "rs23"};
    return profiles_[i / archs_.size()].name + " x " +
           kArchNames[i % archs_.size()];
  }

  Unit run(unsigned jobs) override {
    RunRequest req;
    req.config = base_;
    req.trace = TraceSpec::benchmark(profiles_[0].name, z_.cell_accesses);
    req.options.seed = o_.seed;
    req.options.jobs = ParallelPolicy::with_jobs(jobs);
    Unit u;
    const std::int64_t t0 = now_ns();
    const std::vector<SweepRow> rows = run_sweep(req, archs_, profiles_);
    u.wall_s = seconds_since(t0);
    for (const SweepRow& row : rows) {
      for (const SimResult& r : row.results) u.results.push_back(r);
    }
    u.accesses = z_.cell_accesses * u.results.size();
    u.round_us.push_back(u.wall_s * 1e6);
    return u;
  }

  // The same cells on jobs() threads of the benchmark's own pool
  // (run_sweep() has no place for spans), each driven chunk by chunk
  // through SimService like a run() would be, with one tracer per thread.
  Unit drive(std::vector<Tracer>* tracers) override {
    const unsigned jobs = this->jobs();
    const std::size_t cells = archs_.size() * profiles_.size();
    if (tracers != nullptr) tracers->resize(1 + jobs);
    Unit u;
    u.results.resize(cells);
    u.accesses = z_.cell_accesses * cells;
    std::vector<ServiceBooks> books(jobs);
    std::atomic<std::size_t> next{0};
    std::vector<std::string> errors(jobs);
    const std::int64_t t0 = now_ns();
    {
      Span sweep(main_tracer(tracers), "sweep", 0);
      std::vector<std::thread> workers;
      for (unsigned w = 0; w < jobs; ++w) {
        workers.emplace_back([&, w] {
          Tracer* const tr =
              tracers != nullptr ? &(*tracers)[1 + w] : nullptr;
          try {
            for (std::size_t c = next++; c < cells; c = next++) {
              Span cs(tr, "cell", c);
              SimConfig cfg = base_;
              cfg.arch = archs_[c % archs_.size()];
              u.results[c] = drive_single(
                  cfg,
                  TraceSpec::profile(profiles_[c / archs_.size()],
                                     z_.cell_accesses),
                  o_.seed, tr, books[w]);
            }
          } catch (const std::exception& e) {
            errors[w] = e.what();
          }
        });
      }
      for (std::thread& t : workers) t.join();
    }
    u.wall_s = seconds_since(t0);
    for (const ServiceBooks& b : books) u.books.merge(b);
    for (const std::string& e : errors) {
      if (!e.empty()) throw std::runtime_error(e);
    }
    return u;
  }

 private:
  const Options& o_;
  Sizes z_;
  SimConfig base_;
  std::vector<ArchConfig> archs_;
  std::vector<WorkloadProfile> profiles_;
  std::uint64_t setup_id_ = 0;
};

class Serve4Ch final : public Workload {
 public:
  Serve4Ch(const Options& o, const Sizes& z) : o_(o), z_(z) {}

  double setup(Tracer* tr) override {
    Span root(tr, "setup", setup_id_++);
    const std::int64_t t0 = now_ns();
    {
      Span s(tr, "setup.config");
      cfg_ = with_overrides(load_cfg(o_, "paper.cfg"),
                            {"channels=4", "ranks=4"});
    }
    // The record buffers are allocated once and refilled by every set-up,
    // so repeated set-ups do not churn the heap.
    streams_.resize(profiles_.size());
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      const std::unique_ptr<TraceSource> src =
          TraceSpec::benchmark(profiles_[i], z_.stream_records)
              .open(cfg_.geom, o_.seed);
      std::vector<TraceRecord>& recs = streams_[i];
      recs.resize(z_.stream_records);
      std::size_t have = 0;
      while (have < recs.size()) {
        Span s(tr, "trace.next_block");
        const std::size_t n =
            src->next_block(recs.data() + have,
                            std::min<std::size_t>(4096, recs.size() - have));
        s.items(n);
        if (n == 0) break;
        have += n;
      }
      if (have != recs.size()) {
        throw std::runtime_error("trace " + profiles_[i] + " ended early");
      }
    }
    Span s(tr, "setup.service");
    ServiceOptions so;
    so.jobs = jobs();
    SimService svc(cfg_, so);
    for (const std::string& p : profiles_) {
      StreamSpec ss;
      ss.name = p;
      (void)svc.open_session(std::move(ss));
    }
    return seconds_since(t0);
  }

  unsigned jobs() const override {
    return std::min(kServeJobs, bench_jobs());
  }

  Unit run(unsigned jobs) override {
    return closed_loop(cfg_, jobs, streams_, profiles_, nullptr,
                       o_.leave_open);
  }

  // The serve client is already the benchmark's own loop, so run() and
  // drive() are one path.
  Unit drive(std::vector<Tracer>* tracers) override {
    return closed_loop(cfg_, jobs(), streams_, profiles_,
                       main_tracer(tracers), o_.leave_open);
  }

 private:
  const std::vector<std::string> profiles_{"464.h264ref", "470.lbm",
                                           "482.sphinx3", "456.hmmer"};
  const Options& o_;
  Sizes z_;
  SimConfig cfg_;
  Streams streams_;
  std::uint64_t setup_id_ = 0;
};

// ------------------------------------------------------------ benchmark

// Checks one unit against the offered count and (when given) a reference
// unit; returns false and books the failure when any check fails.
bool check_unit(Gate& gate, const Workload& w, const char* which,
                const Unit* ref, const Unit& u) {
  if (!u.error.empty() || u.results.empty()) {
    gate.fail(u.accesses, u.error.empty() ? "no result" : u.error);
    return false;
  }
  const std::uint64_t per = u.accesses / u.results.size();
  bool ok = true;
  for (std::size_t i = 0; i < u.results.size(); ++i) {
    ok &= gate.offered(u.results[i], per, w.cell_name(i));
  }
  if (ref == nullptr || !ok) return ok;
  if (ref->results.size() != u.results.size()) {
    gate.fail(u.accesses, std::string(which) + ": cell count differs");
    return false;
  }
  for (std::size_t i = 0; i < u.results.size(); ++i) {
    ok &= gate.same(which, ref->results[i], u.results[i], per,
                    w.cell_name(i));
  }
  return ok;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void run_untraced(const Options& o, Workload& w, Gate& gate, Report& rep) {
  std::vector<double> setups{w.setup(nullptr)};
  auto setup_batch = [&](double unit_s) {
    const std::int64_t s0 = now_ns();
    std::size_t n = 0;
    do {
      setups.push_back(w.setup(nullptr));
    } while (++n < kMaxSetupBatch &&
             seconds_since(s0) < kSetupShare * unit_s);
  };

  // A warm-up unit, outside the timed region, faults in the process's
  // memory and is the reference every timed repeat must equal. The memory
  // high-water is read right after it: set-up plus one unit in a fresh
  // process. Later repeats rebuild the simulator on other threads, and
  // how far the allocator's per-thread arenas then grow is scheduling
  // noise, not a property of the workload.
  const unsigned jobs = w.jobs();
  const Unit first = w.run(jobs);
  const double rss_mb = peak_rss_mb();
  gate.offer(first.accesses);
  if (!check_unit(gate, w, "warm-up", nullptr, first)) return;
  rep.digest = digest_of(first.results);

  // The timed region is the sum of the repeats' own wall times (a serve
  // repeat's SimService construction is set-up, not timed). Each repeat
  // gives its own rate and round percentiles, and each metric is the
  // fastest tenth of them (nearest rank): the 90th percentile of the rates,
  // the 10th of the round times. On a shared host a repeat runs slower
  // when neighbours load the machine, in bursts of seconds to minutes, and
  // the share of slow repeats differs from run to run, while the fast
  // repeats, like setup_s's fast set-ups, keep one level. A batch
  // workload's round is its whole run() or run_sweep() call, so both of
  // its round percentiles are that call's time.
  std::uint64_t accesses = 0;
  std::size_t rounds = 0;
  double busy_s = 0.0;
  std::vector<double> rates, p50s, p99s;
  double last_s = first.wall_s;
  const std::int64_t t0 = now_ns();
  while (rates.size() < 3 || seconds_since(t0) < o.seconds) {
    setup_batch(last_s);
    const Unit u = w.run(jobs);
    last_s = u.wall_s;
    gate.offer(u.accesses);
    check_unit(gate, w, "repeat", &first, u);
    accesses += u.accesses;
    rounds += u.round_us.size();
    busy_s += u.wall_s;
    rates.push_back(static_cast<double>(u.accesses) / u.wall_s);
    p50s.push_back(percentile(u.round_us, 50));
    p99s.push_back(percentile(u.round_us, 99));
  }
  const double rate = percentile(rates, 90);
  rep.line("repeats " + std::to_string(rates.size()) + ", acc/s min " +
           fmt(*std::min_element(rates.begin(), rates.end())) + " median " +
           fmt(median(rates)) + " max " +
           fmt(*std::max_element(rates.begin(), rates.end())) +
           "; pooled " + fmt(static_cast<double>(accesses) / busy_s));

  if (w.jobs() > 1) {
    const Unit serial = w.run(1);
    gate.offer(serial.accesses);
    check_unit(gate, w, "jobs", &serial, first);
    const double rate1 =
        static_cast<double>(serial.accesses) / serial.wall_s;
    rep.line("check jobs=1: " + fmt(rate1) + " acc/s; jobs=" +
             std::to_string(jobs) + " median repeat: " + fmt(median(rates)) +
             " acc/s; speedup " + fmt_ratio(median(rates), rate1));
  }

  const ModelFigures f = model_figures(first.results);
  rep.add("acc_per_s", rate, "1/s",
          "90th percentile of " + std::to_string(rates.size()) +
              " repeats; " + std::to_string(accesses) + " accesses over " +
              fmt(busy_s) + " s timed");
  rep.add("setup_s", percentile(setups, 10), "s",
          "10th percentile of " + std::to_string(setups.size()) +
              " set-ups spread over the run (median " +
              fmt(median(setups)) + ")");
  rep.add("peak_rss_mb", rss_mb, "MB", "set-up plus the warm-up unit");
  const std::string per = "10th percentile over " +
                          std::to_string(p50s.size()) +
                          " repeats of each one's; " +
                          std::to_string(rounds) + " rounds in all";
  rep.add("round_p50_us", percentile(p50s, 10), "us", per);
  rep.add("round_p99_us", percentile(p99s, 10), "us", per);
  rep.add("sim_read_ns", f.read_ns, "sim_ns",
          first.results.size() > 1 ? "geometric mean over cells" : "");
  rep.add("sim_write_ns", f.write_ns, "sim_ns",
          first.results.size() > 1 ? "geometric mean over cells" : "");
}

void run_traced(const Options& o, Workload& w, Gate& gate, Report& rep) {
  std::vector<Tracer> setup_tr(1);
  for (std::size_t i = 0; i < kTracedSetups; ++i) {
    (void)w.setup(&setup_tr[0]);
  }

  // The entry point's own unit is the reference every driven unit must
  // equal, and with the jobs=1 check right after it gives
  // sharded.speedup from two adjacent runs.
  const unsigned jobs = w.jobs();
  const Unit ref = w.run(jobs);
  gate.offer(ref.accesses);
  if (!check_unit(gate, w, "warm-up", nullptr, ref)) return;
  double speedup = 0.0;
  if (w.jobs() > 1) {
    const Unit serial = w.run(1);
    gate.offer(serial.accesses);
    check_unit(gate, w, "jobs", &serial, ref);
    const double rate_n = static_cast<double>(ref.accesses) / ref.wall_s;
    const double rate1 =
        static_cast<double>(serial.accesses) / serial.wall_s;
    speedup = rate_n / rate1;
    rep.line("sharded.speedup base: jobs=" + std::to_string(jobs) + " " +
             fmt(rate_n) + " acc/s over jobs=1 " + fmt(rate1) + " acc/s");
  }

  // Pairs of driven units, untraced then traced, while another pair fits
  // in --seconds: the overhead compares one code path with and without
  // spans.
  LayerTable table;
  aggregate(setup_tr[0], table);
  std::vector<double> overhead;
  std::vector<Tracer> last;
  ServiceBooks books;
  Unit traced_ref;
  const std::int64_t t0 = now_ns();
  double pair_s = 0.0;
  do {
    const std::int64_t p0 = now_ns();
    const Unit u = w.drive(nullptr);
    gate.offer(u.accesses);
    bool ok = check_unit(gate, w, "repeat", &ref, u);

    std::vector<Tracer> tr(1);
    Unit t = w.drive(&tr);
    gate.offer(t.accesses);
    ok &= check_unit(gate, w, "traced", &ref, t);
    overhead.push_back(t.wall_s / u.wall_s - 1.0);
    books.merge(t.books);
    for (const Tracer& x : tr) aggregate(x, table);
    last = std::move(tr);
    if (traced_ref.results.empty()) traced_ref = std::move(t);
    if (!ok) break;
    pair_s = seconds_since(p0);
  } while (seconds_since(t0) + pair_s < o.seconds);
  rep.digest = digest_of(traced_ref.results);
  rep.line("reference digest " + hex(digest_of(ref.results)) +
           " (untraced entry point; the digest below is the traced unit's)");

  // The span file gets the set-ups and the last pair; the layer table
  // pools every pair.
  if (!o.spans_out.empty()) {
    last.insert(last.begin(), setup_tr[0]);
    write_spans(o.spans_out, last);
    rep.line("spans written to " + o.spans_out);
  }
  double all_self = 0.0;
  for (const auto& [name, a] : table) all_self += a.self_ns;
  rep.line("layer                      count      total_ms       self_ms"
           "  self%");
  for (const auto& [name, a] : table) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-22s %9llu %13.3f %13.3f %6.2f",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_ns * 1e-6, a.self_ns * 1e-6,
                  all_self > 0 ? 100.0 * a.self_ns / all_self : 0.0);
    rep.line(buf);
  }

  auto per_item = [&](const char* name) {
    const LayerAgg& a = table[name];
    return a.items > 0 ? a.total_ns / static_cast<double>(a.items) : 0.0;
  };
  auto per_call_ms = [&](const char* name) {
    const LayerAgg& a = table[name];
    return a.count > 0 ? a.total_ns * 1e-6 / static_cast<double>(a.count)
                       : 0.0;
  };

  rep.add("setup.config_ms", per_call_ms("setup.config"), "ms");
  rep.add("setup.service_ms", per_call_ms("setup.service"), "ms");
  rep.add("trace.ns_per_rec", per_item("trace.next_block"), "ns/rec");
  rep.add("service.submit_ns_per_rec", per_item("service.submit"), "ns/rec");
  rep.add("service.step_ns_per_rec", per_item("service.step"), "ns/rec");
  rep.add("service.poll_ns", per_call_ms("service.poll") * 1e6, "ns");
  rep.add("service.drain_ms", per_call_ms("service.drain"), "ms");
  rep.add("service.accept_ratio",
          books.offered > 0 ? static_cast<double>(books.accepted) /
                                  static_cast<double>(books.offered)
                            : 0.0,
          "ratio", std::to_string(books.offered) + " records offered");
  rep.add("service.starved_frac",
          books.steps > 0 ? static_cast<double>(books.starved) /
                                static_cast<double>(books.steps)
                          : 0.0,
          "ratio", std::to_string(books.steps) + " steps");
  rep.add("sharded.speedup", speedup, "x");

  // The sweep pool, from the untraced reference sweep: each cell's
  // phases.total_ns against jobs x the wall time around run_sweep().
  double cell_p50 = 0.0, cell_max = 0.0, busy = 0.0;
  if (ref.results.size() > 1) {
    std::vector<double> cells;
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
      const SimResult::PhaseCounters& ph = ref.results[i].phases;
      cells.push_back(static_cast<double>(ph.total_ns) * 1e-9);
      const double total = static_cast<double>(std::max<std::uint64_t>(
          ph.total_ns, 1));
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "cell %-28s %8.3f s  trace_gen %5.1f%%  controller "
                    "%5.1f%%  tracker %5.1f%%",
                    w.cell_name(i).c_str(), cells.back(),
                    100.0 * static_cast<double>(ph.trace_gen_ns) / total,
                    100.0 * static_cast<double>(ph.controller_ns) / total,
                    100.0 * static_cast<double>(ph.codec_ns) / total);
      rep.line(buf);
    }
    cell_p50 = median(cells);
    cell_max = *std::max_element(cells.begin(), cells.end());
    double sum = 0.0;
    for (double c : cells) sum += c;
    busy = sum / (static_cast<double>(jobs) * ref.wall_s);
  }
  rep.add("sweep.cell_s_p50", cell_p50, "s");
  rep.add("sweep.cell_s_max", cell_max, "s");
  rep.add("sweep.busy_ratio", busy, "ratio");

  const ModelFigures f = model_figures(ref.results);
  rep.add("phase.trace_gen_ns_per_acc", f.trace_gen_ns_per_acc, "ns/acc");
  rep.add("phase.controller_ns_per_acc", f.controller_ns_per_acc, "ns/acc");
  rep.add("phase.tracker_ns_per_acc", f.tracker_ns_per_acc, "ns/acc");

  const Sizes& z = o.tiny ? kTiny : kFull;
  rep.add("wom.encode_ns_per_line.rs23-inv",
          encode_ns_per_line("rs23-inv", z.rs23_lines, o.seed, gate),
          "ns/line");
  rep.add("wom.encode_ns_per_line.polar-m7-inv",
          encode_ns_per_line("polar-m7-inv", z.polar_lines, o.seed, gate),
          "ns/line");

  rep.add("controller.deferred_frac", f.deferred_frac, "ratio");
  rep.add("controller.row_hit_rate", f.row_hit_rate, "ratio");
  rep.add("controller.refresh_rows", f.refresh_rows, "count");
  rep.add("pcm.max_bank_util", f.max_bank_util, "ratio");
  rep.add("arch.fast_write_frac", f.fast_write_frac, "ratio");
  rep.add("arch.cache_hit_rate", f.cache_hit_rate, "ratio");
  rep.add("trace.overhead_frac", median(overhead), "ratio",
          "traced / untraced wall - 1, median of " +
              std::to_string(overhead.size()) + " pairs");
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "womcode_bench: %s\nusage: womcode_bench --workload "
               "paper-single|codes-sweep|serve-4ch --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--scale full|tiny] "
               "[--spans-out FILE] [--perturb repeat|jobs|traced|offered] "
               "[--leave-open]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--leave-open") {
      o.leave_open = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--root") {
        o.root = v;
      } else if (a == "--scale") {
        if (v != "full" && v != "tiny") usage("--scale takes full or tiny");
        o.tiny = v == "tiny";
      } else if (a == "--spans-out") {
        o.spans_out = v;
      } else if (a == "--perturb") {
        o.perturb = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Sizes& z = o.tiny ? kTiny : kFull;
  std::unique_ptr<Workload> w;
  if (o.workload == "paper-single") {
    w = std::make_unique<PaperSingle>(o, z);
  } else if (o.workload == "codes-sweep") {
    w = std::make_unique<CodesSweep>(o, z);
  } else if (o.workload == "serve-4ch") {
    w = std::make_unique<Serve4Ch>(o, z);
  } else {
    usage("unknown workload " + o.workload);
  }

  Gate gate(o.perturb);
  Report rep;
  try {
    if (o.trace) {
      run_traced(o, *w, gate, rep);
    } else {
      run_untraced(o, *w, gate, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "womcode_bench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu trace %d jobs %u\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              w->jobs());
  for (const std::string& l : rep.lines) std::printf("%s\n", l.c_str());
  for (const Report::Metric& m : rep.metrics) {
    std::printf("metric %-36s %s %s%s%s\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  std::printf("digest %s\n", hex(rep.digest).c_str());
  for (const std::string& e : gate.errors()) {
    std::printf("gate FAILED: %s\n", e.c_str());
  }
  std::printf("failed_frac %s (%llu of %llu offered accesses)\n",
              fmt_ratio(static_cast<double>(gate.failed()),
                        static_cast<double>(gate.attempted()))
                  .c_str(),
              static_cast<unsigned long long>(gate.failed()),
              static_cast<unsigned long long>(gate.attempted()));

  std::string json = "{\"correct\": ";
  json += gate.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    gate.attempted(), 1));
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Report::Metric& m = rep.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            fmt(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

