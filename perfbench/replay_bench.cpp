// Replay benchmark: host throughput, write amplification and device-model
// latency of one workload, with per-layer costs from a hook-traced run.
//
// A workload is a set of cells (scheme x suite trace) replayed at a fixed
// size. Every knob arrives on the command line; perfbench/run.py reads them
// from perfbench/workloads.json. One process runs one workload:
//
//   --trace 0  rounds of {generate traces, build FTLs, replay every cell,
//              read every LPN back} until --seconds have passed, then one
//              open-loop TimedReplayer pass per cell. Prints the end-to-end
//              metrics.
//   --trace 1  rounds of {untraced replay, traced replay} per cell, plus a
//              learned-index-off control replay when the workload turns the
//              index on. Prints the per-layer metrics.
//
// The traced replay wraps each scheme in a subclass that times the policy
// hooks and forwards to the scheme's own implementation; FtlStats of the
// traced and untraced replays must match exactly. Hooks that run once per
// relocated page (classify_gc_write, on_gc_write_complete) are only
// counted: timing them would dominate a GC-heavy replay.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit code is non-zero when any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "baselines/two_r.hpp"
#include "core/phftl.hpp"
#include "device/replayer.hpp"
#include "ftl/ftl_base.hpp"
#include "trace/alibaba_suite.hpp"

namespace {

using namespace phftl;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Spans, aggregated by name in memory.

enum SpanId : std::uint8_t {
  kReplay,             ///< root: one cell's request loop + drain
  kRead,               ///< submit_checked of a read request
  kTrim,               ///< submit_checked of a trim request
  kWrite,              ///< submit_checked of a write request that ran no GC
  kWriteGc,            ///< submit_checked of a write request that ran GC
  kDrain,              ///< FtlBase::drain after the last request
  kCoreClassify,       ///< PHFTL classify_user_write
  kCoreWriteComplete,  ///< PHFTL on_host_write_complete, no training
  kCoreTrain,          ///< on_host_write_complete that completed a window
  kBaselinesClassify,  ///< Base/2R/SepBIT classify_user_write
  kGcVictim,           ///< pick_victim
  kNumSpans,
};

constexpr std::array<const char*, kNumSpans> kSpanNames = {
    "replay",        "ftl.read",           "ftl.trim",
    "ftl.write",     "ftl.write_gc",       "ftl.drain",
    "core.classify", "core.write_complete", "core.train",
    "baselines.classify", "ftl.gc_victim"};

struct SpanStat {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  ///< total minus the child spans it covers
};

class Tracer {
 public:
  void begin() {
    if (depth_ == stack_.size()) {
      std::fprintf(stderr, "span stack overflow\n");
      std::exit(3);
    }
    stack_[depth_++] = Frame{now_ns(), 0};
  }
  void end(SpanId id) {
    const Frame f = stack_[--depth_];
    const std::uint64_t dur = now_ns() - f.start;
    SpanStat& s = spans_[id];
    ++s.calls;
    s.total_ns += dur;
    s.self_ns += dur - std::min(dur, f.child_ns);
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  }
  const SpanStat& span(SpanId id) const { return spans_[id]; }

  // Work counts gathered at the same boundaries.
  std::uint64_t write_pages = 0;     ///< pages of kWrite requests
  std::uint64_t gc_write_moved = 0;  ///< pages relocated inside kWriteGc
  std::uint64_t read_pages = 0;
  std::uint64_t trim_pages = 0;
  std::uint64_t gc_classify_calls = 0;  ///< counted, never timed
  std::uint64_t gc_complete_calls = 0;  ///< counted, never timed
  std::uint64_t victims = 0;
  double victim_valid_fraction_sum = 0.0;

 private:
  struct Frame {
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
  };
  std::array<Frame, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<SpanStat, kNumSpans> spans_{};
};

/// A scheme whose policy hooks report spans to a Tracer and otherwise run
/// the scheme's own implementation unchanged.
template <class Scheme>
class Traced final : public Scheme {
 public:
  template <class Config>
  Traced(const Config& cfg, Tracer& tracer) : Scheme(cfg), tracer_(tracer) {}

 protected:
  static constexpr bool kCore = std::is_base_of_v<core::PhftlFtl, Scheme>;

  std::uint32_t classify_user_write(Lpn lpn, const WriteContext& ctx) override {
    tracer_.begin();
    const std::uint32_t stream = Scheme::classify_user_write(lpn, ctx);
    tracer_.end(kCore ? kCoreClassify : kBaselinesClassify);
    return stream;
  }
  std::uint32_t classify_gc_write(Lpn lpn, std::uint8_t gc_count,
                                  const OobData& oob) override {
    ++tracer_.gc_classify_calls;
    return Scheme::classify_gc_write(lpn, gc_count, oob);
  }
  void on_gc_write_complete(Lpn lpn, Ppn new_ppn,
                            const OobData& oob) override {
    ++tracer_.gc_complete_calls;
    Scheme::on_gc_write_complete(lpn, new_ppn, oob);
  }
  void on_host_write_complete(Lpn lpn, Ppn ppn,
                              const WriteContext& ctx) override {
    if constexpr (kCore) {
      const std::uint64_t windows = this->trainer().windows_completed();
      tracer_.begin();
      Scheme::on_host_write_complete(lpn, ppn, ctx);
      tracer_.end(this->trainer().windows_completed() != windows
                      ? kCoreTrain
                      : kCoreWriteComplete);
    } else {
      // The baselines inherit FtlBase's empty hook: nothing to time.
      Scheme::on_host_write_complete(lpn, ppn, ctx);
    }
  }
  std::uint64_t pick_victim() override {
    tracer_.begin();
    const std::uint64_t sb = Scheme::pick_victim();
    tracer_.end(kGcVictim);
    if (sb != FtlBase::kNoVictim) {
      ++tracer_.victims;
      tracer_.victim_valid_fraction_sum +=
          static_cast<double>(this->valid_count(sb)) /
          static_cast<double>(this->data_capacity(sb));
    }
    return sb;
  }

 private:
  Tracer& tracer_;
};

// ---------------------------------------------------------------------------
// Workload description (all of it from the command line).

struct Workload {
  std::string name;
  std::vector<std::string> schemes;
  std::vector<std::string> traces;
  /// Independently seeded copies of each trace. Host cost varies with the
  /// generated trace, so averaging copies steadies the figures.
  std::uint64_t instances = 1;
  double drive_writes = 1.0;
  double arrival_scale = 1.0;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  bool mapping_tier = false;
  bool learned_index = false;
  std::uint64_t cmt_pages = 0;     // 0: FtlConfig default
  std::uint64_t cmt_wb_batch = 0;  // 0: FtlConfig default
  std::uint64_t tp_entries = 0;    // 0: FtlConfig default
  double read_fraction = -1.0;     // <0: the suite spec's own value
  double trim_fraction = -1.0;
};

struct Cell {
  std::string scheme;
  SuiteTraceSpec spec;    ///< seed and access mix already applied
  std::size_t trace = 0;  ///< index of the cell's trace in generate()
  FtlConfig cfg;
};

/// Cells in trace-major order: every trace instance, then every scheme.
/// Instance k XORs (seed + k * golden ratio) into the suite spec's seed;
/// instance 0 XORs the workload seed itself.
std::vector<Cell> make_cells(const Workload& w, bool learned_index) {
  std::vector<Cell> cells;
  for (std::size_t n = 0; n < w.traces.size() * w.instances; ++n) {
    SuiteTraceSpec spec = suite_spec(w.traces[n / w.instances]);
    spec.params.seed ^= w.seed + (n % w.instances) * 0x9e3779b97f4a7c15ULL;
    if (w.read_fraction >= 0.0)
      spec.params.read_request_fraction = w.read_fraction;
    if (w.trim_fraction >= 0.0)
      spec.params.trim_request_fraction = w.trim_fraction;
    FtlConfig cfg = suite_ftl_config(spec);
    cfg.mapping_tier = w.mapping_tier;
    cfg.learned_index = learned_index;
    if (w.cmt_pages > 0) cfg.cmt_pages = w.cmt_pages;
    if (w.cmt_wb_batch > 0) cfg.cmt_wb_batch = w.cmt_wb_batch;
    if (w.tp_entries > 0) cfg.tp_entries = w.tp_entries;
    for (const std::string& scheme : w.schemes)
      cells.push_back(Cell{scheme, spec, n, cfg});
  }
  return cells;
}

template <class Scheme, class Config>
std::unique_ptr<FtlBase> build(const Config& cfg, Tracer* tracer) {
  if (tracer) return std::make_unique<Traced<Scheme>>(cfg, *tracer);
  return std::make_unique<Scheme>(cfg);
}

std::unique_ptr<FtlBase> make_ftl(const Cell& cell, Tracer* tracer) {
  if (cell.scheme == "Base") return build<BaseFtl>(cell.cfg, tracer);
  if (cell.scheme == "2R") return build<TwoRFtl>(cell.cfg, tracer);
  if (cell.scheme == "SepBIT") return build<SepBitFtl>(cell.cfg, tracer);
  if (cell.scheme == "PHFTL") {
    core::PhftlConfig pcfg = core::default_phftl_config(cell.cfg);
    pcfg.predict_mode = core::PhftlConfig::PredictMode::kSync;
    pcfg.time_predictions = false;
    return build<core::PhftlFtl>(pcfg, tracer);
  }
  std::fprintf(stderr, "unknown scheme: %s\n", cell.scheme.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Replay and read-back check.

struct Reject {
  std::size_t request = 0;
  std::uint32_t pages_completed = 0;
};

/// Untraced replays record a timestamp every kChunkRequests requests, so
/// host throughput can be estimated from per-chunk medians over rounds.
constexpr std::size_t kChunkRequests = 1024;

struct ReplayResult {
  double seconds = 0.0;
  std::vector<double> chunk_s;  ///< untraced only: seconds per chunk
  std::uint64_t pages = 0;  ///< host pages read, written and trimmed
  std::uint64_t rejected_pages = 0;
  std::vector<Reject> rejects;
  FtlStats stats;
};

ReplayResult replay(FtlBase& ftl, const Trace& trace, Tracer* tracer) {
  ReplayResult r;
  const std::uint64_t t0 = now_ns();
  if (tracer == nullptr) {
    std::uint64_t mark = t0;
    const auto close_chunk = [&] {
      const std::uint64_t t = now_ns();
      r.chunk_s.push_back(static_cast<double>(t - mark) * 1e-9);
      mark = t;
    };
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
      const SubmitResult s = ftl.submit_checked(trace.ops[i]);
      if (s.status != WriteResult::kOk) r.rejects.push_back({i, s.pages_completed});
      if ((i + 1) % kChunkRequests == 0) close_chunk();
    }
    ftl.drain();
    close_chunk();
  } else {
    const FtlStats& st = ftl.stats();
    tracer->begin();
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
      const HostRequest& req = trace.ops[i];
      const std::uint64_t gc0 = st.gc_invocations + st.erases;
      const std::uint64_t moved0 = st.gc_writes;
      tracer->begin();
      const SubmitResult s = ftl.submit_checked(req);
      SpanId id = kWrite;
      if (req.op == OpType::kRead) {
        id = kRead;
      } else if (req.op == OpType::kTrim) {
        id = kTrim;
      } else if (st.gc_invocations + st.erases != gc0) {
        id = kWriteGc;
      }
      tracer->end(id);
      if (id == kRead) tracer->read_pages += req.num_pages;
      if (id == kTrim) tracer->trim_pages += req.num_pages;
      if (id == kWrite) tracer->write_pages += req.num_pages;
      if (id == kWriteGc) tracer->gc_write_moved += st.gc_writes - moved0;
      if (s.status != WriteResult::kOk) r.rejects.push_back({i, s.pages_completed});
    }
    tracer->begin();
    ftl.drain();
    tracer->end(kDrain);
    tracer->end(kReplay);
  }
  r.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const HostRequest& req : trace.ops) r.pages += req.num_pages;
  for (const Reject& rej : r.rejects)
    r.rejected_pages += trace.ops[rej.request].num_pages - rej.pages_completed;
  r.stats = ftl.stats();
  return r;
}

/// FtlBase payload convention: a host-written page stores lpn ^ 0x5bd1e995.
constexpr std::uint64_t kPayloadKey = 0x5bd1e995ULL;

struct ReadBack {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
};

/// Rebuild the live / trimmed / never-written state of every LPN from the
/// trace and the replay's rejections, then read every LPN and compare: a
/// live page returns its payload, the others return 0.
ReadBack read_back(FtlBase& ftl, const Trace& trace,
                   const std::vector<Reject>& rejects) {
  enum : std::uint8_t { kNever = 0, kLive = 1, kTrimmed = 2 };
  std::vector<std::uint8_t> state(ftl.logical_pages(), kNever);
  std::size_t next_reject = 0;
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    const HostRequest& req = trace.ops[i];
    std::uint32_t n = req.num_pages;
    if (next_reject < rejects.size() && rejects[next_reject].request == i)
      n = rejects[next_reject++].pages_completed;
    if (req.op == OpType::kWrite) {
      for (std::uint32_t p = 0; p < n; ++p) state[req.start_lpn + p] = kLive;
    } else if (req.op == OpType::kTrim) {
      for (std::uint32_t p = 0; p < n; ++p)
        if (state[req.start_lpn + p] == kLive) state[req.start_lpn + p] = kTrimmed;
    }
  }
  ReadBack rb;
  for (Lpn lpn = 0; lpn < state.size(); ++lpn) {
    const std::uint64_t want = state[lpn] == kLive ? (lpn ^ kPayloadKey) : 0;
    ++rb.checked;
    if (ftl.read_page(lpn) != want) ++rb.mismatches;
  }
  return rb;
}

bool same_stats(const FtlStats& a, const FtlStats& b) {
  static_assert(std::has_unique_object_representations_v<FtlStats>);
  return std::memcmp(&a, &b, sizeof(FtlStats)) == 0;
}

// ---------------------------------------------------------------------------
// Per-cell results of the reference (first) replay.

struct CellOutcome {
  FtlStats stats;
  double read_amp = 1.0;
  std::uint64_t map_ram_bytes = 0;
  std::uint64_t flash_programs = 0, flash_reads = 0, flash_erases = 0;
  bool phftl = false;
  double meta_hit_rate = 0.0;
  std::uint64_t train_windows = 0;
  double classifier_f1 = 0.0;
  Phase2Result sim;
};

/// Capture everything a cell reports from its FTL right after a replay,
/// before the read-back check adds host reads.
CellOutcome observe(FtlBase& ftl) {
  CellOutcome o;
  o.stats = ftl.stats();
  o.flash_programs = ftl.flash().total_programs();
  o.flash_reads = ftl.flash().total_reads();
  o.flash_erases = ftl.flash().total_erases();
  ftl.refresh_observability();
  if (ftl.mapping_tier_enabled()) {
    o.read_amp = ftl.observability()
                     .metrics()
                     .find_gauge("ftl.map.read_amplification")
                     ->value();
    o.map_ram_bytes = ftl.mapping_ram_bytes();
  }
  if (auto* ph = dynamic_cast<core::PhftlFtl*>(&ftl)) {
    o.phftl = true;
    o.meta_hit_rate = ph->meta_store().cache_hit_rate();
    o.train_windows = ph->trainer().windows_completed();
    ph->finalize_evaluation();
    o.classifier_f1 = ph->classifier_metrics().f1();
  }
  return o;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct RunTotals {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(const std::string& why) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct = false;
  }
};

void print_result(const RunTotals& t, const std::vector<Metric>& metrics) {
  std::printf("\n%-34s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics)
    std::printf("%-34s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::ostringstream js;
  js << "{\"correct\": " << (t.correct ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) js << ", ";
    js << '"' << metrics[i].name << "\": {\"value\": "
       << fmt_double(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// The two run modes.

struct Round {
  double gen_s = 0.0;
  double replay_s = 0.0;
  double traced_s = 0.0;
  double control_s = 0.0;
  std::uint64_t pages = 0;
};

/// Start another round only if one as long as the last still fits in the
/// measuring time, so a run ends near --seconds.
bool another_round(std::uint64_t start, std::uint64_t round_start,
                   double seconds) {
  const std::uint64_t now = now_ns();
  return static_cast<double>(now - start + (now - round_start)) * 1e-9 <=
         seconds;
}

/// One trace per distinct suite trace; cells index into it.
std::vector<Trace> generate(const std::vector<Cell>& cells,
                            const Workload& w) {
  std::vector<Trace> traces;
  for (const Cell& c : cells)
    if (c.trace == traces.size())
      traces.push_back(make_suite_trace(c.spec, w.drive_writes));
  return traces;
}

/// Checks shared by every replay of a cell: no rejected pages, every LPN
/// reads back as written, and the stats equal the cell's first replay.
void check_replay(RunTotals& t, const Cell& cell, FtlBase& ftl,
                  const Trace& trace, const ReplayResult& r,
                  const FtlStats& reference, const char* what) {
  const ReadBack rb = read_back(ftl, trace, r.rejects);
  t.attempted += r.pages + rb.checked;
  t.failed += r.rejected_pages + rb.mismatches;
  const std::string label = cell.scheme + " " + cell.spec.id + " (" + what + ")";
  if (r.rejected_pages) t.fail(label + ": pages rejected with ENOSPC");
  if (rb.mismatches) t.fail(label + ": read-back mismatches");
  if (!same_stats(r.stats, reference))
    t.fail(label + ": FtlStats differ from the cell's first replay");
}

/// Open-loop device-model pass. TimedReplayer submits without admission
/// checks, so it runs only when the host replays rejected nothing.
void sim_pass(const Workload& w, const std::vector<Cell>& cells,
              const std::vector<Trace>& traces,
              std::vector<CellOutcome>& outcomes, RunTotals& t) {
  if (t.failed) return;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto ftl = make_ftl(cells[i], nullptr);
    TimedReplayer timed(*ftl, DeviceTimingConfig{});
    outcomes[i].sim =
        timed.timed_replay(traces[cells[i].trace], w.arrival_scale);
    ftl->drain();
    if (!same_stats(ftl->stats(), outcomes[i].stats))
      t.fail(cells[i].scheme + " " + cells[i].spec.id +
             " (timed replay): FtlStats differ from the host replay");
  }
}

void print_cells(const std::vector<Cell>& cells,
                 const std::vector<CellOutcome>& outcomes) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellOutcome& o = outcomes[i];
    std::printf(
        "cell %-6s %-5s gen seed %-20llu wa %.6f  read_amp %.6f  sim p50 "
        "%.3f us  p99.9 %.3f us  (%llu requests)\n",
        cells[i].scheme.c_str(), cells[i].spec.id.c_str(),
        static_cast<unsigned long long>(cells[i].spec.params.seed),
        o.stats.write_amplification(), o.read_amp, o.sim.p50_us,
        o.sim.p999_us, static_cast<unsigned long long>(o.sim.requests));
  }
}

/// Set-up samples taken per round: set-up is short, so one sample a round
/// would leave its median at the mercy of a few noisy milliseconds.
constexpr int kSetupReps = 3;

int run_untraced(const Workload& w) {
  const std::vector<Cell> cells = make_cells(w, w.learned_index);
  std::vector<CellOutcome> outcomes(cells.size());
  std::vector<Round> rounds;
  std::vector<Trace> traces;
  std::vector<double> setup;
  // chunk_s[cell][chunk][round]
  std::vector<std::vector<std::vector<double>>> chunk_s(cells.size());
  // Taken after the first round: later rounds repeat the same work, but
  // allocator fragmentation would make the peak depend on how many fit.
  double peak_rss = 0;
  RunTotals t;

  const std::uint64_t start = now_ns();
  std::uint64_t round_start = 0;
  do {
    round_start = now_ns();
    Round rd;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const std::uint64_t t0 = now_ns();
      traces = generate(cells, w);
      double s = static_cast<double>(now_ns() - t0) * 1e-9;
      for (const Cell& cell : cells) {
        const std::uint64_t t1 = now_ns();
        const auto ftl = make_ftl(cell, nullptr);
        s += static_cast<double>(now_ns() - t1) * 1e-9;
      }
      setup.push_back(s);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Trace& trace = traces[cells[i].trace];
      auto ftl = make_ftl(cells[i], nullptr);
      const ReplayResult r = replay(*ftl, trace, nullptr);
      rd.replay_s += r.seconds;
      rd.pages += r.pages;
      chunk_s[i].resize(r.chunk_s.size());
      for (std::size_t c = 0; c < r.chunk_s.size(); ++c)
        chunk_s[i][c].push_back(r.chunk_s[c]);
      if (rounds.empty()) outcomes[i] = observe(*ftl);
      check_replay(t, cells[i], *ftl, trace, r, outcomes[i].stats,
                   "host replay");
    }
    if (rounds.empty()) peak_rss = peak_rss_mib();
    rounds.push_back(rd);
  } while (another_round(start, round_start, w.seconds));

  sim_pass(w, cells, traces, outcomes, t);
  print_cells(cells, outcomes);

  // Host time of one replay of every cell, as the sum over chunks of each
  // chunk's median over rounds: a burst of noise from other tenants slows
  // a few chunks of one round and drops out of their medians.
  double replay_s = 0;
  for (const auto& cell : chunk_s)
    for (const auto& chunk : cell) replay_s += median(chunk);
  std::printf("rounds (host pages/s):");
  for (const Round& rd : rounds)
    std::printf(" %.0f", static_cast<double>(rd.pages) / rd.replay_s);
  std::printf("\n");
  double wa = 0, p50 = 0, p999 = 0, read_amp = 0;
  std::uint64_t sim_requests = 0;
  for (const CellOutcome& o : outcomes) {
    wa += o.stats.write_amplification();
    p50 += o.sim.p50_us;
    p999 += o.sim.p999_us;
    read_amp += o.read_amp;
    sim_requests += o.sim.requests;
  }
  const double n = static_cast<double>(cells.size());
  std::printf(
      "workload %s seed %llu: %zu rounds, %llu sim requests, error_rate "
      "%.17g, hardware_threads %u\n",
      w.name.c_str(), static_cast<unsigned long long>(w.seed), rounds.size(),
      static_cast<unsigned long long>(sim_requests),
      ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
      std::thread::hardware_concurrency());
  print_result(t, {
                      {"host_pages_per_s",
                       static_cast<double>(rounds.front().pages) / replay_s,
                       "pages/s"},
                      {"setup_s", median(setup), "s"},
                      {"wa", wa / n, "ratio"},
                      {"sim_p50_us", p50 / n, "us"},
                      {"sim_p999_us", p999 / n, "us"},
                      {"read_amp", read_amp / n, "ratio"},
                      {"peak_rss_mb", peak_rss, "MiB"},
                  });
  return t.correct ? 0 : 1;
}

int run_traced(const Workload& w) {
  const std::vector<Cell> cells = make_cells(w, w.learned_index);
  // Control cells: the same workload with the learned index off, so the
  // index's host-time cost is (on - off) / host pages.
  const bool control = w.learned_index;
  const std::vector<Cell> control_cells = make_cells(w, false);
  std::vector<CellOutcome> outcomes(cells.size());
  std::vector<Round> rounds;
  std::vector<Trace> traces;
  Tracer tracer;
  RunTotals t;

  const std::uint64_t start = now_ns();
  std::uint64_t round_start = 0;
  do {
    round_start = now_ns();
    Round rd;
    const std::uint64_t t0 = now_ns();
    traces = generate(cells, w);
    rd.gen_s = static_cast<double>(now_ns() - t0) * 1e-9;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Trace& trace = traces[cells[i].trace];
      auto plain = make_ftl(cells[i], nullptr);
      const ReplayResult r = replay(*plain, trace, nullptr);
      rd.replay_s += r.seconds;
      rd.pages += r.pages;
      if (rounds.empty()) outcomes[i] = observe(*plain);
      check_replay(t, cells[i], *plain, trace, r, outcomes[i].stats,
                   "untraced");
      plain.reset();

      auto traced = make_ftl(cells[i], &tracer);
      const ReplayResult tr = replay(*traced, trace, &tracer);
      rd.traced_s += tr.seconds;
      // Identical FtlStats imply identical WA: tracing is pass-through.
      check_replay(t, cells[i], *traced, trace, tr, outcomes[i].stats,
                   "traced");
      traced.reset();

      if (control) {
        auto off = make_ftl(control_cells[i], nullptr);
        rd.control_s += replay(*off, trace, nullptr).seconds;
      }
    }
    rounds.push_back(rd);
  } while (another_round(start, round_start, w.seconds));

  sim_pass(w, cells, traces, outcomes, t);
  print_cells(cells, outcomes);

  std::vector<double> gen, untraced, traced_s, control_s;
  std::uint64_t pages = 0;
  for (const Round& rd : rounds) {
    gen.push_back(rd.gen_s);
    untraced.push_back(rd.replay_s);
    traced_s.push_back(rd.traced_s);
    control_s.push_back(rd.control_s);
    pages = rd.pages;
  }

  // Exact counts of one replay, summed over cells.
  std::uint64_t meta_reads = 0, gc_moved = 0, erases = 0, journal = 0;
  std::uint64_t trans_reads = 0, trans_writes = 0, probe_reads = 0;
  std::uint64_t cmt_hits = 0, cmt_lookups = 0, learned_hits = 0;
  std::uint64_t learned_consulted = 0, map_ram = 0, programs = 0;
  std::uint64_t flash_reads = 0, flash_erases = 0, sim_requests = 0;
  std::uint64_t windows = 0;
  double meta_hit = 0, f1 = 0, phftl_cells = 0;
  for (const CellOutcome& o : outcomes) {
    const FtlStats& s = o.stats;
    gc_moved += s.gc_writes;
    erases += s.erases;
    journal += s.journal_writes;
    trans_reads += s.trans_reads;
    trans_writes += s.trans_writes;
    probe_reads += s.learned_probe_reads;
    cmt_hits += s.cmt_hits;
    cmt_lookups += s.cmt_hits + s.cmt_misses;
    learned_hits += s.learned_hits;
    learned_consulted += s.learned_hits + s.learned_mispredicts;
    map_ram += o.map_ram_bytes;
    programs += o.flash_programs;
    flash_reads += o.flash_reads;
    flash_erases += o.flash_erases;
    sim_requests += o.sim.requests;
    if (o.phftl) {
      meta_reads += s.meta_reads;
      windows += o.train_windows;
      meta_hit += o.meta_hit_rate;
      f1 += o.classifier_f1;
      ++phftl_cells;
    }
  }

  const auto ns = [&](SpanId id) {
    return static_cast<double>(tracer.span(id).total_ns);
  };
  const auto self = [&](SpanId id) {
    return static_cast<double>(tracer.span(id).self_ns);
  };
  const auto calls = [&](SpanId id) {
    return static_cast<double>(tracer.span(id).calls);
  };
  double covered = 0;
  for (int id = kReplay + 1; id < kNumSpans; ++id)
    covered += self(static_cast<SpanId>(id));

  std::printf("\n%-22s %12s %16s %16s %8s\n", "span", "calls", "total_ns",
              "self_ns", "self%");
  for (int id = 0; id < kNumSpans; ++id) {
    const SpanStat& s = tracer.span(static_cast<SpanId>(id));
    std::printf("%-22s %12llu %16llu %16llu %7.2f%%\n", kSpanNames[id],
                static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.total_ns),
                static_cast<unsigned long long>(s.self_ns),
                100.0 * ratio(static_cast<double>(s.self_ns), ns(kReplay)));
  }
  std::printf(
      "counted, not timed: classify_gc_write %llu, on_gc_write_complete "
      "%llu\n",
      static_cast<unsigned long long>(tracer.gc_classify_calls),
      static_cast<unsigned long long>(tracer.gc_complete_calls));
  std::printf("workload %s seed %llu: %zu rounds, hardware_threads %u\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              rounds.size(), std::thread::hardware_concurrency());

  const double learned_ns =
      control ? (median(untraced) - median(control_s)) * 1e9 /
                    static_cast<double>(pages)
              : 0.0;
  if (control)
    std::printf("learned index on: %.4f s, off: %.4f s per replay (%.2fx)\n",
                median(untraced), median(control_s),
                median(untraced) / median(control_s));
  print_result(
      t,
      {
          {"trace.gen_s", median(gen), "s"},
          {"core.classify_ns_per_page",
           ratio(ns(kCoreClassify), calls(kCoreClassify)), "ns/page"},
          {"core.train_ms_per_window",
           ratio(ns(kCoreTrain), calls(kCoreTrain)) * 1e-6, "ms"},
          {"core.train_share", ratio(ns(kCoreTrain), ns(kReplay)), "ratio"},
          {"core.train_windows", static_cast<double>(windows), "count"},
          {"core.meta_cache_hit_rate", ratio(meta_hit, phftl_cells), "ratio"},
          {"core.meta_reads", static_cast<double>(meta_reads), "count"},
          {"core.classifier_f1", ratio(f1, phftl_cells), "ratio"},
          {"baselines.classify_ns_per_page",
           ratio(ns(kBaselinesClassify), calls(kBaselinesClassify)),
           "ns/page"},
          {"ftl.write_self_ns_per_page",
           ratio(self(kWrite), static_cast<double>(tracer.write_pages)),
           "ns/page"},
          {"ftl.gc_ns_per_moved_page",
           ratio(self(kWriteGc), static_cast<double>(tracer.gc_write_moved)),
           "ns/page"},
          {"ftl.gc_victim_ns", ratio(ns(kGcVictim), calls(kGcVictim)), "ns"},
          {"ftl.gc_moved_pages", static_cast<double>(gc_moved), "count"},
          {"ftl.erases", static_cast<double>(erases), "count"},
          {"ftl.gc_valid_fraction_per_victim",
           ratio(tracer.victim_valid_fraction_sum,
                 static_cast<double>(tracer.victims)),
           "ratio"},
          {"ftl.read_ns_per_page",
           ratio(self(kRead), static_cast<double>(tracer.read_pages)),
           "ns/page"},
          {"ftl.trim_ns_per_page",
           ratio(self(kTrim), static_cast<double>(tracer.trim_pages)),
           "ns/page"},
          {"ftl.journal_writes", static_cast<double>(journal), "count"},
          {"ftl.map.cmt_hit_rate",
           ratio(static_cast<double>(cmt_hits),
                 static_cast<double>(cmt_lookups)),
           "ratio"},
          {"ftl.map.trans_reads", static_cast<double>(trans_reads), "count"},
          {"ftl.map.trans_writes", static_cast<double>(trans_writes), "count"},
          {"ftl.map.learned_hit_ratio",
           ratio(static_cast<double>(learned_hits),
                 static_cast<double>(learned_consulted)),
           "ratio"},
          {"ftl.map.learned_probe_reads", static_cast<double>(probe_reads),
           "count"},
          {"ftl.map.ram_bytes", static_cast<double>(map_ram), "bytes"},
          {"ftl.map.learned_ns_per_page", learned_ns, "ns/page"},
          {"flash.programs", static_cast<double>(programs), "count"},
          {"flash.reads", static_cast<double>(flash_reads), "count"},
          {"flash.erases", static_cast<double>(flash_erases), "count"},
          {"device.sim_requests", static_cast<double>(sim_requests), "count"},
          {"obs.trace_overhead", median(traced_s) / median(untraced), "ratio"},
          {"obs.self_time_coverage", ratio(covered, ns(kReplay)), "ratio"},
      });
  return t.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line.

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "replay_bench: %s\n"
               "usage: replay_bench --workload NAME --schemes A,B "
               "--traces '#1,#2' [--instances K] --drive-writes D --arrival-scale X "
               "--seed N --seconds S --trace 0|1 [--mapping-tier] "
               "[--learned-index] [--cmt-pages N] [--cmt-wb-batch N] "
               "[--tp-entries N] [--read-fraction F] [--trim-fraction F]\n",
               msg);
  std::exit(2);
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

double to_double(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') usage("bad number");
  return v;
}

std::uint64_t to_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') usage("bad integer");
  return v;
}

Workload parse(int argc, char** argv) {
  Workload w;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") w.name = next();
    else if (a == "--schemes") w.schemes = split(next());
    else if (a == "--traces") w.traces = split(next());
    else if (a == "--instances") w.instances = to_u64(next());
    else if (a == "--drive-writes") w.drive_writes = to_double(next());
    else if (a == "--arrival-scale") w.arrival_scale = to_double(next());
    else if (a == "--seed") w.seed = to_u64(next());
    else if (a == "--seconds") w.seconds = to_double(next());
    else if (a == "--trace") {
      const std::uint64_t v = to_u64(next());
      if (v > 1) usage("--trace takes 0 or 1");
      w.traced = v == 1;
      have_trace = true;
    } else if (a == "--mapping-tier") w.mapping_tier = true;
    else if (a == "--learned-index") w.learned_index = true;
    else if (a == "--cmt-pages") w.cmt_pages = to_u64(next());
    else if (a == "--cmt-wb-batch") w.cmt_wb_batch = to_u64(next());
    else if (a == "--tp-entries") w.tp_entries = to_u64(next());
    else if (a == "--read-fraction") w.read_fraction = to_double(next());
    else if (a == "--trim-fraction") w.trim_fraction = to_double(next());
    else usage(("unknown argument " + a).c_str());
  }
  if (w.schemes.empty() || w.traces.empty() || w.instances == 0)
    usage("no cells");
  if (!have_trace) usage("--trace is required");
  if (w.drive_writes <= 0 || w.arrival_scale <= 0 || w.seconds < 0)
    usage("sizes must be positive");
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload w = parse(argc, argv);
  return w.traced ? run_traced(w) : run_untraced(w);
}
