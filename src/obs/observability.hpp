// Umbrella observability object: one metrics registry + one trace recorder
// + an optional simulated-time snapshot series, shared by everything that
// instruments a single FTL instance (the FTL itself, the PHFTL core, the
// device timing model, benchmark harnesses).
//
// Snapshots: set_snapshot_cadence(N) samples every counter and gauge each
// time the virtual clock crosses a multiple of N (tick() is called once
// per host page write — a single branch when the cadence is 0, the
// default). Sampling allocates one row; enable it only when the time
// series is wanted.
//
// Export entry points (src/obs/export.cpp):
//   metrics_to_json / metrics_to_csv       — full registry dump
//   trace_to_chrome_json                   — chrome://tracing event file
//   write_text_file                        — tiny helper the tools share
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace phftl::obs {

/// One sampled row: every counter/gauge value at a virtual-clock instant.
/// Histograms contribute their observation count (full bucket contents are
/// end-of-run data — see metrics_to_json).
struct MetricsSnapshot {
  std::uint64_t now = 0;
  std::vector<double> values;  ///< registry registration order
};

class Observability {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// Sample all counters/gauges every `every` virtual-clock ticks
  /// (0 disables — the default).
  void set_snapshot_cadence(std::uint64_t every) {
    cadence_ = every;
    next_snapshot_ = every;
  }
  std::uint64_t snapshot_cadence() const { return cadence_; }

  /// Advance the snapshot clock; called once per host page write.
  void tick(std::uint64_t now) {
    if (cadence_ == 0 || now < next_snapshot_) return;
    take_snapshot(now);
    while (next_snapshot_ <= now) next_snapshot_ += cadence_;
  }

  void take_snapshot(std::uint64_t now) {
    MetricsSnapshot s;
    s.now = now;
    s.values.reserve(metrics_.size());
    for (const auto& e : metrics_.entries())
      s.values.push_back(metrics_.value_of(e));
    snapshots_.push_back(std::move(s));
  }

  const std::vector<MetricsSnapshot>& snapshots() const { return snapshots_; }

 private:
  MetricsRegistry metrics_;
  TraceRecorder trace_;
  std::vector<MetricsSnapshot> snapshots_;
  std::uint64_t cadence_ = 0;
  std::uint64_t next_snapshot_ = 0;
};

// --- exporters (src/obs/export.cpp) ---

/// Full registry dump: counters/gauges/histograms + snapshot series +
/// trace-ring summary.
std::string metrics_to_json(const Observability& obs);

/// Flat CSV: name,type,unit,field,value — histograms emit one row per
/// bucket (field le_<edge>) plus count/sum/min/max.
std::string metrics_to_csv(const Observability& obs);

/// chrome://tracing "traceEvents" JSON of the recorder's held events.
std::string trace_to_chrome_json(const TraceRecorder& trace);

/// Write `content` to `path`; returns false (and prints to stderr) on
/// failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace phftl::obs
