// JSON / CSV / chrome://tracing exporters for the observability layer.
//
// Output is deterministic (registration order, fixed number formatting) so
// tests can golden-check it and trajectory tooling can diff runs. The
// leading "phftl_obs": true key stays so existing files and the tools that
// read them keep their layout.
#include "obs/observability.hpp"

#include <cmath>
#include <cstdio>

namespace phftl::obs {

namespace {

/// Integers print as integers, everything else as %.9g — stable across
/// platforms for the value ranges metrics produce.
std::string fmt_num(double v) {
  char buf[64];
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_histogram_json(std::string& out, const Histogram& h) {
  out += "{\"count\": " + fmt_u64(h.count());
  out += ", \"sum\": " + fmt_num(h.sum());
  out += ", \"min\": " + fmt_num(h.min());
  out += ", \"max\": " + fmt_num(h.max());
  out += ", \"mean\": " + fmt_num(h.mean());
  out += ", \"buckets\": [";
  for (std::size_t i = 0; i <= h.edges().size(); ++i) {
    if (i) out += ", ";
    out += "{\"le\": ";
    out += i < h.edges().size() ? fmt_num(h.edges()[i]) : "\"+inf\"";
    out += ", \"count\": " + fmt_u64(h.bucket_count(i)) + "}";
  }
  out += "]}";
}

}  // namespace

std::string metrics_to_json(const Observability& obs) {
  const MetricsRegistry& m = obs.metrics();
  std::string out = "{\n";
  out += "  \"phftl_obs\": true,\n";

  for (const MetricType type :
       {MetricType::kCounter, MetricType::kGauge, MetricType::kHistogram}) {
    out += std::string("  \"") + metric_type_name(type) + "s\": {";
    bool first = true;
    for (const auto& e : m.entries()) {
      if (e.type != type) continue;
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"" + json_escape(e.name) + "\": {";
      if (type == MetricType::kHistogram) {
        out += "\"unit\": \"" + json_escape(e.unit) + "\", \"help\": \"" +
               json_escape(e.help) + "\", \"data\": ";
        append_histogram_json(out, m.histogram_at(e));
        out += "}";
      } else {
        out += "\"value\": " + fmt_num(m.value_of(e)) + ", \"unit\": \"" +
               json_escape(e.unit) + "\", \"help\": \"" + json_escape(e.help) +
               "\"}";
      }
    }
    out += first ? "},\n" : "\n  },\n";
  }

  // Snapshot series (simulated-time cadence sampling of counters/gauges).
  out += "  \"snapshots\": {\"cadence\": " + fmt_u64(obs.snapshot_cadence());
  out += ", \"columns\": [";
  for (std::size_t i = 0; i < m.entries().size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(m.entries()[i].name) + "\"";
  }
  out += "], \"rows\": [";
  for (std::size_t r = 0; r < obs.snapshots().size(); ++r) {
    const MetricsSnapshot& s = obs.snapshots()[r];
    if (r) out += ", ";
    out += "{\"now\": " + fmt_u64(s.now) + ", \"values\": [";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      if (i) out += ", ";
      out += fmt_num(s.values[i]);
    }
    out += "]}";
  }
  out += "]},\n";

  const TraceRecorder& t = obs.trace();
  out += std::string("  \"trace\": {\"enabled\": ") +
         (t.enabled() ? "true" : "false");
  out += ", \"capacity\": " + fmt_u64(t.capacity());
  out += ", \"recorded\": " + fmt_u64(t.total_recorded());
  out += ", \"dropped\": " + fmt_u64(t.dropped()) + "}\n";
  out += "}\n";
  return out;
}

std::string metrics_to_csv(const Observability& obs) {
  const MetricsRegistry& m = obs.metrics();
  std::string out = "name,type,unit,field,value\n";
  for (const auto& e : m.entries()) {
    const std::string prefix =
        e.name + "," + metric_type_name(e.type) + "," + e.unit + ",";
    if (e.type == MetricType::kHistogram) {
      const Histogram& h = m.histogram_at(e);
      for (std::size_t i = 0; i <= h.edges().size(); ++i) {
        out += prefix + "le_";
        out += i < h.edges().size() ? fmt_num(h.edges()[i]) : "+inf";
        out += "," + fmt_u64(h.bucket_count(i)) + "\n";
      }
      out += prefix + "count," + fmt_u64(h.count()) + "\n";
      out += prefix + "sum," + fmt_num(h.sum()) + "\n";
      out += prefix + "min," + fmt_num(h.min()) + "\n";
      out += prefix + "max," + fmt_num(h.max()) + "\n";
    } else {
      out += prefix + "value," + fmt_num(m.value_of(e)) + "\n";
    }
  }
  return out;
}

namespace {

/// Thread-lane layout of the chrome trace (one process, four named lanes).
constexpr int kTidFtl = 0;    // GC rounds, superblock lifecycle
constexpr int kTidMl = 1;     // page-classifier predictions
constexpr int kTidMeta = 2;   // metadata-cache hits/misses
constexpr int kTidFlash = 3;  // raw program/erase operations

void append_chrome_event(std::string& out, const TraceEvent& e) {
  const char* name = trace_event_name(e.type);
  switch (e.type) {
    case TraceEventType::kGcRoundBegin:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"gc\", \"ph\": \"B\", \"ts\": " + fmt_u64(e.ts) +
             ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"victim_sb\": " + fmt_u64(e.a) +
             ", \"valid_pages\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kGcRoundEnd:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"gc\", \"ph\": \"E\", \"ts\": " + fmt_u64(e.ts) +
             ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"victim_sb\": " + fmt_u64(e.a) +
             ", \"moved_pages\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kMlPredict:
      // Complete event; dur is the measured wall-clock latency in µs.
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"ml\", \"ph\": \"X\", \"ts\": " + fmt_u64(e.ts) +
             ", \"dur\": " + fmt_num(static_cast<double>(e.a) * 1e-3) +
             ", \"pid\": 0, \"tid\": " + fmt_num(kTidMl) +
             ", \"args\": {\"latency_ns\": " + fmt_u64(e.a) +
             ", \"class\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kSuperblockOpen:
    case TraceEventType::kSuperblockClose: {
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"ftl\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"sb\": " + fmt_u64(e.a) +
             ", \"stream\": " + fmt_num(e.stream);
      if (e.type == TraceEventType::kSuperblockClose)
        out += ", \"valid_pages\": " + fmt_u64(e.b);
      out += "}}";
      break;
    }
    case TraceEventType::kMetaCacheHit:
    case TraceEventType::kMetaCacheMiss:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"meta\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidMeta) +
             ", \"args\": {\"mppn\": " + fmt_u64(e.a) + "}}";
      break;
    case TraceEventType::kFlashProgram:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"flash\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFlash) +
             ", \"args\": {\"ppn\": " + fmt_u64(e.a) +
             ", \"stream\": " + fmt_num(e.stream) + "}}";
      break;
    case TraceEventType::kFlashErase:
    case TraceEventType::kEraseFail:
    case TraceEventType::kBlockRetired:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"flash\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFlash) +
             ", \"args\": {\"sb\": " + fmt_u64(e.a) + "}}";
      break;
    case TraceEventType::kProgramFail:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"flash\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFlash) +
             ", \"args\": {\"sb\": " + fmt_u64(e.a) +
             ", \"stream\": " + fmt_num(e.stream) + "}}";
      break;
    case TraceEventType::kTrimJournalAppend:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"journal\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"ppn\": " + fmt_u64(e.a) +
             ", \"records\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kTrimJournalCompact:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"journal\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"pages_after\": " + fmt_u64(e.a) +
             ", \"tombstones\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kEnospc:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"capacity\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"lpn\": " + fmt_u64(e.a) +
             ", \"mapped_pages\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kGcStep:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"gc\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"victim_sb\": " + fmt_u64(e.a) +
             ", \"moved_pages\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kGcPreempt:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"gc\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"victim_sb\": " + fmt_u64(e.a) +
             ", \"valid_remaining\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kWearLevel:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"wear\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"victim_sb\": " + fmt_u64(e.a) +
             ", \"migrated_pages\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kWearRetired:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"wear\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidFlash) +
             ", \"args\": {\"sb\": " + fmt_u64(e.a) +
             ", \"erase_count\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kTransCacheHit:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"mapping\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidMeta) +
             ", \"args\": {\"tpn\": " + fmt_u64(e.a) + "}}";
      break;
    case TraceEventType::kTransFetch:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"mapping\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidMeta) +
             ", \"args\": {\"ppn\": " + fmt_u64(e.a) +
             ", \"tpn\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kTransProgram:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"mapping\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidMeta) +
             ", \"args\": {\"ppn\": " + fmt_u64(e.a) +
             ", \"tpn\": " + fmt_u64(e.b) +
             ", \"stream\": " + fmt_num(e.stream) + "}}";
      break;
    case TraceEventType::kLearnedHit:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"mapping\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidMeta) +
             ", \"args\": {\"ppn\": " + fmt_u64(e.a) +
             ", \"lpn\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kLearnedMispredict:
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"mapping\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
             fmt_u64(e.ts) + ", \"pid\": 0, \"tid\": " + fmt_num(kTidMeta) +
             ", \"args\": {\"predicted_ppn\": " + fmt_u64(e.a) +
             ", \"lpn\": " + fmt_u64(e.b) + "}}";
      break;
    case TraceEventType::kRecovery:
      // Complete event on the FTL lane; dur is the measured rebuild time.
      out += "{\"name\": \"" + std::string(name) +
             "\", \"cat\": \"recovery\", \"ph\": \"X\", \"ts\": " +
             fmt_u64(e.ts) +
             ", \"dur\": " + fmt_num(static_cast<double>(e.b) * 1e-3) +
             ", \"pid\": 0, \"tid\": " + fmt_num(kTidFtl) +
             ", \"args\": {\"oob_scans\": " + fmt_u64(e.a) +
             ", \"rebuild_ns\": " + fmt_u64(e.b) + "}}";
      break;
  }
}

}  // namespace

std::string trace_to_chrome_json(const TraceRecorder& trace) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const char* lanes[] = {"ftl/gc", "ml", "meta-cache", "flash"};
  for (int tid = 0; tid < 4; ++tid) {
    if (tid) out += ",\n";
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " +
           fmt_num(tid) + ", \"args\": {\"name\": \"" +
           std::string(lanes[tid]) + "\"}}";
  }
  trace.for_each([&](const TraceEvent& e) {
    out += ",\n";
    append_chrome_event(out, e);
  });
  out += "\n]}\n";
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  const bool ok = n == content.size() && closed;
  if (!ok) std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace phftl::obs
