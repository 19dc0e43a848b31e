// Bounded ring-buffer trace recorder for typed simulator events.
//
// Recording is opt-in: a default-constructed recorder has capacity 0 and
// record() is a single load+branch. Tools (trace_replay --trace-out, tests)
// enable a fixed capacity before the run; once full, the ring wraps and the
// oldest events are overwritten (dropped() reports how many). Timestamps
// are the FTL virtual clock (host pages written — the paper's lifetime
// clock), except where an event carries a wall-clock latency in its
// payload (kMlPredict).
//
// Events export to chrome://tracing JSON via trace_to_chrome_json()
// (src/obs/export.cpp); load the file at chrome://tracing or ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <vector>

namespace phftl::obs {

enum class TraceEventType : std::uint8_t {
  kGcRoundBegin,     ///< a = victim sb, b = victim valid-page count
  kGcRoundEnd,       ///< a = victim sb, b = valid pages moved
  kSuperblockOpen,   ///< a = sb, stream = owning stream
  kSuperblockClose,  ///< a = sb, b = valid count at close, stream
  kMlPredict,        ///< a = predict latency ns (wall clock), b = class
  kMetaCacheHit,     ///< a = meta-page id (MPPN)
  kMetaCacheMiss,    ///< a = meta-page id (MPPN) — charged a flash read
  kFlashProgram,     ///< a = ppn, stream = target stream
  kFlashErase,       ///< a = sb
  kProgramFail,      ///< a = sb whose page aborted, stream = target stream
  kEraseFail,        ///< a = sb (block goes bad)
  kBlockRetired,     ///< a = sb taken out of service after a program failure
  kRecovery,         ///< a = OOB pages scanned, b = rebuild wall-clock ns
  kTrimJournalAppend,   ///< a = journal page ppn, b = range records in it
  kTrimJournalCompact,  ///< a = record pages after compaction, b = tombstones
  kEnospc,              ///< a = rejected lpn, b = mapped pages at rejection
  kGcStep,              ///< a = victim sb, b = valid pages moved this step
  kGcPreempt,           ///< a = victim sb, b = valid pages still in it
  kWearLevel,           ///< a = cold victim sb, b = pages migrated (round end)
  kWearRetired,         ///< a = sb retired at the P/E budget, b = erase count
  kTransCacheHit,       ///< a = translation page number (CMT hit)
  kTransFetch,          ///< a = fetched flash copy's ppn, b = tpn (CMT miss
                        ///< charged a flash read — the double-read penalty)
  kTransProgram,        ///< a = new flash copy's ppn, b = tpn, stream
  kLearnedHit,          ///< a = verified ppn, b = lpn (CMT miss served by
                        ///< the learned index — no translation fetch)
  kLearnedMispredict,   ///< a = predicted ppn, b = lpn (probe window failed
                        ///< OOB verification; fell back to the CMT path)
};

inline const char* trace_event_name(TraceEventType t) {
  switch (t) {
    case TraceEventType::kGcRoundBegin: return "gc_round";
    case TraceEventType::kGcRoundEnd: return "gc_round";
    case TraceEventType::kSuperblockOpen: return "sb_open";
    case TraceEventType::kSuperblockClose: return "sb_close";
    case TraceEventType::kMlPredict: return "ml_predict";
    case TraceEventType::kMetaCacheHit: return "meta_cache_hit";
    case TraceEventType::kMetaCacheMiss: return "meta_cache_miss";
    case TraceEventType::kFlashProgram: return "flash_program";
    case TraceEventType::kFlashErase: return "flash_erase";
    case TraceEventType::kProgramFail: return "program_fail";
    case TraceEventType::kEraseFail: return "erase_fail";
    case TraceEventType::kBlockRetired: return "block_retired";
    case TraceEventType::kRecovery: return "recovery";
    case TraceEventType::kTrimJournalAppend: return "trim_journal_append";
    case TraceEventType::kTrimJournalCompact: return "trim_journal_compact";
    case TraceEventType::kEnospc: return "enospc";
    case TraceEventType::kGcStep: return "gc_step";
    case TraceEventType::kGcPreempt: return "gc_preempt";
    case TraceEventType::kWearLevel: return "wear_level";
    case TraceEventType::kWearRetired: return "wear_retired";
    case TraceEventType::kTransCacheHit: return "trans_cache_hit";
    case TraceEventType::kTransFetch: return "trans_fetch";
    case TraceEventType::kTransProgram: return "trans_program";
    case TraceEventType::kLearnedHit: return "learned_hit";
    case TraceEventType::kLearnedMispredict: return "learned_mispredict";
  }
  return "?";
}

struct TraceEvent {
  std::uint64_t ts = 0;  ///< FTL virtual clock
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t stream = 0;
  TraceEventType type = TraceEventType::kGcRoundBegin;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;

  /// (Re)size the ring; clears previously recorded events. 0 disables.
  void enable(std::size_t capacity) {
    buf_.assign(capacity, TraceEvent{});
    head_ = 0;
    total_ = 0;
  }
  bool enabled() const { return !buf_.empty(); }

  void record(TraceEventType type, std::uint64_t ts, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint32_t stream = 0) {
    if (buf_.empty()) return;
    TraceEvent& e = buf_[head_];
    e.ts = ts;
    e.a = a;
    e.b = b;
    e.stream = stream;
    e.type = type;
    head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
    ++total_;
  }

  std::size_t capacity() const { return buf_.size(); }
  /// Events currently held (≤ capacity).
  std::size_t size() const {
    return total_ < buf_.size() ? static_cast<std::size_t>(total_)
                                : buf_.size();
  }
  std::uint64_t total_recorded() const { return total_; }
  /// Events overwritten by wraparound.
  std::uint64_t dropped() const { return total_ - size(); }

  /// Visit held events oldest → newest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = size();
    std::size_t idx = total_ > buf_.size() ? head_ : 0;
    for (std::size_t i = 0; i < n; ++i) {
      fn(buf_[idx]);
      idx = idx + 1 == buf_.size() ? 0 : idx + 1;
    }
  }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace phftl::obs
