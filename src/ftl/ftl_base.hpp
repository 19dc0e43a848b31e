// FTL framework: mapping, stream-based allocation, and the GC engine.
//
// FtlBase owns everything every FTL variant shares — the page-granularity
// L2P/P2L tables, per-superblock validity accounting, multi-stream open-
// superblock allocation, the free pool, and the GC loop — and delegates the
// policy decisions that differentiate the paper's schemes to virtuals:
//
//   * classify_user_write() — which stream a host-written page goes to
//     (Base: single stream; 2R: user stream; SepBIT: class 1/2 by inferred
//     lifetime; PHFTL: short-/long-living by the Page Classifier),
//   * classify_gc_write()  — stream for a GC-migrated page,
//   * pick_victim()        — victim-selection policy,
//   * finalize_superblock()— hook run when a superblock fills, before it is
//     closed (PHFTL programs its ML meta pages here, paper Fig. 4).
//
// The virtual clock counts host-written logical pages; the paper defines
// page lifetime in this clock (§III-B) and Eq. 1's "elapsed time" C in it.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/meta_cache.hpp"
#include "flash/flash_array.hpp"
#include "flash/geometry.hpp"
#include "ftl/learned_index.hpp"
#include "ftl/request.hpp"
#include "ftl/stats.hpp"
#include "ftl/victim_index.hpp"
#include "obs/observability.hpp"

namespace phftl {

class FaultInjector;

/// How the GC engine schedules a victim's relocation (docs/QOS.md).
enum class GcMode : std::uint8_t {
  /// Classic semantics: once triggered, GC relocates whole victims until
  /// the free pool is back above the trigger. The host write that tripped
  /// the trigger pays for every moved page.
  kStopTheWorld,
  /// Preemptive, time-sliced GC (Nagel et al.'s partial GC): each host
  /// write between the urgent floor and the trigger advances the in-flight
  /// round by at most `gc_step_pages` relocations, then yields back to the
  /// host. The victim survives as first-class FTL state between steps.
  kTimeSliced,
};

struct FtlConfig {
  Geometry geom;
  double op_ratio = 0.07;               ///< over-provisioning (paper: 7 %)
  double gc_free_threshold = 0.05;      ///< GC when free-superblock ratio < 5 %
  std::uint32_t max_gc_streams = 5;     ///< GC-count separation cap (paper: 5+)
  GcMode gc_mode = GcMode::kStopTheWorld;
  /// Valid-page relocation budget of one time-sliced GC step (the per-write
  /// tail-latency bound; ignored under kStopTheWorld). docs/QOS.md.
  std::uint64_t gc_step_pages = 8;
  /// Optional NAND fault injector (not owned; must outlive the FTL). When
  /// set, programs/erases may fail and the FTL exercises its degradation
  /// paths — see docs/RECOVERY.md §"Fault model".
  FaultInjector* fault_injector = nullptr;
  /// P/E-cycle retirement budget per superblock (docs/ENDURANCE.md): a
  /// block's final budgeted erase retires it at end-of-life (kBad), which
  /// shrinks the capacity watermark until the drive goes read-only with a
  /// clean ENOSPC. 0 = unlimited (default; bit-identical to pre-endurance
  /// behavior).
  std::uint64_t max_pe_cycles = 0;
  /// Static wear-leveling trigger (docs/ENDURANCE.md): start a leveling
  /// round — cold-data migration into the most-worn free superblock — when
  /// max(erase count) - mean(erase count) over in-service superblocks
  /// exceeds this. Rounds ride the GC machinery, so under kTimeSliced they
  /// respect the per-write gc_step_pages bound (docs/QOS.md). 0 disables
  /// (default; bit-identical to pre-endurance behavior).
  std::uint64_t wear_level_threshold = 0;
  /// Demand-paged flash-resident mapping tier (docs/MAPPING.md):
  /// translation pages on flash, a RAM Global Translation Directory, and a
  /// FlatMetaCache-backed cached mapping table with dirty-entry write-back
  /// batching. false (default) = pure in-RAM L2P, bit-identical to the
  /// pre-tier FTL (CI-enforced against BENCH_replay.json).
  bool mapping_tier = false;
  /// CMT capacity in resident translation pages (mapping_tier only).
  std::uint64_t cmt_pages = 64;
  /// L2P entries per translation page. 0 (default) derives the physical
  /// maximum, page_size / 8 — one 8-byte PPN slot per element of the page's
  /// data-area blob. Smaller values emulate the translation-page count of a
  /// production-scale drive on the simulator's small geometries
  /// (docs/MAPPING.md "RAM-budget methodology"); must not exceed the
  /// physical maximum.
  std::uint64_t tp_entries = 0;
  /// Dirty write-back batching: evicted-dirty translation pages buffer in
  /// RAM and flush to flash once this many are pending (and always at
  /// drain()). 1 = write through on every dirty eviction.
  std::uint64_t cmt_wb_batch = 8;
  /// Learned index over the mapping tier (docs/MAPPING.md "Learned
  /// index"): piecewise-linear LPN->PPN segments trained at translation-
  /// page write-back serve CMT misses with one OOB-verified probe instead
  /// of a translation-page fetch — the DFTL double read becomes a single
  /// flash read when the prediction verifies. Requires mapping_tier.
  /// false (default) = model never consulted, lookup path bit-identical to
  /// the plain tier (CI-enforced).
  bool learned_index = false;
  /// PLR fit tolerance: a trained segment's predictions are within
  /// ±learned_error_bound of the true PPN, and the verify probe scans at
  /// most that far around the prediction (the stored per-segment radius,
  /// usually 0, bounds it tighter). Widening the bound shrinks the model
  /// (fewer, longer segments) but every extra unit of radius costs wasted
  /// verify probes on the host read path — on stream-interleaved layouts
  /// (PHFTL) a wide bound can cost more reads than the translation fetch
  /// it avoids, so the default stays tight. Max 250.
  std::uint32_t learned_error_bound = 1;
};

/// What a mount-time recover() call observed and rebuilt. Returned to the
/// caller and passed to the on_recovery() scheme hook.
struct RecoveryReport {
  std::uint64_t oob_scans = 0;        ///< OOB areas inspected by the rebuild
  std::uint64_t mapped_lpns = 0;      ///< LPNs with a live mapping afterwards
  std::uint64_t open_sbs_closed = 0;  ///< superblocks left open by the cut
  std::uint64_t recovered_vclock = 0; ///< virtual clock after recovery
  std::uint64_t rebuild_ns = 0;       ///< wall-clock time of the whole mount
  /// Trim-journal range records replayed against the rebuilt mapping.
  std::uint64_t trim_records_replayed = 0;
  /// LPNs the replay tombstoned (resurrected stale copies unmapped again).
  std::uint64_t trim_tombstones = 0;
  /// Mapping tier: GTD entries recovered from translation-page OOB stamps.
  std::uint64_t trans_gtd_rebuilt = 0;
  /// Mapping tier: translation pages rewritten by mount-time
  /// reconciliation because their flash content diverged from the
  /// OOB-rebuilt truth (dirty CMT entries lost to the cut, trim-journal
  /// replay, or a cut mid-write-back). docs/MAPPING.md "Crash semantics".
  std::uint64_t trans_reconciled = 0;
};

class FtlBase {
 public:
  /// "No superblock" sentinel (pick_victim abort, idle gc_inflight_victim).
  static constexpr std::uint64_t kNoVictim = ~0ULL;

  FtlBase(const FtlConfig& cfg, std::uint32_t num_streams);
  virtual ~FtlBase() = default;

  FtlBase(const FtlBase&) = delete;
  FtlBase& operator=(const FtlBase&) = delete;

  /// Number of logical pages exported to the host.
  std::uint64_t logical_pages() const { return logical_pages_; }

  /// Submit a block-layer request; pages are processed in order. Aborts
  /// (PHFTL_CHECK) if a write is rejected at the capacity watermark — use
  /// submit_checked() to observe ENOSPC instead.
  void submit(const HostRequest& req);
  /// Admission-checked submit: write pages past the capacity watermark are
  /// rejected with WriteResult::kEnospc instead of aborting. Pages are
  /// processed in order; see SubmitResult for partial-completion semantics.
  SubmitResult submit_checked(const HostRequest& req);

  /// Single-page operations (page-granularity convenience API).
  void write_page(Lpn lpn, const WriteContext& ctx);
  /// Admission-checked single-page write. Returns kEnospc — with no state
  /// modified — when accepting the page would push the mapped-page count
  /// past capacity_watermark_pages(); kOk otherwise.
  WriteResult try_write_page(Lpn lpn, const WriteContext& ctx);
  /// Returns the stored payload, or 0 if the page was never written.
  std::uint64_t read_page(Lpn lpn);
  /// Discard a logical page (TRIM). Returns true if the page was mapped
  /// (an effective trim, journaled for crash durability).
  bool trim_page(Lpn lpn);

  /// Leave the drive quiescent: complete a parked time-sliced GC round and,
  /// with the mapping tier on, flush the write-back buffer of dirty
  /// translation entries to flash. Harnesses call this after the last
  /// request and before reading final statistics.
  void drain();

  bool is_mapped(Lpn lpn) const { return l2p_[lpn] != kInvalidPpn; }
  Ppn lookup(Lpn lpn) const { return l2p_[lpn]; }

  const FtlStats& stats() const { return stats_; }
  const FlashArray& flash() const { return flash_; }
  const FtlConfig& config() const { return cfg_; }
  std::uint64_t virtual_clock() const { return virtual_clock_; }
  std::uint64_t free_superblock_count() const { return free_pool_.size(); }
  std::uint32_t num_streams() const { return num_streams_; }

  /// Logical pages currently mapped (tracked incrementally).
  std::uint64_t mapped_page_count() const { return mapped_count_; }
  /// Superblock a preempted time-sliced GC round is mid-way through
  /// relocating, or kNoVictim when no round is in flight. The in-flight
  /// victim is closed but deliberately absent from the victim index; it
  /// re-enters either when the round finishes (erase) or at mount-time
  /// recovery (docs/QOS.md, docs/RECOVERY.md).
  std::uint64_t gc_inflight_victim() const { return gc_victim_; }
  /// Valid pages the in-flight round has relocated so far (0 when idle).
  std::uint64_t gc_inflight_valid_moved() const { return gc_round_moved_; }
  /// Host-visible capacity in pages under the current physical reserve:
  /// superblocks minus bad blocks, the GC free-pool target, and the
  /// trim-journal reserve, times the data capacity of a superblock. Writes
  /// that would map more pages than this are rejected with kEnospc. Shrinks
  /// as blocks go bad or are retired; 0 means the drive is read-only.
  std::uint64_t capacity_watermark_pages() const;
  /// True if `sb` currently holds trim-journal record pages (excluded from
  /// the victim index and from the data capacity).
  bool is_journal_sb(std::uint64_t sb) const {
    return is_journal_sb_[sb] != 0;
  }
  std::uint64_t trim_journal_superblocks() const {
    return journal_sbs_.size();
  }
  /// Trimmed-and-not-rewritten LPNs the journal currently guarantees stay
  /// unmapped across an unclean shutdown.
  std::uint64_t live_tombstones() const { return live_tombstones_; }

  // --- demand-paged mapping tier introspection (docs/MAPPING.md) ---
  bool mapping_tier_enabled() const { return cfg_.mapping_tier; }
  /// Translation pages covering the logical space (GTD size).
  std::uint64_t num_translation_pages() const { return num_tps_; }
  /// L2P entries per translation page (resolved from FtlConfig::tp_entries).
  std::uint64_t tp_entries() const { return tp_entries_; }
  /// Translation pages currently resident in the CMT.
  std::uint64_t cmt_resident() const { return cmt_.size(); }
  /// Evicted-dirty translation pages buffered for write-back.
  std::uint64_t wb_pending() const { return wb_buffer_.size(); }
  /// Mapping-tier RAM footprint in bytes: GTD + CMT entry slab + dirty
  /// flags + write-back buffer capacity. The quantity BENCH_mapping.json
  /// compares against the baseline logical_pages() * 8 in-RAM table
  /// (docs/MAPPING.md "RAM-budget methodology"). 0 when the tier is off.
  std::uint64_t mapping_ram_bytes() const;
  /// Ground-truth mapping check: the tier serves `lpn` from translation-
  /// page content and must agree with the always-maintained l2p_ shadow.
  /// Mutates CMT state (demand fetch) like a host read, without the read
  /// itself. Test hook for the differential suite.
  Ppn tier_lookup(Lpn lpn);
  /// Learned-index segments currently held (0 when the knob is off).
  std::uint64_t learned_segments() const {
    return cfg_.learned_index ? learned_.segment_count() : 0;
  }
  /// Learned-index model RAM, as charged into mapping_ram_bytes().
  std::uint64_t learned_index_bytes() const {
    return cfg_.learned_index ? learned_.ram_bytes() : 0;
  }
  /// Direct model access for tests (fault injection via
  /// corrupt_segment_for_test, segment inspection). Not a data path.
  LearnedIndex& learned_index_for_test() { return learned_; }

  // --- endurance introspection (docs/ENDURANCE.md) ---
  /// The FTL's RAM wear table: erase count of `sb` as this FTL knows it.
  /// Matches flash().erase_count(sb) exactly during normal operation; after
  /// an unclean-shutdown mount it is re-derived from the per-page OOB
  /// erase-count stamps — exact for open/closed superblocks, a lower bound
  /// (0) for free ones, mirroring the close_time contract in RECOVERY.md.
  std::uint64_t wear_count(std::uint64_t sb) const { return wear_[sb]; }
  /// Mean wear over in-service (non-bad) superblocks, per the FTL's table.
  double wear_mean() const;
  /// max(wear) - mean(wear) over in-service superblocks — the static
  /// wear-leveling trigger quantity. Leveling fires when this exceeds
  /// FtlConfig::wear_level_threshold.
  double wear_spread() const;

  /// Test hook: jump the virtual clock forward (e.g. near 2^32 to exercise
  /// timestamp-width regressions). Must not move the clock backwards.
  void seed_virtual_clock(std::uint64_t v);

  /// Human-readable scheme name for benchmark tables.
  virtual std::string name() const = 0;

  /// This instance's observability surface (metrics registry + trace
  /// recorder + snapshot series; docs/METRICS.md documents every metric).
  /// Counters and trace events update as the FTL runs; gauges (WA, hit
  /// rates, threshold, ...) are point-in-time values — call
  /// refresh_observability() before exporting.
  obs::Observability& observability() { return obs_; }
  const obs::Observability& observability() const { return obs_; }

  /// Recompute all gauges from the current FTL state. Subclasses extend
  /// this with their policy-side gauges (classifier quality, cache hit
  /// rate, lifetime estimates, ...).
  virtual void refresh_observability();

  /// Mount-time recovery: rebuild the L2P table, validity bitmaps, and
  /// per-superblock accounting purely from the flash array's OOB areas
  /// (the in-RAM mapping is lost on power failure). For each LPN the copy
  /// with the highest program sequence number wins; bad superblocks are
  /// excluded from the scan (retirement only happens after GC drained
  /// them, so the newest copy of an LPN never lives in a bad block).
  /// Returns the number of OOB areas inspected. Policy-side state
  /// (classifier, heuristic tables) is *not* reconstructed — schemes
  /// relearn it, as real devices do after an unclean shutdown.
  std::uint64_t rebuild_mapping_from_flash();

  /// Full unclean-shutdown mount (docs/RECOVERY.md). Simulates losing all
  /// RAM state at an arbitrary point — including mid-request and mid-GC —
  /// and reconstructs everything re-derivable from flash:
  ///   1. superblocks left open by the cut are closed (their unwritten tail
  ///      pages stay unused; no meta pages are programmed),
  ///   2. one pass over every programmed page's OOB rebuilds L2P /
  ///      validity / per-superblock accounting / victim index (as
  ///      rebuild_mapping_from_flash does) and, in the same pass, the wear
  ///      table (erase-count stamps), each superblock's close_time (its
  ///      newest user page) and the virtual clock, which restarts at
  ///      max(write_time of any user page)+1 — a lower bound on the
  ///      pre-crash clock (documented in RECOVERY.md),
  ///   3. the trim-journal record pages that pass found are replayed
  ///      *after* the rebuild: any LPN whose newest flash copy predates its
  ///      journaled trim is unmapped again (trimmed pages stay trimmed —
  ///      docs/RECOVERY.md),
  ///   4. the free pool is rebuilt from free superblocks,
  ///   5. the scheme's on_recovery() hook re-derives or resets policy state
  ///      (PHFTL: meta cache cold start, trainer/threshold safe defaults),
  ///   6. with the mapping tier on, diverged translation pages are
  ///      rewritten (docs/MAPPING.md "Crash semantics"),
  ///   7. the journal is compacted so it occupies at most one superblock.
  /// Cumulative FtlStats are process-lifetime diagnostics and survive.
  RecoveryReport recover();

  /// True if `sb` suffered a program failure and awaits retirement (the
  /// block is closed; GC will drain and retire it instead of erasing).
  bool pending_retire(std::uint64_t sb) const {
    return pending_retire_[sb] != 0;
  }

  // --- Introspection used by victim policies and tests ---
  std::uint64_t valid_count(std::uint64_t sb) const {
    return sb_meta_[sb].valid_count;
  }
  std::uint64_t close_time(std::uint64_t sb) const {
    return sb_meta_[sb].close_time;
  }
  std::uint32_t stream_of(std::uint64_t sb) const {
    return sb_meta_[sb].stream;
  }
  bool page_valid(Ppn ppn) const { return valid_bit_[ppn] != 0; }
  Lpn page_lpn(Ppn ppn) const { return p2l_[ppn]; }
  std::uint8_t page_gc_count(Ppn ppn) const { return gc_count_[ppn]; }

  /// Iterate closed superblocks (victim candidates). Backed by the
  /// incremental victim index, so this visits exactly the closed set
  /// without scanning flash state; the visitor is a template (no
  /// std::function indirection on the GC path). Order is unspecified.
  template <typename Fn>
  void for_each_closed(Fn&& fn) const {
    victim_index_.visit_ascending(
        [&](std::uint64_t /*valid*/, const std::vector<std::uint64_t>& sbs) {
          for (const std::uint64_t sb : sbs) fn(sb);
          return true;
        });
  }

  /// Visit closed superblocks grouped by valid count, ascending (i.e. by
  /// descending invalid fraction). `fn(valid_count, candidates)` returns
  /// false to stop the walk — policies whose score is bounded by the
  /// invalid fraction use this to prune whole buckets.
  template <typename Fn>
  bool visit_closed_by_valid(Fn&& fn) const {
    return victim_index_.visit_ascending(std::forward<Fn>(fn));
  }

  /// Number of closed superblocks (victim candidates).
  std::uint64_t closed_count() const { return victim_index_.size(); }

  /// Greedy victim: a closed superblock with the fewest valid pages, via
  /// an O(1) index pop instead of the historical O(superblocks) scan.
  /// Tie-breaking is unspecified but deterministic. Returns ~0ULL when no
  /// superblock is closed.
  std::uint64_t greedy_victim() const { return victim_index_.min_valid_sb(); }

 protected:
  // --- Policy hooks ---
  virtual std::uint32_t classify_user_write(Lpn lpn,
                                            const WriteContext& ctx) = 0;
  virtual std::uint32_t classify_gc_write(Lpn lpn, std::uint8_t gc_count,
                                          const OobData& oob) = 0;
  /// Stream for a page migrated by a static wear-leveling round. The
  /// victim was chosen *because* its data is cold, so schemes may route
  /// these pages more aggressively than ordinary GC survivors; the default
  /// treats them exactly like GC migrations. docs/ENDURANCE.md.
  virtual std::uint32_t classify_wl_write(Lpn lpn, std::uint8_t gc_count,
                                          const OobData& oob) {
    return classify_gc_write(lpn, gc_count, oob);
  }
  /// Stream label for a translation-page program (docs/MAPPING.md).
  /// Translation pages live in their own open superblocks — one per
  /// returned stream id, never mixed with user data — but the label drives
  /// per-stream accounting and lets schemes separate mapping metadata by
  /// churn: `gc_migration` distinguishes a fresh dirty write-back (churns
  /// with the host working set) from a GC-migrated survivor (cold enough
  /// to outlive its block). Default: everything to stream 0.
  virtual std::uint32_t classify_translation_write(std::uint64_t /*tpn*/,
                                                   bool /*gc_migration*/) {
    return 0;
  }
  /// Pick a victim among closed superblocks; kNoVictim aborts this GC round.
  virtual std::uint64_t pick_victim() = 0;

  /// Pages of a superblock usable for data (rest reserved for meta pages).
  virtual std::uint64_t data_capacity(std::uint64_t /*sb*/) const {
    return geom().pages_per_superblock();
  }
  /// Called when a superblock's data region fills, before close. PHFTL
  /// programs meta pages here via program_meta_page().
  virtual void finalize_superblock(std::uint64_t /*sb*/) {}
  /// Notification hooks.
  virtual void on_page_invalidated(Lpn /*lpn*/, Ppn /*ppn*/,
                                   std::uint64_t /*now*/) {}
  virtual void on_superblock_erased(std::uint64_t /*sb*/) {}
  /// Called once per submitted request, before its pages are processed
  /// (PHFTL's feature tracker consumes request-level statistics here).
  virtual void on_request(const HostRequest& /*req*/) {}
  /// Called once per host page write after the page has been appended.
  virtual void on_host_write_complete(Lpn /*lpn*/, Ppn /*ppn*/,
                                      const WriteContext& /*ctx*/) {}
  /// Called after a GC migration has appended the page at `new_ppn`.
  virtual void on_gc_write_complete(Lpn /*lpn*/, Ppn /*new_ppn*/,
                                    const OobData& /*oob*/) {}
  /// Let the subclass add fields to a user-written page's OOB area
  /// (PHFTL stores the page's new hidden state there, §III-C).
  virtual void fill_user_oob(Lpn /*lpn*/, OobData& /*oob*/) {}
  /// Called at the end of recover(), after the base mapping/index rebuild,
  /// so the scheme can re-derive (from flash) or reset (to safe defaults)
  /// its policy state. Base/2R need nothing; SepBIT and PHFTL override.
  virtual void on_recovery(const RecoveryReport& /*report*/) {}

  // --- Services for subclasses ---
  const Geometry& geom() const { return cfg_.geom; }

  /// Program one meta page into the open superblock tail (counts as a meta
  /// write). Only legal inside finalize_superblock().
  Ppn program_meta_page(std::uint64_t sb, std::uint64_t payload);
  /// Account a meta-page read (metadata cache miss).
  void note_meta_read() { ++stats_.meta_reads; }

  /// True while the GC engine is migrating pages (lets hooks distinguish
  /// user-triggered invalidations from GC ones).
  bool in_gc() const { return in_gc_; }

 private:
  struct SbMeta {
    std::uint64_t valid_count = 0;
    std::uint64_t close_time = 0;  ///< virtual clock when closed
    std::uint32_t stream = 0;
  };
  /// What recover() takes from the OOB pass beyond the rebuilt mapping.
  struct MountScan {
    /// Per LPN: program_seq of the copy that won the rebuild.
    std::vector<std::uint64_t> best_seq;
    /// Trim-journal record pages with their trim_seq cutoffs, in scan order.
    std::vector<std::pair<Ppn, std::uint64_t>> journal;
    /// max(write_time) + 1 over every programmed user page.
    std::uint64_t vclock = 0;
  };
  /// "No open superblock" marker in open_.
  static constexpr std::uint64_t kNoSb = ~0ULL;

  /// The one program-with-retry write path for data (PageKind::kUser),
  /// trim-journal and translation pages. Programs `oob` plus `payload` (or
  /// `*blob` as the data area) into the open superblock of `kind`'s slot
  /// for `stream`, opening one as needed. A program failure closes the
  /// block, marks it pending-retire, and the page retries on a fresh
  /// superblock. The kind, a template argument so that the data path
  /// carries no per-page kind branches, picks only
  ///   * the fill bound: data_capacity() for data, the raw superblock
  ///     otherwise; finalize_superblock() runs for data only,
  ///   * whether closed or failed blocks enter the victim index: not
  ///     journal blocks, which only compaction reclaims,
  ///   * the empty-pool policy: journal and translation pages first run
  ///     maybe_gc(); data and translation pages then borrow another
  ///     stream's open block of their kind.
  /// `key` is the P2L entry of a data (LPN) or translation (TPN) page.
  /// Journal pages get their trim_seq cutoff stamped into `oob` per attempt.
  template <PageKind kind>
  Ppn append(std::uint32_t stream, std::uint64_t key, std::uint64_t payload,
             OobData& oob, const std::vector<std::uint64_t>* blob);
  /// open_ index of `kind`'s slot for `stream`.
  std::size_t open_slot(PageKind kind, std::uint32_t stream) const {
    if (kind == PageKind::kUser) return stream;
    if (kind == PageKind::kTranslation) return num_streams_ + stream;
    return 2 * std::size_t{num_streams_};  // the trim journal's one slot
  }
  /// Close open superblock `sb` at the current clock; `indexed` also enters
  /// it into the victim index.
  void close_superblock(std::uint64_t sb, bool indexed);
  /// Program-failure bookkeeping for `sb` (counters, trace) and the one
  /// place a block is marked pending-retire.
  void note_program_failure(std::uint64_t sb);
  /// Clear a valid page's validity bit and P2L entry and decrement its
  /// superblock's valid count, re-bucketing the block if it is indexed.
  /// Inline: host writes and GC relocations call it once per page.
  void drop_valid_page(Ppn ppn) {
    drop_valid_page(ppn, geom().superblock_of(ppn));
  }
  /// The same, for a caller that already knows ppn's superblock `sb`.
  void drop_valid_page(Ppn ppn, std::uint64_t sb) {
    PHFTL_CHECK_MSG(valid_bit_[ppn], "mapping points at invalid page");
    valid_bit_[ppn] = 0;
    p2l_[ppn] = kInvalidLpn;
    PHFTL_CHECK(sb_meta_[sb].valid_count > 0);
    --sb_meta_[sb].valid_count;
    if (victim_index_.contains(sb))  // closed blocks migrate buckets
      victim_index_.update(sb, sb_meta_[sb].valid_count);
  }
  /// Data pages the open data superblocks can still take.
  std::uint64_t open_data_room() const;
  void invalidate(Lpn lpn);
  std::uint64_t allocate_superblock(std::uint32_t stream);
  void maybe_gc();
  /// One full GC round (finishing a preempted one first); returns false
  /// when no victim can reclaim anything right now.
  bool gc_once();
  /// Claim a victim and set up the in-flight round state (cursor at offset
  /// 0, nothing moved). Returns false — with nothing claimed — when
  /// pick_victim backs off or the best victim is fully valid.
  bool gc_begin_round();
  /// Advance the in-flight round: relocate up to `budget` valid pages from
  /// the victim, starting at the saved cursor. Pages host writes or trims
  /// invalidated since the last step are skipped for free. Returns true
  /// when the victim is fully drained — then also retires/erases it and
  /// clears the in-flight state — and false on preemption (budget hit with
  /// valid pages left).
  bool gc_step(std::uint64_t budget);

  // --- static wear leveling (docs/ENDURANCE.md) ---
  /// Start or advance a wear-leveling round when the spread trigger fires
  /// and no GC pressure claims the slice. Under kTimeSliced this advances
  /// by one bounded gc_step (the QoS per-write bound covers WL work too);
  /// under kStopTheWorld the round completes synchronously. No-op when
  /// wear_level_threshold == 0.
  void maybe_wear_level();
  /// Cold WL victim: an indexed closed superblock with wear strictly below
  /// the mean, oldest close_time first. kNoVictim when none qualifies.
  std::uint64_t pick_wl_victim() const;
  /// Claim `victim` for a wear-leveling round (bypasses pick_victim and
  /// the fully-valid back-off: relocating a fully valid cold block is the
  /// whole point of static leveling).
  void wl_begin_round(std::uint64_t victim);
  /// Advance the in-flight round by one slice, with the same preemption
  /// accounting maybe_gc applies.
  void advance_round(std::uint64_t budget);
  /// Wear bookkeeping after a successful (budget-surviving) erase of `sb`.
  void note_erase(std::uint64_t sb);
  /// Wear bookkeeping when `sb` leaves service (retired / erase failure /
  /// budget exhausted): its wear exits the in-service pool.
  void note_block_lost(std::uint64_t sb);
  /// Shared end-of-round disposal of a drained victim: retire it if it is
  /// pending-retire, otherwise erase it — handling erase failures and
  /// P/E-budget exhaustion.
  void dispose_drained_superblock(std::uint64_t sb);
  /// The OOB rebuild behind rebuild_mapping_from_flash(): one pass over
  /// every programmed page. With `mount` set, the same pass re-derives the
  /// wear table from the erase-count stamps (lower-bound contract —
  /// docs/ENDURANCE.md) and each superblock's close_time, and fills
  /// `*mount` for the journal replay and the clock. Returns the number of
  /// OOB areas inspected.
  std::uint64_t rebuild_from_oob(MountScan* mount);

  /// Shared body of write_page / try_write_page. `checked` selects whether
  /// the capacity watermark rejects (kEnospc) or aborts.
  WriteResult write_page_impl(Lpn lpn, const WriteContext& ctx, bool checked);
  /// Trim [start, start+n): raw-unmap every mapped page, set tombstones,
  /// and journal the effective runs. Returns the number of effective trims.
  std::uint64_t trim_range(Lpn start, std::uint64_t n);
  /// Flush (start,len) range pairs to the journal, chunked to page-sized
  /// records; outside compaction, may trigger one afterwards.
  void append_journal_records(const std::vector<std::uint64_t>& pairs);
  /// Rewrite the live tombstone set densely into a fresh journal
  /// superblock, then reclaim the old journal superblocks.
  void compact_trim_journal();
  /// Recovery step: replay the journal record pages the mount scan found
  /// against the rebuilt mapping, unmapping any LPN whose newest flash copy
  /// predates its trim.
  void replay_trim_journal(const MountScan& scan, RecoveryReport& rep);
  /// Unmap without policy hooks (recovery replay / trim): clears validity,
  /// P2L, L2P, and fixes the victim index if the superblock is closed.
  void raw_unmap(Lpn lpn);

  // --- demand-paged mapping tier (docs/MAPPING.md) ---
  /// Tier read path: serve `lpn` from translation-page content (demand-
  /// fetching the owning page into the CMT) and cross-check against the
  /// l2p_ shadow. `host_read` charges the fetch to the read-amplification
  /// ledger.
  Ppn map_lookup(Lpn lpn, bool host_read);
  /// Tier write path: patch `lpn`'s slot in the owning translation page
  /// (demand-fetched, marked dirty). `new_ppn == kInvalidPpn` records a
  /// trim. Tolerates being called just before or after the l2p_ update.
  void map_update(Lpn lpn, Ppn new_ppn);
  /// Ensure `tpn` is CMT-resident and return its slab node: hit, adopt
  /// from the write-back buffer, fetch the flash copy, or materialize a
  /// never-written segment empty. `exempt_idx` names the one in-segment
  /// slot allowed to disagree with l2p_ (the slot an in-flight update is
  /// about to patch); every other fetched slot is integrity-checked.
  std::uint32_t cmt_fetch(std::uint64_t tpn, std::uint64_t exempt_idx,
                          bool host_read);
  /// Program one translation page through append() (GTD update + old-copy
  /// invalidation). Returns the new flash copy's PPN.
  Ppn append_translation_page(std::uint64_t tpn,
                              std::vector<std::uint64_t> blob,
                              bool gc_migration);
  /// Flush every buffered evicted-dirty translation page to flash.
  void flush_wb_buffer();
  /// Batched flush trigger: flush when the buffer reaches cmt_wb_batch,
  /// never re-entrantly and never inside a GC step (the step defers to the
  /// next host-path safe point so the QoS budget excludes write-backs).
  void maybe_flush_wb();
  /// Remove `tpn` from the write-back buffer, moving its content into
  /// `out`. Returns false (out untouched) if not buffered.
  bool wb_take(std::uint64_t tpn, std::vector<std::uint64_t>& out);
  /// True if the write-back buffer holds `tpn`.
  bool wb_contains(std::uint64_t tpn) const;
  /// Mount-time reconciliation (docs/MAPPING.md "Crash semantics"): after
  /// the OOB rebuild + trim replay, rewrite any translation page whose
  /// flash content diverged from the rebuilt truth, and drop GTD entries
  /// of segments that became fully unmapped.
  void reconcile_translation_pages(RecoveryReport& rep);
  /// GC migration of one valid translation page out of `victim` at `ppn`
  /// (resident CMT content wins; otherwise the flash copy is read).
  void gc_migrate_translation_page(std::uint64_t victim, Ppn ppn);
  /// Learned-index fast path (docs/MAPPING.md "Learned index"): predict
  /// `lpn`'s PPN and probe outward from it (±radius), verifying each
  /// candidate's OOB LPN against the validity bitmap. A verified probe IS
  /// the data read — returns its PPN with no CMT traffic; any mismatch
  /// returns kInvalidPpn (counted as a mispredict) and the caller falls
  /// back to the GTD/CMT path. Only called when the owning translation
  /// page is non-resident, unbuffered, not mid-flush, and GTD-valid — the
  /// window where the flash blob (what the model was trained on) is the
  /// mapping truth.
  Ppn learned_lookup(Lpn lpn, bool host_read);

  /// Register the FTL-layer metrics and cache their handles (cold path;
  /// run once from the constructor).
  void register_ftl_metrics();

  FtlConfig cfg_;
  FlashArray flash_;
  std::uint64_t logical_pages_;
  std::uint32_t num_streams_;
  std::uint64_t gc_trigger_count_;

  std::vector<Ppn> l2p_;
  std::vector<Lpn> p2l_;
  std::vector<std::uint8_t> valid_bit_;
  std::vector<std::uint8_t> gc_count_;
  std::vector<SbMeta> sb_meta_;
  /// Open superblock per append slot (kNoSb when none): data streams at
  /// [0, num_streams_), translation streams at [num_streams_,
  /// 2*num_streams_), the trim journal at 2*num_streams_. Page kinds never
  /// share a superblock.
  std::vector<std::uint64_t> open_;
  /// RAM-only flag per superblock: a program failure happened there and the
  /// block must be retired (not erased) once GC drains it. Wiped by
  /// recover() — a real FTL would journal its bad-block table; here the
  /// flash array's kBad states persist and un-retired blocks simply rejoin
  /// the closed set until they fail again (docs/RECOVERY.md).
  std::vector<std::uint8_t> pending_retire_;
  std::deque<std::uint64_t> free_pool_;
  /// Closed superblocks bucketed by valid count. Invariant outside gc_once:
  /// indexed(sb) ⇔ flash state(sb) == kClosed, at sb's current valid count.
  VictimIndex victim_index_;

  FtlStats stats_;
  std::uint64_t virtual_clock_ = 0;
  std::uint64_t prev_req_end_ = kInvalidLpn;
  bool in_gc_ = false;

  // --- in-flight GC round (first-class state under kTimeSliced) ---
  /// Victim a started round is relocating; kNoVictim when idle. Closed,
  /// and out of the victim index for the round's whole lifetime.
  std::uint64_t gc_victim_ = kNoVictim;
  /// Next page offset gc_step() will examine inside gc_victim_.
  std::uint64_t gc_cursor_ = 0;
  /// Valid pages moved by the in-flight round so far.
  std::uint64_t gc_round_moved_ = 0;
  /// Time-sliced urgent floor: below this many free superblocks, maybe_gc
  /// completes whole rounds synchronously instead of yielding, so the free
  /// pool can never run dry between steps (always <= gc_trigger_count_).
  std::uint64_t gc_urgent_count_ = 2;

  // --- endurance state (docs/ENDURANCE.md) ---
  /// The FTL's RAM wear table (erase count per superblock). Kept in
  /// lockstep with the flash array during normal operation; wiped and
  /// re-derived from OOB erase-count stamps at mount (lower bounds).
  std::vector<std::uint64_t> wear_;
  /// Sum of wear_ over in-service (non-bad) superblocks, maintained
  /// incrementally so the spread trigger is O(1) per write.
  std::uint64_t wear_sum_ = 0;
  /// Max of wear_ over in-service superblocks. Recomputed (O(superblocks))
  /// only when the max-holding block leaves service — rare.
  std::uint64_t wear_max_ = 0;
  /// True while the in-flight round (gc_victim_) is a wear-leveling round:
  /// migrations classify through classify_wl_write, land in the most-worn
  /// free superblock, and count as wl_migrations.
  bool wl_round_ = false;

  // --- trim journal + capacity accounting ---
  /// All superblocks holding journal records (open + closed), oldest first.
  std::vector<std::uint64_t> journal_sbs_;
  /// Per-superblock flag mirroring journal_sbs_ membership (O(1) queries).
  std::vector<std::uint8_t> is_journal_sb_;
  /// Record pages programmed since the last compaction.
  std::uint64_t journal_pages_used_ = 0;
  /// Compact when journal_pages_used_ exceeds this (re-derived after each
  /// compaction so a large live tombstone set doesn't thrash).
  std::uint64_t journal_compact_threshold_ = 0;
  bool in_compaction_ = false;
  /// tombstone_[lpn] = trimmed and not rewritten since; the set the journal
  /// must preserve across power cuts. live_tombstones_ counts the 1-bits.
  std::vector<std::uint8_t> tombstone_;
  std::uint64_t live_tombstones_ = 0;
  /// Logical pages currently mapped (admission-checked against the
  /// capacity watermark).
  std::uint64_t mapped_count_ = 0;
  /// Superblocks flagged pending-retire (gauge source).
  std::uint64_t pending_retire_count_ = 0;

  // --- demand-paged mapping tier state (docs/MAPPING.md) ---
  /// Resolved entries per translation page (FtlConfig::tp_entries, or the
  /// physical page_size / 8 maximum when 0). 0 while the tier is off.
  std::uint64_t tp_entries_ = 0;
  /// Translation pages covering the logical space: ceil(logical / entries).
  std::uint64_t num_tps_ = 0;
  /// Global Translation Directory: TPN -> newest flash copy, kInvalidPpn
  /// when the segment has never been written back (then every LPN in it is
  /// unmapped — an invariant trims and reconciliation preserve).
  std::vector<Ppn> gtd_;
  /// Cached Mapping Table residency: exact-LRU set of resident TPNs. The
  /// slab node index keys the per-node entry arrays below.
  core::FlatMetaCache cmt_;
  /// cmt_pages x tp_entries_ PPN slots (node-major), the resident
  /// translation-page contents.
  std::vector<Ppn> cmt_entries_;
  /// Per-node dirty flag: the resident content has updates the flash copy
  /// lacks; eviction must buffer it for write-back.
  std::vector<std::uint8_t> cmt_dirty_;
  /// Evicted-dirty translation pages awaiting their batched write-back
  /// (tpn, content). Lookups consult this before fetching from flash; the
  /// GTD keeps pointing at the superseded flash copy until the flush.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>
      wb_buffer_;
  /// Reentrancy guard: a flush in progress must not trigger another.
  bool in_wb_flush_ = false;
  /// The one write-back currently being programmed by flush_wb_buffer().
  /// Its program can trigger GC, and any fetch of this segment during that
  /// window must see this (newest) content, not the stale flash copy.
  std::uint64_t wb_inflight_tpn_ = kInvalidLpn;
  std::vector<std::uint64_t> wb_inflight_blob_;
  /// Learned index over the tier (cfg_.learned_index): trained at every
  /// translation-page append, hole-punched on every map_update, cleared
  /// and retrained from truth at mount (docs/MAPPING.md "Learned index").
  LearnedIndex learned_;

  // --- observability (handles are stable; no allocation after setup) ---
  obs::Observability obs_;
  std::vector<obs::Counter*> stream_host_writes_;   ///< per-stream user pages
  std::vector<obs::Counter*> stream_flash_writes_;  ///< per-stream programs
  obs::Counter* gc_rounds_ctr_ = nullptr;
  obs::Counter* gc_aborted_ctr_ = nullptr;
  obs::Counter* gc_moved_ctr_ = nullptr;
  obs::Counter* gc_steps_ctr_ = nullptr;
  obs::Counter* gc_preempt_ctr_ = nullptr;
  obs::Counter* erases_ctr_ = nullptr;
  obs::Counter* meta_writes_ctr_ = nullptr;
  obs::Counter* stream_borrows_ctr_ = nullptr;
  obs::Counter* host_reads_ctr_ = nullptr;
  obs::Counter* trims_ctr_ = nullptr;
  obs::Counter* program_fail_ctr_ = nullptr;
  obs::Counter* erase_fail_ctr_ = nullptr;
  obs::Counter* retired_ctr_ = nullptr;
  obs::Counter* recovery_mounts_ctr_ = nullptr;
  obs::Counter* recovery_oob_scans_ctr_ = nullptr;
  obs::Counter* recovery_rebuild_ns_ctr_ = nullptr;
  obs::Counter* journal_appends_ctr_ = nullptr;
  obs::Counter* journal_records_ctr_ = nullptr;
  obs::Counter* journal_compactions_ctr_ = nullptr;
  obs::Counter* journal_replayed_ctr_ = nullptr;
  obs::Counter* enospc_ctr_ = nullptr;
  obs::Counter* host_reads_unmapped_ctr_ = nullptr;
  obs::Counter* cmt_hits_ctr_ = nullptr;
  obs::Counter* cmt_misses_ctr_ = nullptr;
  obs::Counter* trans_reads_ctr_ = nullptr;
  obs::Counter* trans_writes_ctr_ = nullptr;
  obs::Counter* trans_gc_writes_ctr_ = nullptr;
  obs::Counter* wb_flushes_ctr_ = nullptr;
  obs::Counter* trans_reconciled_ctr_ = nullptr;
  obs::Counter* learned_hits_ctr_ = nullptr;
  obs::Counter* learned_mispredicts_ctr_ = nullptr;
  obs::Counter* learned_probe_reads_ctr_ = nullptr;
  obs::Counter* wl_rounds_ctr_ = nullptr;
  obs::Counter* wl_migrations_ctr_ = nullptr;
  obs::Counter* wear_retired_ctr_ = nullptr;
  obs::Histogram* victim_valid_hist_ = nullptr;
  obs::Histogram* erase_count_hist_ = nullptr;
  obs::Gauge* bad_blocks_gauge_ = nullptr;
  obs::Gauge* wa_gauge_ = nullptr;
  obs::Gauge* free_sb_gauge_ = nullptr;
  obs::Gauge* closed_sb_gauge_ = nullptr;
  obs::Gauge* pending_retire_gauge_ = nullptr;
  obs::Gauge* vclock_gauge_ = nullptr;
  obs::Gauge* journal_pages_gauge_ = nullptr;
  obs::Gauge* journal_sbs_gauge_ = nullptr;
  obs::Gauge* watermark_gauge_ = nullptr;
  obs::Gauge* mapped_gauge_ = nullptr;
  obs::Gauge* gc_inflight_moved_gauge_ = nullptr;
  obs::Gauge* wear_spread_gauge_ = nullptr;
  obs::Gauge* wear_max_gauge_ = nullptr;
  obs::Gauge* cmt_hit_rate_gauge_ = nullptr;
  obs::Gauge* map_ram_gauge_ = nullptr;
  obs::Gauge* read_amp_gauge_ = nullptr;
  obs::Gauge* trans_wa_gauge_ = nullptr;
  obs::Gauge* learned_segments_gauge_ = nullptr;
  obs::Gauge* learned_bytes_gauge_ = nullptr;
};

}  // namespace phftl
