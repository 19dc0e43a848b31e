#include "ftl/ftl_base.hpp"

#include <algorithm>
#include <chrono>

#include "flash/fault_injector.hpp"
#include "util/log.hpp"

namespace phftl {

namespace {

/// (start, len) pairs of the maximal runs of LPNs in [start, start + n) for
/// which `in_run(lpn)` holds, ascending. `in_run` sees every LPN once, in
/// order, so it may act on the pages it accepts.
template <typename InRun>
std::vector<std::uint64_t> coalesce_runs(Lpn start, std::uint64_t n,
                                         InRun&& in_run) {
  std::vector<std::uint64_t> pairs;
  std::uint64_t run_len = 0;
  for (Lpn lpn = start; lpn < start + n; ++lpn) {
    if (in_run(lpn)) {
      if (run_len++ == 0) pairs.push_back(lpn);
    } else if (run_len > 0) {
      pairs.push_back(run_len);
      run_len = 0;
    }
  }
  if (run_len > 0) pairs.push_back(run_len);
  return pairs;
}

}  // namespace

FtlBase::FtlBase(const FtlConfig& cfg, std::uint32_t num_streams)
    : cfg_(cfg),
      flash_(cfg.geom),
      logical_pages_(static_cast<std::uint64_t>(
          static_cast<double>(cfg.geom.total_pages()) *
          (1.0 - cfg.op_ratio))),
      num_streams_(num_streams),
      l2p_(logical_pages_, kInvalidPpn),
      p2l_(cfg.geom.total_pages(), kInvalidLpn),
      valid_bit_(cfg.geom.total_pages(), 0),
      gc_count_(cfg.geom.total_pages(), 0),
      sb_meta_(cfg.geom.num_superblocks()),
      open_(2 * std::size_t{num_streams} + 1, kNoSb),
      pending_retire_(cfg.geom.num_superblocks(), 0),
      wear_(cfg.geom.num_superblocks(), 0),
      is_journal_sb_(cfg.geom.num_superblocks(), 0),
      tombstone_(logical_pages_, 0) {
  PHFTL_CHECK_MSG(num_streams_ >= 1, "at least one stream required");
  // Attach the injector before building the free pool: factory bad blocks
  // are marked at attach time and must never enter circulation.
  flash_.attach_fault_injector(cfg.fault_injector);
  // P/E budget enforcement lives in the flash array (physical, survives
  // RAM loss); the FTL only mirrors the counts for leveling decisions.
  flash_.set_max_pe_cycles(cfg.max_pe_cycles);
  // GC trigger (paper §III-D): collect when the free-superblock proportion
  // drops below the threshold. The trigger must be *satisfiable*: the
  // over-provisioned space, expressed in superblocks, has to exceed it —
  // even after factory bad blocks are deducted — or GC could never push
  // the free count back above the line.
  const auto ratio_count = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.num_superblocks()) *
          cfg.gc_free_threshold +
      0.999);
  gc_trigger_count_ = std::max<std::uint64_t>(ratio_count, 2);
  // Time-sliced urgent floor: half the trigger, never below the two
  // superblocks a write + concurrent GC appends can consume before the
  // next maybe_gc(). Between the floor and the trigger GC yields to the
  // host after each bounded step; below it, rounds complete synchronously
  // (docs/QOS.md "Safety argument"). With a 2-superblock trigger the floor
  // equals the trigger and time-sliced mode degenerates to stop-the-world.
  gc_urgent_count_ =
      std::max<std::uint64_t>(gc_trigger_count_ / 2, 2);
  const auto op_superblocks = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.num_superblocks()) * cfg.op_ratio);
  PHFTL_CHECK_MSG(
      op_superblocks >= gc_trigger_count_ + flash_.bad_block_count(),
      "GC trigger exceeds over-provisioning headroom; use more "
      "(or smaller) superblocks, or fewer factory bad blocks");
  PHFTL_CHECK_MSG(cfg.geom.num_superblocks() >
                      gc_trigger_count_ + num_streams_ +
                          flash_.bad_block_count(),
                  "geometry too small for stream count");
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    if (!flash_.is_bad(sb)) free_pool_.push_back(sb);
  victim_index_.reset(cfg.geom.num_superblocks(),
                      cfg.geom.pages_per_superblock());
  journal_compact_threshold_ =
      std::max<std::uint64_t>(cfg.geom.pages_per_superblock() / 2, 2);
  if (cfg_.mapping_tier) {
    // One translation page maps tp_entries_ consecutive LPNs; the physical
    // ceiling is what the page data area holds at 8 B per PPN. Smaller
    // values emulate production segment counts on the simulator's small
    // logical space (docs/MAPPING.md "RAM-budget methodology").
    const std::uint64_t max_entries =
        std::max<std::uint64_t>(cfg.geom.page_size / 8, 1);
    tp_entries_ = cfg_.tp_entries == 0 ? max_entries : cfg_.tp_entries;
    PHFTL_CHECK_MSG(tp_entries_ <= max_entries,
                    "tp_entries exceeds the page data area (page_size/8)");
    num_tps_ = (logical_pages_ + tp_entries_ - 1) / tp_entries_;
    gtd_.assign(num_tps_, kInvalidPpn);
    const std::uint64_t cmt_cap = std::max<std::uint64_t>(cfg_.cmt_pages, 1);
    cmt_.reset(cmt_cap);
    cmt_entries_.assign(cmt_cap * tp_entries_, kInvalidPpn);
    cmt_dirty_.assign(cmt_cap, 0);
    if (cfg_.learned_index) {
      learned_.reset(logical_pages_, tp_entries_, cfg_.learned_error_bound);
    }
  }
  PHFTL_CHECK_MSG(!cfg_.learned_index || cfg_.mapping_tier,
                  "learned_index requires mapping_tier");
  register_ftl_metrics();
}

void FtlBase::register_ftl_metrics() {
  obs::MetricsRegistry& m = obs_.metrics();
  stream_host_writes_.reserve(num_streams_);
  stream_flash_writes_.reserve(num_streams_);
  for (std::uint32_t s = 0; s < num_streams_; ++s) {
    const std::string id = std::to_string(s);
    stream_host_writes_.push_back(
        &m.counter("ftl.stream" + id + ".host_writes", "pages",
                   "host pages the write classifier sent to stream " + id));
    stream_flash_writes_.push_back(
        &m.counter("ftl.stream" + id + ".flash_writes", "pages",
                   "pages programmed into stream " + id +
                       " (user + GC migrations + meta pages)"));
  }
  gc_rounds_ctr_ = &m.counter("ftl.gc.rounds", "rounds",
                              "completed GC victim collections");
  gc_aborted_ctr_ =
      &m.counter("ftl.gc.aborted_rounds", "rounds",
                 "GC rounds abandoned because the best victim was fully "
                 "valid (back-off)");
  gc_moved_ctr_ = &m.counter("ftl.gc.moved_valid_pages", "pages",
                             "valid pages migrated out of GC victims (the "
                             "numerator of write amplification)");
  m.counter("ftl.gc.steps", stats_.gc_steps, "steps",
            "bounded GC relocation slices (one per round under "
            "stop-the-world; many under time-sliced GC)");
  m.counter("ftl.gc.preemptions", stats_.gc_preemptions, "yields",
            "time-sliced GC steps that hit their page budget and "
            "yielded back to the host with the round unfinished");
  m.counter("ftl.erases", stats_.erases, "superblocks", "superblock erases");
  m.counter("ftl.meta_writes", stats_.meta_writes, "pages",
            "ML meta pages programmed (PHFTL only)");
  m.counter("ftl.stream_borrows", stats_.stream_borrows, "pages",
            "GC appends redirected to another stream's open superblock "
            "under free-pool pressure");
  m.counter("ftl.host_reads", stats_.host_reads, "pages",
            "mapped host pages read");
  m.counter("ftl.trims", stats_.trims, "pages",
            "mapped logical pages discarded (effective trims; "
            "trims of unmapped pages are no-ops)");
  m.counter("ftl.trim_journal.appends", stats_.journal_writes, "pages",
            "trim-journal record pages programmed (host trims + "
            "compaction rewrites)");
  journal_records_ctr_ = &m.counter("ftl.trim_journal.records", "records",
                                    "trim range records written to the "
                                    "journal");
  m.counter("ftl.trim_journal.compactions", stats_.trim_journal_compactions,
            "compactions",
            "journal compactions (tombstones rewritten densely, old "
            "record superblocks reclaimed)");
  journal_replayed_ctr_ =
      &m.counter("ftl.trim_journal.replayed_tombstones", "pages",
                 "resurrected mappings unmapped again by mount-time journal "
                 "replay");
  m.counter("ftl.enospc_rejections", stats_.enospc_rejections, "pages",
            "host writes rejected at the capacity watermark "
            "(ENOSPC)");
  m.counter("ftl.wl.rounds", stats_.wl_rounds, "rounds",
            "completed static wear-leveling rounds (cold victim drained "
            "into worn blocks; a subset of ftl.gc.rounds)");
  m.counter("ftl.wl.migrations", stats_.wl_migrations, "pages",
            "pages migrated by wear-leveling rounds (a subset of GC "
            "moved pages, so WA already charges them)");
  m.counter("flash.wear_retired", stats_.wear_retired, "superblocks",
            "superblocks retired at the P/E-cycle budget (end-of-life)");
  m.counter("flash.program_failures", stats_.program_failures, "pages",
            "program operations that aborted (page consumed, data "
            "retried on a fresh page)");
  m.counter("flash.erase_failures", stats_.erase_failures, "superblocks",
            "erase operations that failed (block went "
            "bad in place)");
  m.counter("flash.blocks_retired", stats_.blocks_retired, "superblocks",
            "superblocks retired after a program failure "
            "(drained by GC, no erase)");
  m.counter("ftl.host_reads_unmapped", stats_.host_reads_unmapped, "pages",
            "host reads of unmapped LPNs (never written, or trimmed), "
            "served as zero-fill without touching flash");
  m.counter("ftl.map.cmt_hits", stats_.cmt_hits, "lookups",
            "mapping-tier lookups served by a resident "
            "translation page");
  m.counter("ftl.map.cmt_misses", stats_.cmt_misses, "lookups",
            "mapping-tier lookups that missed the CMT (segment fetched "
            "from flash, adopted from the write-back buffer, or "
            "materialized empty)");
  m.counter("ftl.map.translation_reads", stats_.trans_reads, "pages",
            "translation pages fetched from flash (CMT demand misses + "
            "GC reads of non-resident valid translation pages)");
  m.counter("ftl.map.translation_writes", stats_.trans_writes, "pages",
            "translation pages programmed (dirty write-backs + GC "
            "migrations + mount-time reconciliation); part of "
            "flash_writes(), so WA charges the tier");
  m.counter("ftl.map.translation_gc_writes", stats_.trans_gc_writes, "pages",
            "GC migrations of valid translation pages (a subset of "
            "ftl.map.translation_writes)");
  wb_flushes_ctr_ =
      &m.counter("ftl.map.wb_flushes", "flushes",
                 "batched write-back flushes of evicted dirty translation "
                 "pages");
  trans_reconciled_ctr_ =
      &m.counter("ftl.map.reconciled", "pages",
                 "translation pages rewritten at mount because their flash "
                 "copy trailed the OOB-rebuilt truth (dirty CMT state lost "
                 "to the cut, or trims replayed past them)");
  m.counter("ftl.map.learned_hits", stats_.learned_hits, "lookups",
            "CMT misses served by an OOB-verified learned-index "
            "prediction instead of a translation-page fetch");
  m.counter("ftl.map.learned_mispredicts", stats_.learned_mispredicts,
            "lookups",
            "learned predictions whose probe window failed OOB "
            "verification (fell back to the GTD/CMT path)");
  m.counter("ftl.map.learned_probe_reads", stats_.learned_probe_reads, "pages",
            "wasted learned-probe page reads (failed OOB verifications; "
            "a hit's successful probe is the data read itself)");
  recovery_mounts_ctr_ = &m.counter("recovery.mounts", "mounts",
                                    "recover() calls (unclean-shutdown "
                                    "mounts serviced)");
  recovery_oob_scans_ctr_ =
      &m.counter("recovery.oob_scans", "pages",
                 "OOB areas inspected across all mount-time rebuilds");
  recovery_rebuild_ns_ctr_ =
      &m.counter("recovery.rebuild_ns", "ns",
                 "cumulative wall-clock time spent in recover()");
  // Victim quality: the paper's separation claim is precisely that victims
  // land in the low buckets of this histogram.
  const std::uint64_t ppsb = geom().pages_per_superblock();
  std::vector<double> edges;
  for (std::uint64_t i = 0; i <= 8; ++i) {
    const double e = static_cast<double>(i * ppsb) / 8.0;
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  victim_valid_hist_ =
      &m.histogram("ftl.gc.victim_valid_pages", std::move(edges), "pages",
                   "valid-page count of each collected GC victim");
  // Wear distribution: one observation per erase, at the block's new count.
  // With a P/E budget the buckets are linear up to it (the last bucket is
  // end-of-life); without one, exponential — counts are open-ended.
  std::vector<double> wear_edges;
  if (cfg_.max_pe_cycles > 0) {
    for (std::uint64_t i = 1; i <= 8; ++i) {
      const double e =
          static_cast<double>(i * cfg_.max_pe_cycles) / 8.0;
      if (wear_edges.empty() || e > wear_edges.back()) wear_edges.push_back(e);
    }
  } else {
    for (double e = 1.0; e <= 256.0; e *= 2.0) wear_edges.push_back(e);
  }
  erase_count_hist_ =
      &m.histogram("flash.erase_count", std::move(wear_edges), "erases",
                   "per-superblock erase count, observed at each erase");
  bad_blocks_gauge_ = &m.gauge("flash.bad_blocks", "superblocks",
                               "superblocks out of service (factory bad + "
                               "retired + erase failures)");
  wa_gauge_ = &m.gauge("ftl.write_amplification", "ratio",
                       "(flash writes - user writes) / user writes");
  free_sb_gauge_ =
      &m.gauge("ftl.free_superblocks", "superblocks", "free-pool size");
  closed_sb_gauge_ = &m.gauge("ftl.closed_superblocks", "superblocks",
                              "closed superblocks (GC candidates)");
  pending_retire_gauge_ =
      &m.gauge("ftl.pending_retire_superblocks", "superblocks",
               "closed superblocks awaiting retirement after a program "
               "failure (drained by GC, then taken out of service)");
  vclock_gauge_ = &m.gauge("ftl.virtual_clock", "pages",
                           "host pages written (the paper's lifetime clock)");
  journal_pages_gauge_ = &m.gauge("ftl.trim_journal.pages", "pages",
                                  "record pages live in the trim journal");
  journal_sbs_gauge_ =
      &m.gauge("ftl.trim_journal.superblocks", "superblocks",
               "superblocks currently held by the trim journal");
  watermark_gauge_ =
      &m.gauge("ftl.capacity_watermark_pages", "pages",
               "host-visible capacity under the current physical reserve "
               "(writes past it are rejected with ENOSPC)");
  mapped_gauge_ =
      &m.gauge("ftl.mapped_pages", "pages", "logical pages currently mapped");
  gc_inflight_moved_gauge_ =
      &m.gauge("ftl.gc.inflight_valid_moved", "pages",
               "valid pages the preempted in-flight GC round has relocated "
               "so far (0 when no round is in flight)");
  wear_spread_gauge_ =
      &m.gauge("flash.wear_spread", "erases",
               "max - mean erase count over in-service superblocks (the "
               "static wear-leveling trigger quantity)");
  wear_max_gauge_ = &m.gauge("flash.wear_max", "erases",
                             "highest erase count among in-service "
                             "superblocks");
  cmt_hit_rate_gauge_ =
      &m.gauge("ftl.map.cmt_hit_rate", "ratio",
               "CMT hits / (hits + misses) over the run so far");
  map_ram_gauge_ = &m.gauge("ftl.map.ram_bytes", "bytes",
                            "mapping-tier RAM footprint (GTD + CMT slab + "
                            "cache index + write-back buffer capacity; "
                            "docs/MAPPING.md methodology)");
  read_amp_gauge_ =
      &m.gauge("ftl.map.read_amplification", "ratio",
               "(host flash reads + host-path translation fetches + wasted "
               "learned probes) / host reads including unmapped zero-fills "
               "— the demand-paging double-read penalty");
  trans_wa_gauge_ = &m.gauge("ftl.map.translation_wa", "ratio",
                             "translation pages programmed per user page "
                             "written (the tier's own WA contribution)");
  learned_segments_gauge_ =
      &m.gauge("ftl.map.learned_segments", "segments",
               "piecewise-linear segments the learned index currently "
               "holds (tracks sequential runs, not translation pages)");
  learned_bytes_gauge_ =
      &m.gauge("ftl.map.learned_index_bytes", "bytes",
               "learned-index model RAM (charged into ftl.map.ram_bytes; "
               "docs/MAPPING.md methodology)");
}

void FtlBase::refresh_observability() {
  bad_blocks_gauge_->set(static_cast<double>(flash_.bad_block_count()));
  wa_gauge_->set(stats_.write_amplification());
  free_sb_gauge_->set(static_cast<double>(free_pool_.size()));
  closed_sb_gauge_->set(static_cast<double>(victim_index_.size()));
  pending_retire_gauge_->set(static_cast<double>(pending_retire_count_));
  vclock_gauge_->set(static_cast<double>(virtual_clock_));
  journal_pages_gauge_->set(static_cast<double>(journal_pages_used_));
  journal_sbs_gauge_->set(static_cast<double>(journal_sbs_.size()));
  watermark_gauge_->set(static_cast<double>(capacity_watermark_pages()));
  mapped_gauge_->set(static_cast<double>(mapped_count_));
  gc_inflight_moved_gauge_->set(static_cast<double>(gc_round_moved_));
  wear_spread_gauge_->set(wear_spread());
  wear_max_gauge_->set(static_cast<double>(wear_max_));
  if (cfg_.mapping_tier) {
    const std::uint64_t lookups = stats_.cmt_hits + stats_.cmt_misses;
    cmt_hit_rate_gauge_->set(
        lookups == 0 ? 0.0
                     : static_cast<double>(stats_.cmt_hits) /
                           static_cast<double>(lookups));
    map_ram_gauge_->set(static_cast<double>(mapping_ram_bytes()));
    read_amp_gauge_->set(stats_.read_amplification());
    trans_wa_gauge_->set(
        stats_.user_writes == 0
            ? 0.0
            : static_cast<double>(stats_.trans_writes) /
                  static_cast<double>(stats_.user_writes));
    learned_segments_gauge_->set(static_cast<double>(learned_segments()));
    learned_bytes_gauge_->set(static_cast<double>(learned_index_bytes()));
  }
}

double FtlBase::wear_mean() const {
  const std::uint64_t total = geom().num_superblocks();
  const std::uint64_t bad = flash_.bad_block_count();
  if (bad >= total) return 0.0;
  return static_cast<double>(wear_sum_) / static_cast<double>(total - bad);
}

double FtlBase::wear_spread() const {
  const double mean = wear_mean();
  const double mx = static_cast<double>(wear_max_);
  return mx > mean ? mx - mean : 0.0;
}

void FtlBase::note_erase(std::uint64_t sb) {
  ++wear_[sb];
  ++wear_sum_;
  wear_max_ = std::max(wear_max_, wear_[sb]);
  erase_count_hist_->observe(static_cast<double>(wear_[sb]));
}

void FtlBase::note_block_lost(std::uint64_t sb) {
  PHFTL_CHECK(wear_sum_ >= wear_[sb]);
  wear_sum_ -= wear_[sb];
  if (wear_[sb] == wear_max_) {
    // The max holder left service; rescan the survivors. Rare (a block is
    // lost at most once), so O(superblocks) is fine.
    wear_max_ = 0;
    for (std::uint64_t s = 0; s < geom().num_superblocks(); ++s)
      if (!flash_.is_bad(s)) wear_max_ = std::max(wear_max_, wear_[s]);
  }
}

void FtlBase::dispose_drained_superblock(std::uint64_t sb) {
  if (pending_retire_[sb]) {
    // The block failed a program earlier; now that it is drained, take it
    // out of service for good. It never returns to the free pool.
    pending_retire_[sb] = 0;
    PHFTL_CHECK(pending_retire_count_ > 0);
    --pending_retire_count_;
    flash_.retire_superblock(sb);
    ++stats_.blocks_retired;
    obs_.trace().record(obs::TraceEventType::kBlockRetired, virtual_clock_,
                        sb);
    note_block_lost(sb);
    return;
  }
  if (!flash_.erase_superblock(sb)) {
    if (flash_.wear_exhausted(sb)) {
      // The erase itself worked but consumed the block's last budgeted P/E
      // cycle: end-of-life retirement. The erase is real and is counted;
      // the block just never re-enters the free pool.
      note_erase(sb);
      ++stats_.erases;
      ++stats_.wear_retired;
      obs_.trace().record(obs::TraceEventType::kWearRetired, virtual_clock_,
                          sb, wear_[sb]);
    } else {
      // Erase failure: the block went bad in place without erasing. The
      // caller's round still made progress (the drained pages moved).
      ++stats_.erase_failures;
      obs_.trace().record(obs::TraceEventType::kEraseFail, virtual_clock_,
                          sb);
    }
    note_block_lost(sb);
    return;
  }
  note_erase(sb);
  ++stats_.erases;
  free_pool_.push_back(sb);
  obs_.trace().record(obs::TraceEventType::kFlashErase, virtual_clock_, sb);
}

std::uint64_t FtlBase::capacity_watermark_pages() const {
  // Physical reserve, in superblocks: blocks out of service, the GC
  // free-pool target, and the trim journal (one superblock is always
  // reserved for it — compaction needs somewhere to rewrite records even
  // before the first trim).
  std::uint64_t reserve = gc_trigger_count_ + flash_.bad_block_count() +
                          std::max<std::uint64_t>(journal_sbs_.size(), 1);
  if (cfg_.mapping_tier) {
    // The translation-page working set needs room of its own: every live
    // TP holds one flash page, plus one superblock of slack for the
    // write-new-before-invalidate-old churn.
    const std::uint64_t ppsb = geom().pages_per_superblock();
    reserve += (num_tps_ + ppsb - 1) / ppsb + 1;
  }
  const std::uint64_t total = geom().num_superblocks();
  if (reserve >= total) return 0;
  return (total - reserve) * data_capacity(0);
}

void FtlBase::seed_virtual_clock(std::uint64_t v) {
  PHFTL_CHECK_MSG(v >= virtual_clock_,
                  "seed_virtual_clock cannot move the clock backwards");
  virtual_clock_ = v;
}

void FtlBase::submit(const HostRequest& req) {
  const SubmitResult res = submit_checked(req);
  PHFTL_CHECK_MSG(res.status != WriteResult::kOutOfRange,
                  "empty request or request beyond logical capacity");
  PHFTL_CHECK_MSG(res.status == WriteResult::kOk,
                  "host write rejected at the capacity watermark (ENOSPC); "
                  "use submit_checked() to handle it");
}

SubmitResult FtlBase::submit_checked(const HostRequest& req) {
  SubmitResult res;
  // Overflow-safe form: `start + n <= logical_pages_` wraps for adversarial
  // near-UINT64_MAX starts and would admit an out-of-range request.
  if (req.num_pages == 0 || req.start_lpn >= logical_pages_ ||
      req.num_pages > logical_pages_ - req.start_lpn) {
    res.status = WriteResult::kOutOfRange;
    return res;
  }
  on_request(req);
  if (req.op == OpType::kRead) {
    for (std::uint32_t i = 0; i < req.num_pages; ++i)
      read_page(req.start_lpn + i);
    res.pages_completed = req.num_pages;
    return res;
  }
  if (req.op == OpType::kTrim) {
    // One coalesced journal flush per request (not per page).
    trim_range(req.start_lpn, req.num_pages);
    res.pages_completed = req.num_pages;
    return res;
  }
  WriteContext ctx;
  ctx.timestamp_us = req.timestamp_us;
  ctx.io_len_pages = req.num_pages;
  ctx.is_sequential = (req.start_lpn == prev_req_end_);
  for (std::uint32_t i = 0; i < req.num_pages; ++i) {
    ctx.now = virtual_clock_;
    if (write_page_impl(req.start_lpn + i, ctx, /*checked=*/true) ==
        WriteResult::kEnospc) {
      res.status = WriteResult::kEnospc;
      res.pages_completed = i;
      prev_req_end_ = kInvalidLpn;  // the request did not complete
      return res;
    }
  }
  prev_req_end_ = req.start_lpn + req.num_pages;
  res.pages_completed = req.num_pages;
  return res;
}

void FtlBase::write_page(Lpn lpn, const WriteContext& ctx) {
  write_page_impl(lpn, ctx, /*checked=*/false);
}

WriteResult FtlBase::try_write_page(Lpn lpn, const WriteContext& ctx) {
  return write_page_impl(lpn, ctx, /*checked=*/true);
}

WriteResult FtlBase::write_page_impl(Lpn lpn, const WriteContext& ctx_in,
                                     bool checked) {
  PHFTL_CHECK(lpn < logical_pages_);

  // Admission control, before any state changes or policy hooks: accepting
  // a page that maps a *new* LPN past the watermark could leave GC unable
  // to reach its free-superblock target. Overwrites of already-mapped LPNs
  // don't grow the mapped set and stay allowed until the watermark itself
  // sinks below the mapped count (lost blocks) — then the drive is
  // effectively read-only until the host trims.
  //
  // End-of-life admission (docs/ENDURANCE.md): when wear retirement has
  // drained the free pool and no open superblock can take another page,
  // the write has physically nowhere to land — reject it rather than
  // abort deep inside the append path. A healthy drive never trips this
  // (GC keeps the pool at its floor); the empty() test keeps it free.
  const bool new_mapping = l2p_[lpn] == kInvalidPpn;
  const char* reject = nullptr;
  if (mapped_count_ + (new_mapping ? 1 : 0) > capacity_watermark_pages())
    reject = "host write rejected at the capacity watermark (ENOSPC); "
             "use try_write_page()/submit_checked() to handle it";
  else if (free_pool_.empty() && open_data_room() == 0)
    reject = "device at end-of-life: no programmable space left; "
             "use try_write_page()/submit_checked() to handle it";
  if (reject != nullptr) {
    PHFTL_CHECK_MSG(checked, reject);
    ++stats_.enospc_rejections;
    obs_.trace().record(obs::TraceEventType::kEnospc, virtual_clock_, lpn,
                        mapped_count_);
    return WriteResult::kEnospc;
  }

  WriteContext ctx = ctx_in;
  ctx.now = virtual_clock_;

  // Invalidate the old version first: the invalidation hook must observe
  // the page's state *before* the classifier updates its bookkeeping
  // (lifetime of the dying version = now - its write time).
  invalidate(lpn);

  const std::uint32_t stream = classify_user_write(lpn, ctx);
  PHFTL_CHECK(stream < num_streams_);

  OobData oob;
  oob.lpn = lpn;
  oob.write_time = virtual_clock_;
  fill_user_oob(lpn, oob);
  const Ppn ppn = append<PageKind::kUser>(stream, lpn,
                         /*payload=*/lpn ^ 0x5bd1e995ULL, oob, nullptr);
  l2p_[lpn] = ppn;
  gc_count_[ppn] = 0;
  if (cfg_.mapping_tier) map_update(lpn, ppn);
  if (new_mapping) ++mapped_count_;
  if (tombstone_[lpn]) {  // rewrite supersedes any journaled trim
    tombstone_[lpn] = 0;
    PHFTL_CHECK(live_tombstones_ > 0);
    --live_tombstones_;
  }

  ++stats_.user_writes;
  stream_host_writes_[stream]->inc();
  ++virtual_clock_;
  on_host_write_complete(lpn, ppn, ctx);
  maybe_gc();
  obs_.tick(virtual_clock_);
  return WriteResult::kOk;
}

std::uint64_t FtlBase::read_page(Lpn lpn) {
  PHFTL_CHECK(lpn < logical_pages_);
  const Ppn ppn =
      cfg_.mapping_tier ? map_lookup(lpn, /*host_read=*/true) : l2p_[lpn];
  if (ppn == kInvalidPpn) {
    // Zero-fill, no flash touched — but it is real host traffic, and the
    // mapping tier's read-amplification denominator needs an honest read
    // ledger (a demand fetch may already have been charged above).
    ++stats_.host_reads_unmapped;
    return 0;
  }
  ++stats_.host_reads;
  return flash_.read(ppn);
}

bool FtlBase::trim_page(Lpn lpn) {
  PHFTL_CHECK_MSG(lpn < logical_pages_, "trim beyond logical capacity");
  return trim_range(lpn, 1) > 0;
}

std::uint64_t FtlBase::trim_range(Lpn start, std::uint64_t n) {
  // Overflow-safe (see submit_checked): the naive sum wraps for
  // near-UINT64_MAX starts.
  PHFTL_CHECK_MSG(start < logical_pages_ && n <= logical_pages_ - start,
                  "trim beyond logical capacity");
  // Unmap in RAM first, collecting the *effective* runs (pages that were
  // actually mapped); already-unmapped pages are no-ops and neither counted
  // nor journaled.
  std::uint64_t effective = 0;
  const std::vector<std::uint64_t> pairs =
      coalesce_runs(start, n, [&](Lpn lpn) {
        if (l2p_[lpn] == kInvalidPpn) return false;
        invalidate(lpn);
        l2p_[lpn] = kInvalidPpn;
        if (cfg_.mapping_tier) map_update(lpn, kInvalidPpn);
        PHFTL_CHECK(mapped_count_ > 0);
        --mapped_count_;
        if (!tombstone_[lpn]) {
          tombstone_[lpn] = 1;
          ++live_tombstones_;
        }
        ++stats_.trims;
        ++effective;
        return true;
      });
  // Persist the trim before acknowledging it: recovery replays these
  // records after the OOB rebuild so stale copies cannot resurrect.
  if (!pairs.empty()) append_journal_records(pairs);
  maybe_gc();
  obs_.tick(virtual_clock_);
  return effective;
}

void FtlBase::append_journal_records(const std::vector<std::uint64_t>& pairs) {
  // 16 bytes per (start, len) record; chunk to what one page data area holds.
  const std::uint64_t max_u64s =
      std::max<std::uint64_t>(geom().page_size / 16, 1) * 2;
  for (std::size_t i = 0; i < pairs.size(); i += max_u64s) {
    const std::size_t end = std::min<std::size_t>(pairs.size(), i + max_u64s);
    const std::vector<std::uint64_t> chunk(
        pairs.begin() + static_cast<std::ptrdiff_t>(i),
        pairs.begin() + static_cast<std::ptrdiff_t>(end));
    OobData oob;  // journal pages carry no logical mapping (lpn stays ~0)
    oob.kind = PageKind::kTrimJournal;
    oob.write_time = virtual_clock_;
    append<PageKind::kTrimJournal>(/*stream=*/0, kInvalidLpn, 0, oob, &chunk);
  }
  if (journal_pages_used_ >= journal_compact_threshold_ && !in_compaction_)
    compact_trim_journal();
}

void FtlBase::compact_trim_journal() {
  PHFTL_CHECK(!in_compaction_);
  in_compaction_ = true;
  // Snapshot and detach the current journal extent. New record pages below
  // go into a fresh superblock — write-new-before-erase-old, so a power cut
  // anywhere in here leaves at least one durable copy of every tombstone
  // (replay is idempotent, duplicates are harmless).
  std::vector<std::uint64_t> old_sbs;
  old_sbs.swap(journal_sbs_);
  std::uint64_t& journal_open = open_[open_slot(PageKind::kTrimJournal, 0)];
  if (journal_open != kNoSb) {
    close_superblock(journal_open, /*indexed=*/false);
    journal_open = kNoSb;
  }
  journal_pages_used_ = 0;

  // Rewrite the live tombstone set densely (coalesced runs, full pages).
  if (live_tombstones_ > 0)
    append_journal_records(coalesce_runs(
        0, logical_pages_, [&](Lpn lpn) { return tombstone_[lpn] != 0; }));

  // Reclaim the superseded journal superblocks.
  for (const std::uint64_t sb : old_sbs) {
    is_journal_sb_[sb] = 0;
    dispose_drained_superblock(sb);
  }

  ++stats_.trim_journal_compactions;
  // Re-derive the threshold from the surviving footprint so a large live
  // tombstone set doesn't trigger back-to-back compactions.
  journal_compact_threshold_ = std::max<std::uint64_t>(
      geom().pages_per_superblock() / 2, 2 * journal_pages_used_);
  obs_.trace().record(obs::TraceEventType::kTrimJournalCompact,
                      virtual_clock_, journal_pages_used_, live_tombstones_);
  in_compaction_ = false;
}

void FtlBase::raw_unmap(Lpn lpn) {
  const Ppn old = l2p_[lpn];
  if (old == kInvalidPpn) return;
  drop_valid_page(old);
  l2p_[lpn] = kInvalidPpn;
  PHFTL_CHECK(mapped_count_ > 0);
  --mapped_count_;
}

void FtlBase::invalidate(Lpn lpn) {
  const Ppn old = l2p_[lpn];
  if (old == kInvalidPpn) return;
  drop_valid_page(old);
  on_page_invalidated(lpn, old, virtual_clock_);
}

std::uint64_t FtlBase::allocate_superblock(std::uint32_t stream) {
  PHFTL_CHECK_MSG(!free_pool_.empty(),
                  "free pool exhausted: GC cannot make progress");
  std::size_t pick = 0;
  if (in_gc_ && wl_round_) {
    // Wear-leveling appends steer into the most-worn free superblock: the
    // cold data parks there and stops that block's wear from advancing
    // (docs/ENDURANCE.md). Host and journal allocations keep FIFO order —
    // in_gc_ is false between steps — so leveling-off stays bit-identical.
    for (std::size_t i = 1; i < free_pool_.size(); ++i)
      if (wear_[free_pool_[i]] > wear_[free_pool_[pick]]) pick = i;
  }
  const std::uint64_t sb = free_pool_[pick];
  free_pool_.erase(free_pool_.begin() + static_cast<std::ptrdiff_t>(pick));
  flash_.open_superblock(sb);
  sb_meta_[sb].stream = stream;
  sb_meta_[sb].close_time = 0;
  return sb;
}

std::uint64_t FtlBase::open_data_room() const {
  std::uint64_t room = 0;
  for (std::uint32_t s = 0; s < num_streams_; ++s) {
    const std::uint64_t sb = open_[s];
    if (sb == kNoSb) continue;
    const std::uint64_t wp = flash_.write_pointer(sb);
    const std::uint64_t cap = data_capacity(sb);
    room += cap > wp ? cap - wp : 0;
  }
  return room;
}

void FtlBase::close_superblock(std::uint64_t sb, bool indexed) {
  flash_.close_superblock(sb);
  sb_meta_[sb].close_time = virtual_clock_;
  if (indexed) victim_index_.insert(sb, sb_meta_[sb].valid_count);
  obs_.trace().record(obs::TraceEventType::kSuperblockClose, virtual_clock_,
                      sb, sb_meta_[sb].valid_count, sb_meta_[sb].stream);
}

void FtlBase::note_program_failure(std::uint64_t sb) {
  ++stats_.program_failures;
  obs_.trace().record(obs::TraceEventType::kProgramFail, virtual_clock_, sb,
                      0, sb_meta_[sb].stream);
  if (!pending_retire_[sb]) {
    pending_retire_[sb] = 1;
    ++pending_retire_count_;
  }
}

template <PageKind kind>
Ppn FtlBase::append(std::uint32_t stream, std::uint64_t key,
                    std::uint64_t payload, OobData& oob,
                    const std::vector<std::uint64_t>* blob) {
  constexpr bool journal = kind == PageKind::kTrimJournal;
  // Program failures restart the loop. The attempt bound only trips under
  // absurd fault rates (each attempt consumes a whole superblock).
  for (std::uint32_t attempt = 0;; ++attempt) {
    PHFTL_CHECK_MSG(attempt < 64, "program retry limit exceeded");
    std::uint32_t target = stream;
    if (open_[open_slot(kind, target)] == kNoSb && free_pool_.empty()) {
      // Journal and translation pages are written outside the host-write
      // path that runs GC afterwards, so they reclaim first (a no-op while
      // a GC step is the writer).
      if constexpr (kind != PageKind::kUser) maybe_gc();
      if (free_pool_.empty()) {
        // Memory-pressure fallback: GC migration may transiently need a
        // fresh superblock when none is free. Borrow space from any stream
        // that still has an open superblock of this kind (real firmware
        // mixes streams under pressure) rather than deadlocking; separation
        // quality degrades for those few pages only. Host writes reach
        // here only at device end-of-life (wear retirement drained the
        // pool): the admission check guarantees an open data superblock
        // with room exists, so the drive's last pages mix streams instead
        // of crashing. The journal has no other slot to borrow.
        bool found = false;
        for (std::uint32_t s = 0; s < num_streams_ && !found; ++s) {
          if (open_[open_slot(kind, s)] != kNoSb) {
            target = s;
            found = true;
          }
        }
        PHFTL_CHECK_MSG(found, "capacity exhausted: no open superblock left");
        ++stats_.stream_borrows;
      }
    }
    const std::size_t slot = open_slot(kind, target);
    if (open_[slot] == kNoSb) {
      open_[slot] = allocate_superblock(target);
      if constexpr (journal) {
        is_journal_sb_[open_[slot]] = 1;
        journal_sbs_.push_back(open_[slot]);
      }
      obs_.trace().record(obs::TraceEventType::kSuperblockOpen, virtual_clock_,
                          open_[slot], 0, target);
    }
    const std::uint64_t sb = open_[slot];
    // Tombstone cutoff: every data copy of a trimmed LPN existing at this
    // moment has program_seq <= this value; any rewrite lands above it.
    if constexpr (journal) oob.trim_seq = flash_.program_seq();
    const Ppn ppn = kind == PageKind::kUser
                        ? flash_.program(sb, payload, oob)
                        : flash_.program_blob(sb, oob, *blob);
    if (ppn == kInvalidPpn) {
      // Program abort: the targeted page is consumed and empty. A block
      // that failed a program is untrustworthy — close it immediately
      // (skipping finalize_superblock: no meta pages go into a failing
      // block; their content is recoverable from the per-page OOB copies)
      // and mark it for retirement. Its valid pages stay readable; GC will
      // drain them and retire the block instead of erasing it (compaction,
      // not GC, reclaims a journal block).
      note_program_failure(sb);
      close_superblock(sb, /*indexed=*/!journal);
      open_[slot] = kNoSb;
      continue;
    }
    if constexpr (journal) {
      const std::uint64_t records = blob->size() / 2;
      ++stats_.journal_writes;
      ++journal_pages_used_;
      journal_records_ctr_->add(records);
      obs_.trace().record(obs::TraceEventType::kTrimJournalAppend,
                          virtual_clock_, ppn, records);
    } else {
      p2l_[ppn] = key;
      valid_bit_[ppn] = 1;
      ++sb_meta_[sb].valid_count;
      stream_flash_writes_[target]->inc();
    }
    if constexpr (kind == PageKind::kTranslation) {
      // New copy durable first, then supersede the old one (write-new-
      // before-invalidate-old; recovery orders the two by program_seq).
      const Ppn old = gtd_[key];
      if (old != kInvalidPpn) {
        PHFTL_CHECK(p2l_[old] == key);
        drop_valid_page(old);
      }
      gtd_[key] = ppn;
      // Every translation-page append funnels through here — write-back
      // flush, GC migration, mount-time reconciliation — so retraining at
      // this single point keeps the learned model exactly in sync with the
      // flash blob the GTD now points at.
      if (cfg_.learned_index) learned_.train(key, *blob);
      ++stats_.trans_writes;
      obs_.trace().record(obs::TraceEventType::kTransProgram, virtual_clock_,
                          ppn, key, target);
    }
    obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_,
                        ppn, 0, target);

    // Close the superblock when it fills: a data block at its data region,
    // after finalize_superblock() has programmed any meta pages into the
    // tail (PHFTL, Fig. 4; tail pages it leaves unused are skipped, as real
    // firmware pads them); journal and translation blocks at the raw
    // superblock boundary.
    const std::uint64_t fill = kind == PageKind::kUser
                                   ? data_capacity(sb)
                                   : geom().pages_per_superblock();
    if (flash_.write_pointer(sb) >= fill) {
      if constexpr (kind == PageKind::kUser) finalize_superblock(sb);
      close_superblock(sb, /*indexed=*/!journal);
      open_[slot] = kNoSb;
    }
    return ppn;
  }
}

Ppn FtlBase::program_meta_page(std::uint64_t sb, std::uint64_t payload) {
  PHFTL_CHECK_MSG(flash_.state(sb) == SuperblockState::kOpen,
                  "meta pages go into the still-open superblock");
  OobData oob;  // meta pages carry no logical mapping
  oob.kind = PageKind::kMeta;
  const Ppn ppn = flash_.program(sb, payload, oob);
  if (ppn == kInvalidPpn) {
    // A failed meta page is tolerable — the per-page OOB copies remain
    // authoritative for recovery (§III-C) — but the block is untrustworthy:
    // mark it for retirement. The caller keeps programming its remaining
    // meta pages; each tail slot is attempted exactly once either way.
    note_program_failure(sb);
    return kInvalidPpn;
  }
  ++stats_.meta_writes;
  stream_flash_writes_[sb_meta_[sb].stream]->inc();
  obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_, ppn,
                      0, sb_meta_[sb].stream);
  return ppn;
}

std::uint64_t FtlBase::rebuild_mapping_from_flash() {
  return rebuild_from_oob(nullptr);
}

std::uint64_t FtlBase::rebuild_from_oob(MountScan* mount) {
  // Wipe the volatile structures.
  std::fill(l2p_.begin(), l2p_.end(), kInvalidPpn);
  std::fill(p2l_.begin(), p2l_.end(), kInvalidLpn);
  std::fill(valid_bit_.begin(), valid_bit_.end(), 0);
  std::fill(gc_count_.begin(), gc_count_.end(), 0);
  for (auto& meta : sb_meta_) meta.valid_count = 0;
  std::fill(is_journal_sb_.begin(), is_journal_sb_.end(), 0);
  std::fill(tombstone_.begin(), tombstone_.end(), 0);
  journal_sbs_.clear();
  open_[open_slot(PageKind::kTrimJournal, 0)] = kNoSb;
  journal_pages_used_ = 0;
  live_tombstones_ = 0;
  mapped_count_ = 0;
  std::vector<std::uint64_t> trans_best_seq;
  if (cfg_.mapping_tier) {
    // Resident and buffered translation state is volatile; flash copies
    // are re-discovered below and reconciled by recover().
    std::fill(gtd_.begin(), gtd_.end(), kInvalidPpn);
    cmt_.clear();
    std::fill(cmt_dirty_.begin(), cmt_dirty_.end(), 0);
    wb_buffer_.clear();
    wb_inflight_tpn_ = kInvalidLpn;
    wb_inflight_blob_.clear();
    // The learned model died with RAM too; reconciliation retrains every
    // still-mapped translation page from the rebuilt truth.
    if (cfg_.learned_index) learned_.clear();
    trans_best_seq.assign(num_tps_, 0);
  }
  if (mount != nullptr) std::fill(wear_.begin(), wear_.end(), 0);

  // Pass 1, the only pass over OOB areas: the newest copy (highest program
  // sequence) of each LPN wins. Free blocks hold nothing; bad blocks are
  // excluded because their contents are undefined (erase failure) or fully
  // drained by GC before retirement — the newest copy of an LPN never lives
  // there. Journal superblocks are detected here (any page with kind ==
  // kTrimJournal) so later passes and the replay step can treat them
  // specially.
  std::uint64_t oob_scans = 0;
  std::vector<std::uint64_t> best_seq(logical_pages_, 0);
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    if (flash_.state(sb) == SuperblockState::kFree ||
        flash_.state(sb) == SuperblockState::kBad)
      continue;
    bool stamped = false;
    std::uint64_t newest = 0;  // max(write_time) + 1 over its user pages
    const std::uint64_t limit = flash_.write_pointer(sb);
    for (std::uint64_t off = 0; off < limit; ++off) {
      const Ppn ppn = geom().make_ppn(sb, off);
      if (!flash_.is_programmed(ppn)) continue;
      ++oob_scans;
      const OobData& oob = flash_.read_oob(ppn);
      if (mount != nullptr && !stamped) {
        // Every programmed page in the block carries the same stamp (the
        // block's erase count at program time, unchanged while open/closed).
        wear_[sb] = oob.erase_count;
        stamped = true;
      }
      if (oob.kind == PageKind::kTrimJournal) {
        if (!is_journal_sb_[sb]) {
          is_journal_sb_[sb] = 1;
          journal_sbs_.push_back(sb);
        }
        ++journal_pages_used_;
        if (mount != nullptr) mount->journal.emplace_back(ppn, oob.trim_seq);
        continue;
      }
      if (oob.kind == PageKind::kTranslation) {
        // Keyed by tpn, not lpn: the newest flash copy of each translation
        // page rebuilds the GTD. A tier-off mount over tier-on flash state
        // is a config error, caught here rather than silently dropped.
        PHFTL_CHECK_MSG(cfg_.mapping_tier,
                        "translation pages on flash but mapping_tier off");
        PHFTL_CHECK(oob.tpn < num_tps_);
        if (oob.program_seq > trans_best_seq[oob.tpn]) {
          trans_best_seq[oob.tpn] = oob.program_seq;
          gtd_[oob.tpn] = ppn;
        }
        continue;
      }
      if (oob.lpn == kInvalidLpn) continue;  // meta page, not user data
      PHFTL_CHECK(oob.lpn < logical_pages_);
      // Every user page (valid or stale — GC copies preserve the original
      // write_time) was written strictly before the cut.
      newest = std::max<std::uint64_t>(newest, oob.write_time + 1ULL);
      if (oob.program_seq > best_seq[oob.lpn]) {
        // Only the winning copy keeps its GC count; a superseded winner
        // drops back to 0 like every other invalid page.
        if (l2p_[oob.lpn] != kInvalidPpn) gc_count_[l2p_[oob.lpn]] = 0;
        best_seq[oob.lpn] = oob.program_seq;
        l2p_[oob.lpn] = ppn;
        gc_count_[ppn] = oob.gc_count;
      }
    }
    if (mount != nullptr) {
      sb_meta_[sb].close_time = newest;  // newest page ~ when it closed
      mount->vclock = std::max(mount->vclock, newest);
    }
  }

  // Pass 2: derive the reverse map, validity, and per-superblock counts.
  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    const Ppn ppn = l2p_[lpn];
    if (ppn == kInvalidPpn) continue;
    p2l_[ppn] = lpn;
    valid_bit_[ppn] = 1;
    ++sb_meta_[geom().superblock_of(ppn)].valid_count;
    ++mapped_count_;
  }
  // Pass 2b: live translation pages are valid flash pages too (p2l_ holds
  // their tpn), but they map no LPN and stay out of mapped_count_.
  if (cfg_.mapping_tier) {
    for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn) {
      const Ppn ppn = gtd_[tpn];
      if (ppn == kInvalidPpn) continue;
      p2l_[ppn] = tpn;
      valid_bit_[ppn] = 1;
      ++sb_meta_[geom().superblock_of(ppn)].valid_count;
    }
  }

  // Pass 3: rebuild the victim index from the recovered counts. Journal
  // superblocks stay out — only compaction may reclaim them.
  victim_index_.reset(geom().num_superblocks(), geom().pages_per_superblock());
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb)
    if (flash_.state(sb) == SuperblockState::kClosed && !is_journal_sb_[sb])
      victim_index_.insert(sb, sb_meta_[sb].valid_count);

  if (mount != nullptr) {
    mount->best_seq = std::move(best_seq);
    wear_sum_ = 0;
    wear_max_ = 0;
    for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
      if (flash_.is_bad(sb)) continue;
      wear_sum_ += wear_[sb];
      wear_max_ = std::max(wear_max_, wear_[sb]);
    }
  }
  return oob_scans;
}

void FtlBase::replay_trim_journal(const MountScan& scan, RecoveryReport& rep) {
  // Replay every record against the rebuilt mapping. A trimmed LPN is
  // tombstoned iff its newest flash copy predates the trim (program_seq <=
  // the record page's cutoff); a rewrite after the trim has a higher
  // sequence and survives. The check makes replay order-independent and
  // idempotent, so duplicate records (compaction overlap) are harmless.
  for (const auto& [ppn, cutoff] : scan.journal) {
    const std::vector<std::uint64_t>& blob = flash_.read_blob(ppn);
    for (std::size_t i = 0; i + 1 < blob.size(); i += 2) {
      const Lpn start = blob[i];
      const std::uint64_t len = blob[i + 1];
      // Overflow-safe: journal records are written by trim_range, but a
      // corrupt blob must not wrap the sum past the check.
      PHFTL_CHECK(start < logical_pages_ && len <= logical_pages_ - start);
      ++rep.trim_records_replayed;
      for (std::uint64_t k = 0; k < len; ++k) {
        const Lpn lpn = start + k;
        if (l2p_[lpn] != kInvalidPpn) {
          // The mapping is still the scan's winner, so best_seq is its
          // program_seq.
          if (scan.best_seq[lpn] > cutoff) continue;  // rewritten after trim
          raw_unmap(lpn);  // stale copy resurrected by the OOB rebuild
          ++rep.trim_tombstones;
        }
        if (!tombstone_[lpn]) {
          tombstone_[lpn] = 1;
          ++live_tombstones_;
        }
      }
    }
  }
  journal_replayed_ctr_->add(rep.trim_tombstones);
}

RecoveryReport FtlBase::recover() {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryReport rep;

  // Step 1: a power cut leaves superblocks open with the write pointer
  // mid-block. Close them read-only — their unwritten tail pages are
  // abandoned (no meta pages are programmed; PHFTL's entries survive in
  // the per-page OOB copies). They join the closed set in pass 3 below.
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    if (flash_.state(sb) == SuperblockState::kOpen) {
      flash_.close_superblock(sb);
      ++rep.open_sbs_closed;
    }
  }

  // Everything RAM-only is gone. (Journal extent, tombstone set,
  // and mapped count are re-derived from flash by the rebuild + replay.)
  std::fill(open_.begin(), open_.end(), kNoSb);
  in_wb_flush_ = false;
  std::fill(pending_retire_.begin(), pending_retire_.end(), 0);
  pending_retire_count_ = 0;
  prev_req_end_ = kInvalidLpn;
  in_gc_ = false;
  in_compaction_ = false;
  // A cut mid-GC-step (or between steps of a preempted time-sliced round)
  // leaves a half-relocated victim. No special handling is needed beyond
  // forgetting the round: pages already moved win the OOB rebuild by
  // program_seq (GC copies carry fresh sequence numbers), pages not yet
  // moved are still valid in the victim, and the victim is kClosed so the
  // rebuild's pass 3 re-inserts it into the victim index at its remaining
  // valid count — a future round simply collects it again (docs/QOS.md).
  gc_victim_ = kNoVictim;
  gc_cursor_ = 0;
  gc_round_moved_ = 0;
  wl_round_ = false;  // a forgotten round forgets its leveling flag too

  // Step 2: one OOB pass rebuilds mapping / validity / victim index and
  // detects the journal superblocks (pages with kind == kTrimJournal). The
  // same pass re-derives
  //   * the wear table from the per-page erase-count stamps — documented
  //     *lower bounds* (docs/ENDURANCE.md): exact for open/closed blocks
  //     (their stamps are the block's current count), 0 for free/bad
  //     blocks whose history left no readable pages; the P/E budget itself
  //     is enforced physically in the flash array and loses nothing;
  //   * each superblock's close_time (its newest user page) and the
  //     virtual clock: max(write_time) + 1 is a lower bound on the
  //     pre-crash clock; lifetimes measured after resume are compressed by
  //     at most the gap (RECOVERY.md).
  MountScan scan;
  rep.oob_scans = rebuild_from_oob(&scan);

  // Step 3: replay the trim journal *after* the rebuild — pass 1 maps
  // every LPN to its newest flash copy, including copies the host had
  // already discarded; the replay tombstones those again so trimmed pages
  // stay trimmed across the cut.
  replay_trim_journal(scan, rep);
  virtual_clock_ = scan.vclock;
  rep.recovered_vclock = scan.vclock;

  // Step 4: rebuild the free pool (bad blocks stay out of circulation).
  free_pool_.clear();
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb)
    if (flash_.state(sb) == SuperblockState::kFree) free_pool_.push_back(sb);

  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn)
    if (l2p_[lpn] != kInvalidPpn) ++rep.mapped_lpns;
  PHFTL_CHECK(mapped_count_ == rep.mapped_lpns);

  // Step 5: scheme-side re-derivation (meta cache, trainer, stream state).
  on_recovery(rep);

  // Step 6: the OOB rebuild is the mapping authority; on-flash
  // translation pages may trail it (dirty CMT entries and buffered
  // write-backs died with RAM, and the trim replay unmapped LPNs some
  // flash copies still carry). Rewrite exactly the diverged pages so the
  // tier's invariant holds from the first post-mount lookup. Runs after
  // on_recovery: the rewrites can trigger GC, whose classify hooks need
  // the scheme state already re-derived.
  if (cfg_.mapping_tier) {
    for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn)
      if (gtd_[tpn] != kInvalidPpn) ++rep.trans_gtd_rebuilt;
    reconcile_translation_pages(rep);
  }

  // Step 7: compact the journal down to (at most) one fresh superblock.
  // Detected journal superblocks are all closed, so without this every
  // post-mount trim would open an additional one and the watermark reserve
  // would creep upward mount over mount.
  if (!journal_sbs_.empty()) compact_trim_journal();

  rep.rebuild_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  recovery_mounts_ctr_->inc();
  recovery_oob_scans_ctr_->add(rep.oob_scans);
  recovery_rebuild_ns_ctr_->add(rep.rebuild_ns);
  obs_.trace().record(obs::TraceEventType::kRecovery, virtual_clock_,
                      rep.oob_scans, rep.rebuild_ns);
  return rep;
}

void FtlBase::maybe_gc() {
  if (in_gc_) return;
  // Urgent phase (both modes): complete whole rounds — finishing a
  // preempted one first — until the free pool is back above the floor.
  // Under kStopTheWorld the floor *is* the trigger, reproducing the classic
  // collect-until-satisfied loop; under kTimeSliced it is the lower
  // gc_urgent_count_, guaranteeing progress even when every reclaim stalls
  // on program failures (and that append()'s empty-pool synchronous reclaim
  // for journal and translation pages still works).
  const std::uint64_t floor = cfg_.gc_mode == GcMode::kStopTheWorld
                                  ? gc_trigger_count_
                                  : gc_urgent_count_;
  std::uint64_t rounds = 0;
  while (free_pool_.size() < floor) {
    PHFTL_CHECK_MSG(rounds++ < geom().num_superblocks() * 8,
                    "GC not converging");
    if (!gc_once()) break;  // nothing reclaimable right now
  }
  if (cfg_.gc_mode == GcMode::kStopTheWorld) {
    maybe_wear_level();  // space pressure handled; leveling may run
    return;
  }

  // Time-sliced phase: between the floor and the trigger, advance the
  // in-flight round by one bounded step and hand control back to the host.
  // The caller's request is charged at most gc_step_pages relocations —
  // the per-request tail-latency bound (docs/QOS.md).
  if (free_pool_.size() >= gc_trigger_count_) {
    maybe_wear_level();  // same per-request step budget applies
    return;
  }
  if (gc_victim_ == kNoVictim && !gc_begin_round()) return;
  advance_round(std::max<std::uint64_t>(cfg_.gc_step_pages, 1));
}

void FtlBase::maybe_wear_level() {
  if (cfg_.wear_level_threshold == 0) return;  // leveling disabled (default)
  // Leveling rides the existing round machinery under the same QoS budget:
  // time-sliced mode advances one bounded step per host request,
  // stop-the-world completes the round synchronously (docs/ENDURANCE.md).
  const std::uint64_t budget =
      cfg_.gc_mode == GcMode::kTimeSliced
          ? std::max<std::uint64_t>(cfg_.gc_step_pages, 1)
          : ~0ULL;
  if (gc_victim_ != kNoVictim) {
    // A parked round is in flight. Advance it only if it is a leveling
    // round; a preempted *space* round is the reclaim path's business.
    if (wl_round_) advance_round(budget);
    return;
  }
  // Space reclaim always outranks leveling — never start a leveling round
  // while the free pool is below the GC trigger.
  if (free_pool_.size() < gc_trigger_count_) return;
  if (wear_spread() <= static_cast<double>(cfg_.wear_level_threshold)) return;
  const std::uint64_t victim = pick_wl_victim();
  if (victim == kNoVictim) return;  // nothing colder than the mean
  wl_begin_round(victim);
  advance_round(budget);
}

void FtlBase::advance_round(std::uint64_t budget) {
  if (!gc_step(budget)) {
    ++stats_.gc_preemptions;
    obs_.trace().record(obs::TraceEventType::kGcPreempt, virtual_clock_,
                        gc_victim_, sb_meta_[gc_victim_].valid_count);
  }
}

std::uint64_t FtlBase::pick_wl_victim() const {
  // Cold victim: an indexed closed superblock whose wear sits strictly
  // below the mean, oldest close time first — long-closed, under-erased
  // blocks hold exactly the cold data that pins wear down. Valid count is
  // deliberately ignored (a fully valid block is the ideal WL victim).
  const double mean = wear_mean();
  std::uint64_t best = kNoVictim;
  std::uint64_t best_close = 0;
  victim_index_.visit_ascending(
      [&](std::uint64_t, const std::vector<std::uint64_t>& sbs) {
        for (const std::uint64_t sb : sbs) {
          if (static_cast<double>(wear_[sb]) >= mean) continue;
          if (best == kNoVictim || sb_meta_[sb].close_time < best_close) {
            best = sb;
            best_close = sb_meta_[sb].close_time;
          }
        }
        return true;  // full walk: coldness decides, not valid count
      });
  return best;
}

void FtlBase::wl_begin_round(std::uint64_t victim) {
  PHFTL_CHECK(gc_victim_ == kNoVictim);
  PHFTL_CHECK(flash_.state(victim) == SuperblockState::kClosed);
  // Unlike gc_begin_round there is no fully-valid back-off — a fully
  // valid, long-closed block is precisely the cold data leveling must
  // move — and the victim-quality histogram is not observed: WL victims
  // are intentionally high-valid and would skew the separation diagnostic.
  victim_index_.remove(victim);
  ++stats_.gc_invocations;
  wl_round_ = true;
  gc_victim_ = victim;
  gc_cursor_ = 0;
  gc_round_moved_ = 0;
  obs_.trace().record(obs::TraceEventType::kGcRoundBegin, virtual_clock_,
                      victim, sb_meta_[victim].valid_count);
}

bool FtlBase::gc_once() {
  if (gc_victim_ == kNoVictim && !gc_begin_round()) return false;
  PHFTL_CHECK(gc_step(~0ULL));  // unbounded step always finishes the round
  return true;
}

void FtlBase::drain() {
  // Leave the drive quiescent: a preempted round would otherwise hold its
  // victim out of the victim index while harnesses compare final state.
  if (gc_victim_ != kNoVictim) PHFTL_CHECK(gc_step(~0ULL));
  if (!cfg_.mapping_tier) return;
  // Flush the write-back buffer so every buffered translation write is on
  // flash and charged to WA before harnesses read the counters. Flushing
  // can trigger GC (which may evict more dirty pages into a fresh buffer),
  // so iterate to quiescence. Dirty *resident* CMT entries intentionally
  // stay put — like a real cache, only eviction writes them back.
  std::uint64_t spins = 0;
  while (!wb_buffer_.empty() || gc_victim_ != kNoVictim) {
    PHFTL_CHECK_MSG(spins++ < num_tps_ * 64 + 64, "drain not converging");
    flush_wb_buffer();
    if (gc_victim_ != kNoVictim) PHFTL_CHECK(gc_step(~0ULL));
  }
}

bool FtlBase::gc_begin_round() {
  PHFTL_CHECK(gc_victim_ == kNoVictim);
  const std::uint64_t victim = pick_victim();
  if (victim == kNoVictim) {
    // No closed superblock to collect — possible when faults have retired
    // blocks faster than writes close new ones. Back off rather than crash;
    // allocate_superblock() reports genuine capacity exhaustion.
    gc_aborted_ctr_->inc();
    return false;
  }
  PHFTL_CHECK(flash_.state(victim) == SuperblockState::kClosed);
  // A fully valid victim reclaims nothing: collecting it would only churn
  // pages. Transiently possible when the free target is momentarily
  // unreachable; back off and let future invalidations create headroom.
  if (sb_meta_[victim].valid_count >= data_capacity(victim)) {
    gc_aborted_ctr_->inc();
    return false;
  }
  // End-of-life guard: the round must have somewhere to relocate the
  // victim's live pages. When wear retirement has shrunk the free pool
  // below what the migration needs, abort the round — the admission path
  // then surfaces ENOSPC to the host instead of GC aborting mid-append.
  // Healthy drives always pass (the pool floor alone covers a victim).
  std::uint64_t room = open_data_room();
  for (const std::uint64_t sb : free_pool_) room += data_capacity(sb);
  if (room < sb_meta_[victim].valid_count) {
    gc_aborted_ctr_->inc();
    return false;
  }
  // Drop the victim from the index for the round's whole lifetime (which
  // under time-slicing spans host writes): the migration steps decrement
  // its valid count without re-bucketing, host invalidations of its pages
  // land while it is unindexed, and the block leaves the closed set at the
  // erase anyway. Recovery re-inserts it if a cut strikes mid-round.
  victim_index_.remove(victim);
  ++stats_.gc_invocations;
  gc_victim_ = victim;
  gc_cursor_ = 0;
  gc_round_moved_ = 0;
  const std::uint64_t victim_valid = sb_meta_[victim].valid_count;
  victim_valid_hist_->observe(static_cast<double>(victim_valid));
  obs_.trace().record(obs::TraceEventType::kGcRoundBegin, virtual_clock_,
                      victim, victim_valid);
  return true;
}

bool FtlBase::gc_step(std::uint64_t budget) {
  PHFTL_CHECK(gc_victim_ != kNoVictim);
  PHFTL_CHECK(!in_gc_);
  // in_gc_ is true only *during* a step: between steps, host invalidations
  // of victim pages must look like ordinary host activity to the scheme
  // hooks (SepBIT's lifetime tracking depends on the distinction).
  in_gc_ = true;
  const std::uint64_t victim = gc_victim_;
  const std::uint64_t pages = geom().pages_per_superblock();
  std::uint64_t moved = 0;
  std::uint64_t off = gc_cursor_;
  for (; off < pages && moved < budget; ++off) {
    const Ppn ppn = geom().make_ppn(victim, off);
    // Skips cover both never-valid pages and pages a host write or trim
    // invalidated since the round began — those relocations are saved,
    // which is why time-sliced WA is bounded by stop-the-world's, not
    // identical to it (docs/QOS.md).
    if (!valid_bit_[ppn]) continue;
    // Translation pages are first-class GC citizens (Dayan & Bonnet),
    // recognized per page by their OOB kind.
    if (cfg_.mapping_tier &&
        flash_.read_oob(ppn).kind == PageKind::kTranslation) {
      gc_migrate_translation_page(victim, ppn);
      ++moved;
      continue;
    }
    const Lpn lpn = p2l_[ppn];
    PHFTL_CHECK(lpn != kInvalidLpn && l2p_[lpn] == ppn);

    // Read the page (payload + OOB metadata copy; §III-C: the OOB copy
    // spares GC from reading meta pages).
    const std::uint64_t payload = flash_.read(ppn);
    ++stats_.gc_reads;
    OobData oob = flash_.read_oob(ppn);

    const std::uint8_t new_count = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(gc_count_[ppn] + 1, cfg_.max_gc_streams));
    oob.gc_count = new_count;  // keep the OOB copy recovery-accurate
    const std::uint32_t stream = wl_round_
                                     ? classify_wl_write(lpn, new_count, oob)
                                     : classify_gc_write(lpn, new_count, oob);
    PHFTL_CHECK(stream < num_streams_);

    // Invalidate old location, then append to the GC stream.
    drop_valid_page(ppn, victim);
    const Ppn new_ppn =
        append<PageKind::kUser>(stream, lpn, payload, oob, nullptr);
    l2p_[lpn] = new_ppn;
    gc_count_[new_ppn] = new_count;
    // Patch the owning translation page. CMT residency batches the patches
    // per victim (Dayan & Bonnet): the victim's LPNs are segment-clustered,
    // so one demand fetch serves a run of migrations and the dirty page
    // writes back once.
    if (cfg_.mapping_tier) map_update(lpn, new_ppn);
    ++stats_.gc_writes;
    if (wl_round_) ++stats_.wl_migrations;
    ++moved;
    on_gc_write_complete(lpn, new_ppn, oob);
  }
  // A budget-limited step that drained the last valid page should not cost
  // an extra no-op step next time: skim the invalid tail now.
  while (off < pages && !valid_bit_[geom().make_ppn(victim, off)]) ++off;
  gc_cursor_ = off;
  gc_round_moved_ += moved;
  ++stats_.gc_steps;
  obs_.trace().record(obs::TraceEventType::kGcStep, virtual_clock_, victim,
                      moved);
  if (off < pages) {
    in_gc_ = false;
    return false;  // preempted: valid pages remain beyond the cursor
  }

  PHFTL_CHECK(sb_meta_[victim].valid_count == 0);
  on_superblock_erased(victim);
  dispose_drained_superblock(victim);
  in_gc_ = false;
  // gc_rounds includes wear-leveling rounds (they are real collections);
  // ftl.wl.rounds counts the leveling subset separately.
  gc_rounds_ctr_->inc();
  gc_moved_ctr_->add(gc_round_moved_);
  obs_.trace().record(obs::TraceEventType::kGcRoundEnd, virtual_clock_,
                      victim, gc_round_moved_);
  if (wl_round_) {
    ++stats_.wl_rounds;
    obs_.trace().record(obs::TraceEventType::kWearLevel, virtual_clock_,
                        victim, gc_round_moved_);
    wl_round_ = false;
  }
  gc_victim_ = kNoVictim;
  gc_cursor_ = 0;
  gc_round_moved_ = 0;
  return true;
}

// --- Demand-paged mapping tier (docs/MAPPING.md) ---
//
// The in-RAM l2p_ stays fully maintained as the ground-truth oracle; with
// the tier on, every lookup is served from GTD/CMT/flash translation pages
// and PHFTL_CHECKed against it. The tier's core invariant: for any
// translation page neither CMT-resident nor in the write-back buffer, the
// flash blob at gtd_[tpn] equals the l2p_ segment exactly (or the GTD slot
// is empty and the segment is fully unmapped).

std::uint64_t FtlBase::mapping_ram_bytes() const {
  if (!cfg_.mapping_tier) return 0;
  const std::uint64_t cap = cmt_.capacity();
  // Honest footprint (docs/MAPPING.md methodology): GTD + CMT entry slab +
  // cache index (slab nodes: 8 B key + 2x4 B links; slot table: 4 B per
  // slot at <=50% load, power-of-two) + dirty flags + write-back buffer at
  // its batch capacity.
  std::uint64_t slots = 16;
  while (slots < cap * 2) slots <<= 1;
  return num_tps_ * sizeof(Ppn)                       // GTD
         + cap * tp_entries_ * sizeof(Ppn)            // CMT entries
         + cap * 16 + slots * 4                       // FlatMetaCache index
         + cap                                        // dirty flags
         + std::max<std::uint64_t>(cfg_.cmt_wb_batch, 1) *
               (tp_entries_ * sizeof(Ppn) + 8)        // write-back buffer
         + learned_index_bytes();                     // learned segments
}

Ppn FtlBase::tier_lookup(Lpn lpn) {
  PHFTL_CHECK_MSG(cfg_.mapping_tier, "tier_lookup requires mapping_tier");
  PHFTL_CHECK(lpn < logical_pages_);
  return map_lookup(lpn, /*host_read=*/false);
}

bool FtlBase::wb_contains(std::uint64_t tpn) const {
  for (const auto& entry : wb_buffer_)
    if (entry.first == tpn) return true;
  return false;
}

bool FtlBase::wb_take(std::uint64_t tpn, std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i < wb_buffer_.size(); ++i) {
    if (wb_buffer_[i].first == tpn) {
      out = std::move(wb_buffer_[i].second);
      wb_buffer_.erase(wb_buffer_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

Ppn FtlBase::map_lookup(Lpn lpn, bool host_read) {
  const std::uint64_t tpn = lpn / tp_entries_;
  const std::uint64_t idx = lpn % tp_entries_;
  const bool gtd_empty = gtd_[tpn] == kInvalidPpn;
  // Both shortcuts below need the owning translation page's flash copy (or
  // its absence) to be the mapping truth: non-resident, not buffered, not
  // mid-flush (the tier invariant in docs/MAPPING.md). Evaluated once, and
  // only when a shortcut could apply.
  if ((gtd_empty || cfg_.learned_index) &&
      cmt_.node_of(tpn) == core::FlatMetaCache::kNoNode &&
      tpn != wb_inflight_tpn_ && !wb_contains(tpn)) {
    // Empty-GTD short circuit: the segment has never mapped anything —
    // answer from the GTD alone, without polluting the CMT or charging a
    // fetch.
    if (gtd_empty) {
      PHFTL_CHECK(l2p_[lpn] == kInvalidPpn);
      return kInvalidPpn;
    }
    // Learned fast path: a verified prediction serves the lookup with zero
    // CMT traffic; kInvalidPpn means uncovered or mispredicted — fall back.
    const Ppn predicted = learned_lookup(lpn, host_read);
    if (predicted != kInvalidPpn) return predicted;
  }
  const std::uint32_t node = cmt_fetch(tpn, /*exempt_idx=*/~0ULL, host_read);
  const Ppn ppn = cmt_entries_[node * tp_entries_ + idx];
  PHFTL_CHECK_MSG(ppn == l2p_[lpn],
                  "mapping tier diverged from the L2P shadow");
  maybe_flush_wb();
  return ppn;
}

Ppn FtlBase::learned_lookup(Lpn lpn, bool host_read) {
  std::int64_t pred = 0;
  std::uint32_t radius = 0;
  if (!learned_.predict(lpn, &pred, &radius)) return kInvalidPpn;
  const std::int64_t total =
      static_cast<std::int64_t>(geom().total_pages());
  std::uint64_t wasted = 0;
  Ppn found = kInvalidPpn;
  // Probe outward from the prediction: 0, +1, -1, ... ±radius. Each probe
  // is one flash page read (data + OOB); it verifies iff the page is a
  // valid user copy of exactly this LPN — translation/meta/journal pages
  // carry lpn = kInvalidLpn in their OOB and can never false-match, and a
  // stale user copy fails the validity bitmap. The probe that verifies IS
  // the data read; every earlier probe is wasted and charged below.
  const auto probe = [&](std::int64_t cand) {
    if (cand < 0 || cand >= total) return false;
    const Ppn p = static_cast<Ppn>(cand);
    // Unprogrammed pages need no read: an append-only controller knows
    // each block's write frontier.
    if (!flash_.is_programmed(p)) return false;
    if (valid_bit_[p] && flash_.read_oob(p).lpn == lpn) {
      found = p;
      return true;
    }
    ++wasted;
    return false;
  };
  if (!probe(pred)) {
    for (std::int64_t d = 1; d <= static_cast<std::int64_t>(radius); ++d) {
      if (probe(pred + d) || probe(pred - d)) break;
    }
  }
  stats_.learned_probe_reads += wasted;
  if (host_read) stats_.learned_probe_reads_host += wasted;
  if (found != kInvalidPpn) {
    // valid_bit_ + OOB match imply p2l_[found] == lpn, so this check can
    // only fire if the validity state itself diverged from the shadow.
    PHFTL_CHECK_MSG(found == l2p_[lpn],
                    "verified learned probe diverged from the L2P shadow");
    ++stats_.learned_hits;
    obs_.trace().record(obs::TraceEventType::kLearnedHit, virtual_clock_,
                        found, lpn);
    return found;
  }
  ++stats_.learned_mispredicts;
  obs_.trace().record(obs::TraceEventType::kLearnedMispredict, virtual_clock_,
                      static_cast<std::uint64_t>(pred < 0 ? 0 : pred), lpn);
  return kInvalidPpn;
}

void FtlBase::map_update(Lpn lpn, Ppn new_ppn) {
  const std::uint64_t tpn = lpn / tp_entries_;
  const std::uint64_t idx = lpn % tp_entries_;
  // Any mapping change — host write, trim, or a data-GC patch riding this
  // same batched CMT path — makes the trained prediction for this LPN
  // stale. Punch it out of the model now; the slot is re-covered when the
  // dirty TP's write-back retrains the range from its new content.
  if (cfg_.learned_index) learned_.invalidate(lpn);
  // l2p_[lpn] already holds new_ppn; the fetch's integrity check must skip
  // exactly this slot (its flash copy legitimately predates the update).
  const std::uint32_t node = cmt_fetch(tpn, idx, /*host_read=*/false);
  cmt_entries_[node * tp_entries_ + idx] = new_ppn;
  cmt_dirty_[node] = 1;
  maybe_flush_wb();
}

std::uint32_t FtlBase::cmt_fetch(std::uint64_t tpn, std::uint64_t exempt_idx,
                                 bool host_read) {
  PHFTL_CHECK(tpn < num_tps_);
  {
    const std::uint32_t node = cmt_.node_of(tpn);
    if (node != core::FlatMetaCache::kNoNode) {
      ++stats_.cmt_hits;
      const core::CacheAccess acc = cmt_.access(tpn);  // LRU touch
      PHFTL_CHECK(acc.hit && acc.node == node);
      obs_.trace().record(obs::TraceEventType::kTransCacheHit, virtual_clock_,
                          tpn);
      return node;
    }
  }
  ++stats_.cmt_misses;

  // Content source, newest first: the write-back buffer still owns the
  // freshest copy of a page evicted dirty (adopting it re-dirties the
  // entry — its flash copy is stale); otherwise the flash copy; otherwise
  // the segment has never been written back and materializes empty.
  std::vector<std::uint64_t> content;
  bool dirty = false;
  if (wb_take(tpn, content)) {
    dirty = true;
  } else if (tpn == wb_inflight_tpn_) {
    // The segment's write-back is being programmed right now (this fetch
    // came from GC triggered by that very program). Adopt the in-flight
    // content; dirty is conservative — the landing flash copy will match.
    content = wb_inflight_blob_;
    dirty = true;
  } else if (gtd_[tpn] != kInvalidPpn) {
    content = flash_.read_blob(gtd_[tpn]);
    ++stats_.trans_reads;
    if (host_read) ++stats_.trans_reads_host;
    obs_.trace().record(obs::TraceEventType::kTransFetch, virtual_clock_,
                        gtd_[tpn], tpn);
  }
  content.resize(tp_entries_, kInvalidPpn);

  // A dirty victim must be buffered BEFORE access() recycles its slab slot
  // for the incoming key (the slot's payload is the victim's content).
  if (cmt_.size() == cmt_.capacity()) {
    const std::uint64_t vkey = cmt_.lru_key();
    const std::uint32_t vnode = cmt_.node_of(vkey);
    PHFTL_CHECK(vnode != core::FlatMetaCache::kNoNode);
    if (cmt_dirty_[vnode]) {
      wb_buffer_.emplace_back(
          vkey, std::vector<std::uint64_t>(
                    cmt_entries_.begin() +
                        static_cast<std::ptrdiff_t>(vnode * tp_entries_),
                    cmt_entries_.begin() +
                        static_cast<std::ptrdiff_t>((vnode + 1) *
                                                    tp_entries_)));
      cmt_dirty_[vnode] = 0;
    }
  }
  const core::CacheAccess acc = cmt_.access(tpn);
  PHFTL_CHECK(!acc.hit);
  std::copy(content.begin(), content.end(),
            cmt_entries_.begin() +
                static_cast<std::ptrdiff_t>(acc.node * tp_entries_));
  cmt_dirty_[acc.node] = dirty ? 1 : 0;

  // Integrity net: whatever the source, the fetched segment must equal the
  // l2p_ shadow — except the one slot an in-flight update is about to
  // patch (map_update names it via exempt_idx).
  const std::uint64_t base = tpn * tp_entries_;
  for (std::uint64_t i = 0; i < tp_entries_; ++i) {
    if (i == exempt_idx) continue;
    const Lpn lpn = base + i;
    if (lpn >= logical_pages_) break;
    PHFTL_CHECK_MSG(
        cmt_entries_[acc.node * tp_entries_ + i] == l2p_[lpn],
        "fetched translation page diverged from the L2P shadow");
  }
  return acc.node;
}

void FtlBase::maybe_flush_wb() {
  // Never flush mid-GC-step (the round's budget is the QoS contract) or
  // reentrantly; drain() and the next host-path trigger pick it up.
  if (in_wb_flush_ || in_gc_) return;
  if (wb_buffer_.size() < std::max<std::uint64_t>(cfg_.cmt_wb_batch, 1))
    return;
  flush_wb_buffer();
}

void FtlBase::flush_wb_buffer() {
  if (wb_buffer_.empty() || in_wb_flush_ || in_gc_) return;
  in_wb_flush_ = true;
  std::uint64_t spins = 0;
  while (!wb_buffer_.empty()) {
    PHFTL_CHECK_MSG(spins++ < num_tps_ * 64 + 64,
                    "write-back flush not converging");
    // Park the entry in the in-flight holder while its program runs: the
    // program can trigger GC, whose fetches of this very segment must see
    // this (newest) content, not the stale flash copy.
    wb_inflight_tpn_ = wb_buffer_.front().first;
    wb_inflight_blob_ = std::move(wb_buffer_.front().second);
    wb_buffer_.erase(wb_buffer_.begin());
    append_translation_page(wb_inflight_tpn_, wb_inflight_blob_,
                            /*gc_migration=*/false);
    wb_inflight_tpn_ = kInvalidLpn;
    wb_inflight_blob_.clear();
  }
  wb_flushes_ctr_->inc();
  in_wb_flush_ = false;
}

Ppn FtlBase::append_translation_page(std::uint64_t tpn,
                                     std::vector<std::uint64_t> blob,
                                     bool gc_migration) {
  const std::uint32_t stream = classify_translation_write(tpn, gc_migration);
  PHFTL_CHECK(stream < num_streams_);
  OobData oob;  // translation pages carry no LPN; keyed by tpn
  oob.kind = PageKind::kTranslation;
  oob.tpn = tpn;
  oob.write_time = virtual_clock_;
  const Ppn ppn = append<PageKind::kTranslation>(stream, tpn, 0, oob, &blob);
  if (gc_migration) ++stats_.trans_gc_writes;
  return ppn;
}

void FtlBase::gc_migrate_translation_page(std::uint64_t victim, Ppn ppn) {
  const OobData& oob = flash_.read_oob(ppn);
  const std::uint64_t tpn = oob.tpn;
  PHFTL_CHECK(tpn < num_tps_);
  PHFTL_CHECK(cfg_.geom.superblock_of(ppn) == victim);
  PHFTL_CHECK(gtd_[tpn] == ppn && p2l_[ppn] == tpn);
  // Freshest content wins, and residency/buffering make the migration
  // absorb pending updates for free (the dirty state rides the new flash
  // copy): CMT-resident first, then the write-back buffer — the victim may
  // hold the stale flash copy of a page evicted dirty — then the flash
  // copy itself (charged as a translation read).
  std::vector<std::uint64_t> blob;
  const std::uint32_t node = cmt_.node_of(tpn);
  if (node != core::FlatMetaCache::kNoNode) {
    blob.assign(cmt_entries_.begin() +
                    static_cast<std::ptrdiff_t>(node * tp_entries_),
                cmt_entries_.begin() +
                    static_cast<std::ptrdiff_t>((node + 1) * tp_entries_));
  } else if (wb_take(tpn, blob)) {
    // The buffered write-back rides the migration instead of a later flush.
  } else if (tpn == wb_inflight_tpn_) {
    // The victim holds the stale flash copy of the write-back being
    // programmed right now; migrate the in-flight (newest) content.
    blob = wb_inflight_blob_;
  } else {
    blob = flash_.read_blob(ppn);
    ++stats_.trans_reads;
  }
  blob.resize(tp_entries_, kInvalidPpn);
  append_translation_page(tpn, std::move(blob), /*gc_migration=*/true);
  // The new flash copy now matches the resident content exactly.
  if (node != core::FlatMetaCache::kNoNode) cmt_dirty_[node] = 0;
  if (wl_round_) ++stats_.wl_migrations;
}

void FtlBase::reconcile_translation_pages(RecoveryReport& rep) {
  std::vector<std::uint64_t> truth(tp_entries_, kInvalidPpn);
  for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn) {
    const std::uint64_t base = tpn * tp_entries_;
    std::fill(truth.begin(), truth.end(), kInvalidPpn);
    bool any_mapped = false;
    for (std::uint64_t i = 0; i < tp_entries_; ++i) {
      const Lpn lpn = base + i;
      if (lpn >= logical_pages_) break;
      truth[i] = l2p_[lpn];
      any_mapped = any_mapped || truth[i] != kInvalidPpn;
    }
    const Ppn cur = gtd_[tpn];
    if (!any_mapped) {
      // Fully unmapped segment: drop the stale flash copy (restoring the
      // empty-GTD invariant) instead of writing an all-invalid page.
      if (cur != kInvalidPpn) {
        PHFTL_CHECK(p2l_[cur] == tpn);
        drop_valid_page(cur);
        gtd_[tpn] = kInvalidPpn;
      }
      continue;
    }
    if (cur != kInvalidPpn && flash_.read_blob(cur) == truth) {
      // Flash copy already agrees with the rebuilt truth — no rewrite, but
      // the learned model (wiped with the rest of the RAM state) still
      // needs its segments back. Training from `truth` costs zero extra
      // flash reads: the blob equality check above already paid the read.
      if (cfg_.learned_index) learned_.train(tpn, truth);
      continue;
    }
    append_translation_page(tpn, truth, /*gc_migration=*/false);
    ++rep.trans_reconciled;
    trans_reconciled_ctr_->inc();
  }
}

}  // namespace phftl
