// Mount-time L2P reconstruction from OOB areas (power-loss recovery), the
// randomized power-cut property tests, and fault-injection degradation
// (program-failure retirement, erase failures, factory bad blocks).
// docs/RECOVERY.md documents the contract these tests enforce.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "flash/fault_injector.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace phftl {
namespace {

using test::make_ftl;
using test::small_config;
using test::small_workload;

class RecoveryTest : public ::testing::TestWithParam<std::string> {};

/// Scheme factory with a lightened PHFTL trainer: the crash-property suite
/// replays hundreds of workloads, and classifier quality is not under test.
/// `gc_mode` lets the power-cut property alternate between stop-the-world
/// and time-sliced GC so cuts land mid-round with a half-relocated victim
/// (docs/QOS.md "Crash consistency").
std::unique_ptr<FtlBase> make_crash_ftl(
    const std::string& scheme, FtlConfig cfg,
    GcMode gc_mode = GcMode::kStopTheWorld) {
  cfg.gc_mode = gc_mode;
  cfg.gc_step_pages = 3;  // tiny budget: parks a victim nearly every round
  if (scheme == "PHFTL") {
    core::PhftlConfig pc = core::default_phftl_config(cfg, /*seed=*/11);
    pc.trainer.window_pages = 1024;
    pc.trainer.max_window_samples = 512;
    pc.trainer.train_per_class = 32;
    return std::make_unique<core::PhftlFtl>(pc);
  }
  return make_ftl(scheme, cfg);
}

/// Structural invariants that must hold whenever the FTL is quiescent:
/// validity bitmaps agree with per-superblock counts, and the victim index
/// holds exactly the closed superblocks at their current valid counts.
void check_invariants(const FtlBase& ftl) {
  const Geometry& g = ftl.config().geom;
  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb) {
    std::uint64_t bitmap_count = 0;
    for (std::uint64_t off = 0; off < g.pages_per_superblock(); ++off)
      bitmap_count += ftl.page_valid(g.make_ppn(sb, off)) ? 1 : 0;
    ASSERT_EQ(bitmap_count, ftl.valid_count(sb)) << "sb " << sb;
  }
  std::set<std::uint64_t> indexed;
  ftl.visit_closed_by_valid(
      [&](std::uint64_t bucket_valid, const std::vector<std::uint64_t>& sbs) {
        for (const std::uint64_t sb : sbs) {
          indexed.insert(sb);
          EXPECT_EQ(ftl.valid_count(sb), bucket_valid) << "sb " << sb;
          EXPECT_EQ(ftl.flash().state(sb), SuperblockState::kClosed)
              << "sb " << sb;
        }
        return true;
      });
  std::uint64_t closed = 0;
  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb) {
    if (ftl.flash().state(sb) != SuperblockState::kClosed) continue;
    if (ftl.is_journal_sb(sb)) {
      // Trim-journal superblocks are closed but must never be GC victims.
      EXPECT_FALSE(indexed.count(sb)) << "journal sb " << sb << " indexed";
      continue;
    }
    if (sb == ftl.gc_inflight_victim()) {
      // A parked time-sliced victim is closed but deliberately held out of
      // the victim index until its round completes (docs/QOS.md).
      EXPECT_FALSE(indexed.count(sb)) << "in-flight victim " << sb
                                      << " indexed";
      continue;
    }
    ++closed;
    EXPECT_TRUE(indexed.count(sb)) << "closed sb " << sb << " not indexed";
  }
  EXPECT_EQ(indexed.size(), closed);
  // WA accounting sanity: flash programs never undercount host writes.
  EXPECT_GE(ftl.stats().flash_writes(), ftl.stats().user_writes);
}

/// Every acknowledged page (written, not since trimmed) must read back its
/// exact payload.
void verify_acked(FtlBase& ftl, const std::vector<std::uint8_t>& acked) {
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    if (!acked[lpn]) continue;
    ASSERT_TRUE(ftl.is_mapped(lpn)) << "acked lpn " << lpn << " lost";
    ASSERT_EQ(ftl.read_page(lpn), lpn ^ 0x5bd1e995ULL) << "lpn " << lpn;
  }
}

TEST_P(RecoveryTest, RebuiltMappingServesIdenticalReads) {
  const FtlConfig cfg = small_config();
  auto ftl = make_ftl(GetParam(), cfg);
  const Trace trace = small_workload(cfg, 3.0, 41);
  for (const auto& req : trace.ops) ftl->submit(req);

  // Snapshot the pre-crash state.
  std::map<Lpn, Ppn> mapping;
  for (Lpn lpn = 0; lpn < ftl->logical_pages(); ++lpn)
    if (ftl->is_mapped(lpn)) mapping[lpn] = ftl->lookup(lpn);
  ASSERT_FALSE(mapping.empty());

  // "Power loss": wipe and rebuild the volatile tables from flash.
  ftl->rebuild_mapping_from_flash();

  for (const auto& [lpn, ppn] : mapping) {
    ASSERT_TRUE(ftl->is_mapped(lpn)) << GetParam() << " lpn " << lpn;
    EXPECT_EQ(ftl->lookup(lpn), ppn);
    EXPECT_EQ(ftl->read_page(lpn), lpn ^ 0x5bd1e995ULL);
  }
}

TEST_P(RecoveryTest, RebuiltValidityCountsAreConsistent) {
  const FtlConfig cfg = small_config();
  auto ftl = make_ftl(GetParam(), cfg);
  const Trace trace = small_workload(cfg, 2.0, 43);
  for (const auto& req : trace.ops) ftl->submit(req);

  std::vector<std::uint64_t> counts_before(cfg.geom.num_superblocks());
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    counts_before[sb] = ftl->valid_count(sb);

  ftl->rebuild_mapping_from_flash();
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    EXPECT_EQ(ftl->valid_count(sb), counts_before[sb]) << "sb " << sb;
}

TEST_P(RecoveryTest, DeviceRemainsUsableAfterRecovery) {
  const FtlConfig cfg = small_config();
  auto ftl = make_ftl(GetParam(), cfg);
  const Trace trace = small_workload(cfg, 2.0, 47);
  for (const auto& req : trace.ops) ftl->submit(req);

  ftl->rebuild_mapping_from_flash();

  // Post-recovery traffic, including GC, must behave normally.
  WriteContext ctx;
  Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    const Lpn lpn = rng.next_below(ftl->logical_pages());
    ftl->write_page(lpn, ctx);
    ASSERT_EQ(ftl->read_page(lpn), lpn ^ 0x5bd1e995ULL);
  }
}

TEST_P(RecoveryTest, TrimmedPagesStayUnmappedAcrossRecovery) {
  // Trims are journaled before being acknowledged, and recover() replays
  // the journal after the OOB rebuild — so a trimmed-and-not-rewritten page
  // must stay unmapped across an unclean shutdown (docs/RECOVERY.md).
  const FtlConfig cfg = small_config();
  auto ftl = make_ftl(GetParam(), cfg);
  WriteContext ctx;
  ftl->write_page(7, ctx);
  ftl->trim_page(7);
  EXPECT_FALSE(ftl->is_mapped(7));

  // The raw OOB rebuild alone resurrects the stale copy (the newest flash
  // copy of LPN 7 still exists) — exactly the bug the journal fixes.
  ftl->rebuild_mapping_from_flash();
  EXPECT_TRUE(ftl->is_mapped(7));

  const RecoveryReport rep = ftl->recover();
  EXPECT_FALSE(ftl->is_mapped(7)) << "trim resurrected across recovery";
  EXPECT_GE(rep.trim_records_replayed, 1u);
  EXPECT_GE(rep.trim_tombstones, 1u);
  EXPECT_GE(ftl->live_tombstones(), 1u);

  // A rewrite after the trim wins over the journal record.
  ftl->write_page(7, ctx);
  ftl->recover();
  EXPECT_TRUE(ftl->is_mapped(7));
  EXPECT_EQ(ftl->read_page(7), 7 ^ 0x5bd1e995ULL);
}

TEST_P(RecoveryTest, JournalCompactionPreservesTombstones) {
  // Force enough trim churn to trigger compaction, then crash: the rewritten
  // (dense) journal must still protect every live tombstone, and the journal
  // footprint must stay bounded at one superblock after every mount.
  const FtlConfig cfg = small_config();
  auto ftl = make_crash_ftl(GetParam(), cfg);
  const std::uint64_t logical = ftl->logical_pages();
  WriteContext ctx;
  Xoshiro256 rng(2024);
  std::vector<std::uint8_t> trimmed(logical, 0);
  // Each round writes two pages and trims one of them immediately, so every
  // trim is effective and appends one record page — comfortably exceeding
  // the compaction threshold (half a superblock of record pages).
  const std::uint64_t rounds = 2 * cfg.geom.pages_per_superblock() + 64;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const Lpn keep = rng.next_below(logical);
    ftl->write_page(keep, ctx);
    trimmed[keep] = 0;
    const Lpn t = rng.next_below(logical);
    ftl->write_page(t, ctx);
    trimmed[t] = 0;
    ASSERT_TRUE(ftl->trim_page(t));
    trimmed[t] = 1;
  }
  EXPECT_GE(ftl->stats().trim_journal_compactions, 1u);
  ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));

  ftl->recover();
  for (Lpn lpn = 0; lpn < logical; ++lpn)
    ASSERT_FALSE(trimmed[lpn] && ftl->is_mapped(lpn))
        << "trimmed lpn " << lpn << " resurrected";
  // Post-mount the journal occupies at most one superblock.
  EXPECT_LE(ftl->trim_journal_superblocks(), 1u);
  ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));
}

TEST_P(RecoveryTest, VirtualClockSurvivesCrossing32Bits) {
  // Regression: OOB write_time used to be truncated to 32 bits, so a mount
  // after the clock crossed 2^32 would warp lifetimes back to zero.
  const FtlConfig cfg = small_config();
  auto ftl = make_crash_ftl(GetParam(), cfg);
  WriteContext ctx;
  Xoshiro256 rng(321);
  const std::uint64_t seed_clock = (1ULL << 32) - 50;
  ftl->seed_virtual_clock(seed_clock);
  const std::uint64_t writes = 200;  // clock crosses 2^32 mid-loop
  for (std::uint64_t w = 0; w < writes; ++w)
    ftl->write_page(rng.next_below(ftl->logical_pages()), ctx);
  EXPECT_GT(ftl->virtual_clock(), 1ULL << 32);

  const RecoveryReport rep = ftl->recover();
  EXPECT_GT(rep.recovered_vclock, 1ULL << 32)
      << "recovered clock wrapped below 2^32";
  EXPECT_LE(rep.recovered_vclock, seed_clock + writes + 1);
  ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));
}

// --- randomized power-cut property test (docs/RECOVERY.md contract) ---
//
// ISSUE acceptance criterion: >= 50 random power-cut points per scheme must
// recover acknowledged data bit-for-bit, with valid-count and victim-index
// invariants holding both right after the remount and after resumed traffic.
// Odd cuts run under time-sliced GC with a 3-page step budget, so many cuts
// strike with a half-relocated victim parked between steps — recovery must
// rebuild from whatever mix of old and new copies is on flash (the newest
// program wins by write_time; docs/QOS.md "Crash consistency").
TEST_P(RecoveryTest, RandomizedPowerCutsPreserveAcknowledgedData) {
  const FtlConfig cfg = small_config();
  constexpr std::uint64_t kCuts = 50;
  Xoshiro256 cut_rng(0xC0FFEE);
  for (std::uint64_t c = 0; c < kCuts; ++c) {
    const GcMode mode =
        c % 2 == 1 ? GcMode::kTimeSliced : GcMode::kStopTheWorld;
    auto ftl = make_crash_ftl(GetParam(), cfg, mode);
    const std::uint64_t logical = ftl->logical_pages();
    const std::uint64_t hot = std::max<std::uint64_t>(logical / 10, 1);
    // Cuts span cold start through steady-state GC (up to 2 full drives).
    const std::uint64_t cut = 1 + cut_rng.next_below(logical * 2);

    Xoshiro256 rng(1000 + c);
    std::vector<std::uint8_t> acked(logical, 0);
    // trimmed[lpn] = acknowledged trim not superseded by a rewrite; such
    // pages must stay unmapped across every remount (the journal contract).
    std::vector<std::uint8_t> trimmed(logical, 0);
    const auto verify_trimmed = [&] {
      for (Lpn lpn = 0; lpn < logical; ++lpn)
        ASSERT_FALSE(trimmed[lpn] && ftl->is_mapped(lpn))
            << "trimmed lpn " << lpn << " resurrected";
    };
    WriteContext ctx;
    std::uint64_t pre_vclock = 0;
    for (std::uint64_t w = 0; w < cut; ++w) {
      if (rng.next_bool(0.05)) {
        const Lpn t = rng.next_below(logical);
        if (ftl->trim_page(t)) trimmed[t] = 1;
        acked[t] = 0;
      }
      const Lpn lpn =
          rng.next_bool(0.5) ? rng.next_below(hot) : rng.next_below(logical);
      ftl->write_page(lpn, ctx);
      acked[lpn] = 1;
      trimmed[lpn] = 0;
      ++pre_vclock;
    }

    const RecoveryReport rep = ftl->recover();
    // A cut mid-round leaves no resumable cursor: the mount resets the
    // in-flight state and the victim re-enters the victim index at its
    // remaining valid count (rebuild pass 3).
    ASSERT_EQ(ftl->gc_inflight_victim(), FtlBase::kNoVictim);
    ASSERT_NO_FATAL_FAILURE(verify_acked(*ftl, acked))
        << GetParam() << " cut " << cut;
    ASSERT_NO_FATAL_FAILURE(verify_trimmed()) << GetParam() << " cut " << cut;
    ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl))
        << GetParam() << " cut " << cut;
    EXPECT_GT(rep.oob_scans, 0u);
    EXPECT_GT(rep.mapped_lpns, 0u);
    // The journal never spans more than one superblock after a mount.
    EXPECT_LE(ftl->trim_journal_superblocks(), 1u);
    // The re-derived clock is a lower bound on host writes issued
    // (write_time survives GC moves, so stale copies never inflate it).
    EXPECT_GT(rep.recovered_vclock, 0u);
    EXPECT_LE(rep.recovered_vclock, pre_vclock + 1);
    // Same contract shape for the wear table (docs/ENDURANCE.md): the
    // re-derived per-superblock erase counts are lower bounds on the
    // physical counts, exact for data blocks that still hold a programmed
    // page. Excluded from exactness: pageless blocks (cut right after the
    // opening erase) and journal blocks — the mount's own step-7
    // compaction cycles those after the wear table was re-derived.
    for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb) {
      ASSERT_LE(ftl->wear_count(sb), ftl->flash().erase_count(sb))
          << GetParam() << " cut " << cut << " sb " << sb;
      bool holds_page = false;
      for (std::uint64_t off = 0; off < ftl->flash().write_pointer(sb); ++off)
        holds_page |= ftl->flash().is_programmed(cfg.geom.make_ppn(sb, off));
      if (holds_page && !ftl->is_journal_sb(sb) &&
          ftl->flash().state(sb) == SuperblockState::kClosed) {
        ASSERT_EQ(ftl->wear_count(sb), ftl->flash().erase_count(sb))
            << GetParam() << " cut " << cut << " sb " << sb;
      }
    }

    // The drive must keep serving traffic after the remount, including
    // further trims of recovered data.
    for (int w = 0; w < 400; ++w) {
      if (rng.next_bool(0.05)) {
        const Lpn t = rng.next_below(logical);
        if (ftl->trim_page(t)) trimmed[t] = 1;
        acked[t] = 0;
      }
      const Lpn lpn = rng.next_below(logical);
      ftl->write_page(lpn, ctx);
      acked[lpn] = 1;
      trimmed[lpn] = 0;
      ASSERT_EQ(ftl->read_page(lpn), lpn ^ 0x5bd1e995ULL);
    }
    ASSERT_NO_FATAL_FAILURE(verify_acked(*ftl, acked));
    ASSERT_NO_FATAL_FAILURE(verify_trimmed());
    ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));
  }
}

// Mapping-tier variant of the power-cut property (docs/MAPPING.md "Crash
// semantics"): the same 50 random cut points now strike a drive whose L2P
// truth lives on flash behind a deliberately tiny CMT with held-back dirty
// write-backs — so cuts routinely land with dirty CMT entries lost, a
// populated write-back buffer discarded, translation pages half-migrated
// by a parked time-sliced GC round, and trims journaled but not yet
// reflected in flash-resident translation pages. Mount-time GTD rebuild +
// reconciliation must still serve every acknowledged page bit-for-bit.
TEST_P(RecoveryTest, RandomizedPowerCutsPreserveDataWithMappingTier) {
  FtlConfig cfg = small_config();
  cfg.op_ratio = 0.20;  // room for the translation-superblock reserve
  cfg.mapping_tier = true;
  cfg.tp_entries = 64;  // 52 translation pages on the tiny drive
  cfg.cmt_pages = 8;    // heavy eviction traffic
  cfg.cmt_wb_batch = 16;
  constexpr std::uint64_t kCuts = 50;
  Xoshiro256 cut_rng(0x7EA0C0DE);
  for (std::uint64_t c = 0; c < kCuts; ++c) {
    const GcMode mode =
        c % 2 == 1 ? GcMode::kTimeSliced : GcMode::kStopTheWorld;
    // Alternate the learned index on/off across cuts (period 2 vs the GC
    // mode's period so both pair with both): on, the model dies with RAM
    // at the cut and mount-time reconciliation must retrain its segments
    // from the rebuilt truth (docs/MAPPING.md "Learned index").
    cfg.learned_index = (c / 2) % 2 == 0;
    auto ftl = make_crash_ftl(GetParam(), cfg, mode);
    const std::uint64_t logical = ftl->logical_pages();
    const std::uint64_t hot = std::max<std::uint64_t>(logical / 10, 1);
    const std::uint64_t cut = 1 + cut_rng.next_below(logical * 2);

    Xoshiro256 rng(4000 + c);
    std::vector<std::uint8_t> acked(logical, 0);
    std::vector<std::uint8_t> trimmed(logical, 0);
    WriteContext ctx;
    for (std::uint64_t w = 0; w < cut; ++w) {
      if (rng.next_bool(0.05)) {
        const Lpn t = rng.next_below(logical);
        if (ftl->trim_page(t)) trimmed[t] = 1;
        acked[t] = 0;
      }
      const Lpn lpn =
          rng.next_bool(0.5) ? rng.next_below(hot) : rng.next_below(logical);
      ftl->write_page(lpn, ctx);
      acked[lpn] = 1;
      trimmed[lpn] = 0;
    }

    const RecoveryReport rep = ftl->recover();
    ASSERT_EQ(ftl->gc_inflight_victim(), FtlBase::kNoVictim);
    ASSERT_EQ(ftl->wb_pending(), 0u);
    // verify_acked reads through the demand-paged path, which cross-checks
    // every lookup against the rebuilt shadow and aborts on divergence.
    ASSERT_NO_FATAL_FAILURE(verify_acked(*ftl, acked))
        << GetParam() << " cut " << cut;
    for (Lpn lpn = 0; lpn < logical; ++lpn) {
      ASSERT_FALSE(trimmed[lpn] && ftl->is_mapped(lpn))
          << "trimmed lpn " << lpn << " resurrected, cut " << cut;
      ASSERT_EQ(ftl->tier_lookup(lpn), ftl->lookup(lpn))
          << GetParam() << " cut " << cut << " lpn " << lpn;
    }
    ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl))
        << GetParam() << " cut " << cut;
    // Any cut deep enough to have flushed a translation page must rebuild
    // GTD entries from OOB stamps (early cuts may legitimately find none).
    if (ftl->stats().trans_writes > 0 || cut > logical) {
      EXPECT_GT(rep.trans_gtd_rebuilt, 0u) << GetParam() << " cut " << cut;
      // Learned-on: reconciliation retrained the model from the rebuilt
      // truth, so the mount comes back with live segments (and the
      // tier_lookup sweep above already verified them against the shadow).
      if (cfg.learned_index) {
        EXPECT_GT(ftl->learned_segments(), 0u) << GetParam() << " cut " << cut;
      }
    }
    EXPECT_LE(ftl->trim_journal_superblocks(), 1u);

    // The remounted drive keeps serving demand-paged traffic.
    for (int w = 0; w < 400; ++w) {
      if (rng.next_bool(0.05)) {
        const Lpn t = rng.next_below(logical);
        if (ftl->trim_page(t)) trimmed[t] = 1;
        acked[t] = 0;
      }
      const Lpn lpn = rng.next_below(logical);
      ftl->write_page(lpn, ctx);
      acked[lpn] = 1;
      trimmed[lpn] = 0;
      ASSERT_EQ(ftl->read_page(lpn), lpn ^ 0x5bd1e995ULL);
    }
    ASSERT_NO_FATAL_FAILURE(verify_acked(*ftl, acked));
    ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));
  }
}

// --- fault-injection degradation (docs/RECOVERY.md "Fault model") ---

/// Fault tests run with extra over-provisioning so permanently retired
/// superblocks cannot push the drive below its GC headroom.
FtlConfig fault_config() {
  FtlConfig cfg = small_config();
  cfg.op_ratio = 0.20;
  return cfg;
}

/// The program-failure workload: three drive writes of uniform random
/// pages and, with `trims`, a one-page trim before 5 % of them. Returns the
/// host's view: `acked` pages must read back, `trimmed` ones (not since
/// rewritten) must stay unmapped. `after_op` runs after every write.
struct HostView {
  std::vector<std::uint8_t> acked;
  std::vector<std::uint8_t> trimmed;
};
template <typename AfterOp>
HostView run_fault_workload(FtlBase& ftl, bool trims, AfterOp&& after_op) {
  const std::uint64_t logical = ftl.logical_pages();
  HostView host{std::vector<std::uint8_t>(logical, 0),
                std::vector<std::uint8_t>(logical, 0)};
  WriteContext ctx;
  Xoshiro256 rng(77);
  for (std::uint64_t w = 0; w < logical * 3; ++w) {
    if (trims && rng.next_bool(0.05)) {
      const Lpn t = rng.next_below(logical);
      if (ftl.trim_page(t)) host.trimmed[t] = 1;
      host.acked[t] = 0;
    }
    const Lpn lpn = rng.next_below(logical);
    ftl.write_page(lpn, ctx);
    host.acked[lpn] = 1;
    host.trimmed[lpn] = 0;
    after_op();
  }
  return host;
}

/// Acknowledged pages read back, trimmed ones stay unmapped, and (tier on)
/// every lookup through the translation pages agrees with the L2P shadow.
void verify_host_view(FtlBase& ftl, const HostView& host) {
  ASSERT_NO_FATAL_FAILURE(verify_acked(ftl, host.acked));
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ASSERT_FALSE(host.trimmed[lpn] && ftl.is_mapped(lpn))
        << "trimmed lpn " << lpn << " resurrected";
    if (ftl.mapping_tier_enabled()) {
      ASSERT_EQ(ftl.tier_lookup(lpn), ftl.lookup(lpn)) << "lpn " << lpn;
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_invariants(ftl));
}

TEST_P(RecoveryTest, ProgramFailuresRetireBlocksWithoutDataLoss) {
  // Input 1: data pages only, tier off. Three scheduled mid-run failures
  // keep retirement deterministic and the capacity loss bounded (3 of 64
  // superblocks).
  {
    FtlConfig cfg = fault_config();
    FaultInjector injector;
    injector.schedule_program_failure(500);
    injector.schedule_program_failure(2500);
    injector.schedule_program_failure(6000);
    cfg.fault_injector = &injector;
    auto ftl = make_crash_ftl(GetParam(), cfg);
    const HostView host = run_fault_workload(*ftl, /*trims=*/false, [] {});

    EXPECT_EQ(ftl->stats().program_failures, 3u);
    // Each failure marks its superblock for retirement; retirement happens
    // when GC later picks the block, and 3x drive writes force full GC
    // churn.
    EXPECT_GE(ftl->stats().blocks_retired, 1u);
    EXPECT_EQ(ftl->flash().bad_block_count(), ftl->stats().blocks_retired);
    ASSERT_NO_FATAL_FAILURE(verify_host_view(*ftl, host));

    // Retired blocks must survive a remount out of service.
    ftl->recover();
    EXPECT_EQ(ftl->flash().bad_block_count(), ftl->stats().blocks_retired);
    ASSERT_NO_FATAL_FAILURE(verify_host_view(*ftl, host));
  }

  // Input 2: mapping tier on + trims, one failure on a translation-page
  // program and (separately) one on a trim-journal program. A fault-free
  // dry run of the same workload names the op index and the block it
  // programs: the runs agree up to the failure, and op k stamps
  // program_seq k + 1 in the dry run. The newest page of each kind one
  // drive write in leaves two drive writes of GC and compaction traffic to
  // reclaim the failed block.
  FtlConfig cfg = fault_config();
  cfg.mapping_tier = true;
  cfg.tp_entries = 64;  // 52 translation pages on the tiny drive
  cfg.cmt_pages = 8;    // heavy write-back traffic
  // kind -> (op index, superblock) of its newest page one drive write in
  std::map<PageKind, std::pair<std::uint64_t, std::uint64_t>> newest;
  {
    auto dry = make_crash_ftl(GetParam(), cfg);
    std::uint64_t ops = 0;
    run_fault_workload(*dry, /*trims=*/true, [&] {
      if (++ops != dry->logical_pages()) return;
      const FlashArray& flash = dry->flash();
      for (Ppn ppn = 0; ppn < cfg.geom.total_pages(); ++ppn) {
        if (!flash.is_programmed(ppn)) continue;
        const OobData& oob = flash.read_oob(ppn);
        auto& [op, sb] = newest[oob.kind];  // zero-initialized when new
        if (oob.program_seq - 1 >= op) {
          op = oob.program_seq - 1;
          sb = cfg.geom.superblock_of(ppn);
        }
      }
    });
  }
  for (const PageKind kind : {PageKind::kTranslation, PageKind::kTrimJournal}) {
    const bool journal = kind == PageKind::kTrimJournal;
    ASSERT_TRUE(newest.count(kind)) << "dry run programmed no such page";
    const auto [op, failed] = newest[kind];
    SCOPED_TRACE(journal ? "journal program failure"
                         : "translation program failure");
    FaultInjector injector;
    injector.schedule_program_failure(op);
    cfg.fault_injector = &injector;
    auto ftl = make_crash_ftl(GetParam(), cfg);
    bool checked = false;
    const HostView host = run_fault_workload(*ftl, /*trims=*/true, [&] {
      if (checked || injector.program_failures_injected() == 0) return;
      // Right after the failure the block is closed and held for its
      // kind's reclaimer: GC (victim-indexed) for a translation block,
      // compaction (never indexed) for a journal block.
      checked = true;
      check_invariants(*ftl);
    });
    EXPECT_EQ(ftl->stats().program_failures, 1u);
    EXPECT_TRUE(ftl->flash().is_bad(failed)) << "sb " << failed;
    EXPECT_EQ(ftl->stats().blocks_retired, 1u);
    EXPECT_EQ(ftl->flash().bad_block_count(), 1u);
    ASSERT_NO_FATAL_FAILURE(verify_host_view(*ftl, host));
    ftl->recover();
    EXPECT_TRUE(ftl->flash().is_bad(failed));
    ASSERT_NO_FATAL_FAILURE(verify_host_view(*ftl, host));
  }
}

TEST_P(RecoveryTest, EraseFailuresShrinkTheDriveGracefully) {
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  injector.schedule_erase_failure(5);
  injector.schedule_erase_failure(25);
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);

  const std::uint64_t logical = ftl->logical_pages();
  std::vector<std::uint8_t> acked(logical, 0);
  WriteContext ctx;
  Xoshiro256 rng(78);
  for (std::uint64_t w = 0; w < logical * 3; ++w) {
    const Lpn lpn = rng.next_below(logical);
    ftl->write_page(lpn, ctx);
    acked[lpn] = 1;
  }

  EXPECT_EQ(ftl->stats().erase_failures, 2u);
  EXPECT_GE(ftl->flash().bad_block_count(), 2u);
  ASSERT_NO_FATAL_FAILURE(verify_acked(*ftl, acked));
  ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));
}

TEST_P(RecoveryTest, FactoryBadBlocksStayOutOfService) {
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  fc.factory_bad_blocks = {0, 13, 40};
  FaultInjector injector(fc);
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);

  EXPECT_EQ(ftl->flash().bad_block_count(), 3u);
  const std::uint64_t logical = ftl->logical_pages();
  std::vector<std::uint8_t> acked(logical, 0);
  WriteContext ctx;
  Xoshiro256 rng(79);
  for (std::uint64_t w = 0; w < logical * 2; ++w) {
    const Lpn lpn = rng.next_below(logical);
    ftl->write_page(lpn, ctx);
    acked[lpn] = 1;
  }

  // No live data may ever land in a factory-bad superblock.
  const Geometry& g = cfg.geom;
  for (const std::uint64_t sb : {0ULL, 13ULL, 40ULL}) {
    EXPECT_EQ(ftl->flash().state(sb), SuperblockState::kBad);
    EXPECT_EQ(ftl->valid_count(sb), 0u);
    for (std::uint64_t off = 0; off < g.pages_per_superblock(); ++off)
      EXPECT_FALSE(ftl->page_valid(g.make_ppn(sb, off)));
  }

  // And recovery must skip them while restoring everything else.
  ftl->recover();
  EXPECT_EQ(ftl->flash().bad_block_count(), 3u);
  ASSERT_NO_FATAL_FAILURE(verify_acked(*ftl, acked));
  ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));
}

TEST_P(RecoveryTest, WatermarkRejectsWritesCleanlyUnderEraseStorm) {
  // Erase-failure storm: blocks go bad until the over-provisioning is
  // nearly exhausted. The capacity watermark must turn that into clean
  // kEnospc rejections *before* GC runs out of headroom and aborts.
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  for (std::uint64_t e = 5; e <= 45; e += 5)
    injector.schedule_erase_failure(e);  // nine failures
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);
  const std::uint64_t logical = ftl->logical_pages();

  // Fill the whole logical space — a healthy drive admits all of it.
  WriteContext ctx;
  for (Lpn lpn = 0; lpn < logical; ++lpn)
    ASSERT_EQ(ftl->try_write_page(lpn, ctx), WriteResult::kOk);
  ASSERT_EQ(ftl->mapped_page_count(), logical);

  // Overwrite churn drives GC; each scheduled erase failure takes a block
  // out of service until the watermark sinks below the mapped count.
  Xoshiro256 rng(90);
  bool saw_enospc = false;
  for (std::uint64_t w = 0; w < logical * 6 && !saw_enospc; ++w) {
    const Lpn lpn = rng.next_below(logical);
    saw_enospc = ftl->try_write_page(lpn, ctx) == WriteResult::kEnospc;
  }
  ASSERT_TRUE(saw_enospc) << "erase storm never tripped the watermark";
  EXPECT_GE(ftl->stats().enospc_rejections, 1u);
  EXPECT_GT(ftl->mapped_page_count(), ftl->capacity_watermark_pages());

  // The drive is read-only, not dead: every mapped page still reads back.
  for (int i = 0; i < 100; ++i) {
    const Lpn lpn = rng.next_below(logical);
    EXPECT_EQ(ftl->read_page(lpn), lpn ^ 0x5bd1e995ULL);
  }

  // Trimming frees capacity, and writes are admitted again below the
  // watermark (with slack for the request below).
  std::uint64_t freed = 0;
  for (Lpn lpn = 0;
       lpn < logical &&
       ftl->mapped_page_count() + 64 > ftl->capacity_watermark_pages();
       ++lpn)
    freed += ftl->trim_page(lpn) ? 1 : 0;
  EXPECT_GT(freed, 64u);
  EXPECT_EQ(ftl->try_write_page(logical - 1, ctx), WriteResult::kOk);

  // A request that crosses the watermark mid-flight reports honest partial
  // completion: the first pages_completed pages took effect, the rest
  // (including the page that bounced) did not.
  HostRequest req;
  req.op = OpType::kWrite;
  req.start_lpn = 0;  // the freshly trimmed region: all new mappings
  req.num_pages = 256;
  const SubmitResult sr = ftl->submit_checked(req);
  EXPECT_EQ(sr.status, WriteResult::kEnospc);
  ASSERT_LT(sr.pages_completed, req.num_pages);
  EXPECT_GE(sr.pages_completed, 1u);
  EXPECT_TRUE(ftl->is_mapped(sr.pages_completed - 1));
  ASSERT_NO_FATAL_FAILURE(check_invariants(*ftl));
}

TEST_P(RecoveryTest, RecoveryAndFaultMetricsAreExported) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  injector.schedule_program_failure(300);
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);

  WriteContext ctx;
  Xoshiro256 rng(80);
  for (std::uint64_t w = 0; w < ftl->logical_pages(); ++w)
    ftl->write_page(rng.next_below(ftl->logical_pages()), ctx);
  const RecoveryReport rep = ftl->recover();
  ftl->refresh_observability();

  const auto& reg = ftl->observability().metrics();
  const auto* mounts = reg.find_counter("recovery.mounts");
  const auto* scans = reg.find_counter("recovery.oob_scans");
  const auto* rebuild = reg.find_counter("recovery.rebuild_ns");
  const auto* pfail = reg.find_counter("flash.program_failures");
  ASSERT_NE(mounts, nullptr);
  ASSERT_NE(scans, nullptr);
  ASSERT_NE(rebuild, nullptr);
  ASSERT_NE(pfail, nullptr);
  EXPECT_EQ(mounts->value(), 1u);
  EXPECT_EQ(scans->value(), rep.oob_scans);
  EXPECT_EQ(rebuild->value(), rep.rebuild_ns);
  EXPECT_EQ(pfail->value(), 1u);

  // The pending-retire gauge is separate from the closed-superblock gauge
  // and wiped by recover() (the flag table is RAM-only).
  const auto* pending = reg.find_gauge("ftl.pending_retire_superblocks");
  const auto* closed = reg.find_gauge("ftl.closed_superblocks");
  ASSERT_NE(pending, nullptr);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(pending->value(), 0.0);
  EXPECT_NE(pending->value(), closed->value());

  const std::string json = obs::metrics_to_json(ftl->observability());
  for (const char* name :
       {"recovery.mounts", "recovery.oob_scans", "recovery.rebuild_ns",
        "flash.program_failures", "flash.erase_failures",
        "flash.blocks_retired", "flash.bad_blocks",
        "ftl.pending_retire_superblocks", "ftl.trim_journal.appends",
        "ftl.trim_journal.records", "ftl.trim_journal.compactions",
        "ftl.trim_journal.replayed_tombstones", "ftl.trim_journal.pages",
        "ftl.trim_journal.superblocks", "ftl.capacity_watermark_pages",
        "ftl.mapped_pages", "ftl.enospc_rejections"})
    EXPECT_NE(json.find(name), std::string::npos) << name;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, RecoveryTest,
                         ::testing::Values("Base", "2R", "SepBIT", "PHFTL"));

}  // namespace
}  // namespace phftl
