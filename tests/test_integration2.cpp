/// Second integration batch: interactions across the newer subsystems
/// (THP collapse ↔ profiler granularity, mover ↔ numa_maps, 3-tier
/// systems, swap ↔ profiler coexistence rules).

#include <gtest/gtest.h>

#include "core/daemon.hpp"
#include "core/numa_maps.hpp"
#include "tiering/khugepaged.hpp"
#include "tiering/mover.hpp"
#include "tiering/swap.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 12;
  cfg.tier2_frames = 1 << 13;
  return cfg;
}

/// After khugepaged collapses a range, the daemon's A-bit observations for
/// it drop from hundreds of keys to one huge-page key, while trace
/// samples keep arriving — the Table IV granularity asymmetry, live.
TEST(Integration2, CollapseChangesProfilerGranularity) {
  sim::System sys(small_config());
  sys.add_process(std::make_unique<workloads::UniformWorkload>(
      2 << 20, 0.0, 1));
  core::DaemonConfig dcfg;
  dcfg.driver.ibs = monitors::IbsConfig::with_period(128);
  dcfg.gating_enabled = false;
  core::TmpDaemon daemon(sys, dcfg);
  sys.step(20000);
  const core::ProfileSnapshot before = daemon.tick();
  const std::size_t keys_before = before.observation.abit.size();
  EXPECT_GT(keys_before, 100U);

  tiering::KhugepagedConfig kcfg;
  kcfg.min_accessed = 0.0;
  tiering::Khugepaged khugepaged(sys, kcfg);
  EXPECT_GT(khugepaged.scan_and_collapse().collapsed, 0U);

  sys.step(20000);
  const core::ProfileSnapshot after = daemon.tick();
  EXPECT_LT(after.observation.abit.size(), keys_before / 10);
  EXPECT_FALSE(after.observation.trace.empty());
}

/// numa_maps reflects the mover's placement: after demoting everything,
/// tier0 counts drop to zero.
TEST(Integration2, NumaMapsTracksMigration) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  sys.step(16);
  core::PageStatsStore store(sys.phys().total_frames());
  EXPECT_NE(core::numa_maps(sys, pid, store).find("tier0="),
            std::string::npos);
  // Demote every heap page to tier 1 (slow).
  sim::Process& proc = sys.process(pid);
  std::vector<mem::VirtAddr> pages;
  proc.page_table().walk(
      [&](mem::VirtAddr va, mem::PageSize, mem::Pte&) {
        if (va >= proc.heap_base()) pages.push_back(va);
      });
  for (const mem::VirtAddr va : pages) {
    ASSERT_TRUE(sys.migrate_page(pid, va, 1));
  }
  const std::string text = core::numa_maps(sys, pid, store);
  // Heap lines report zero tier-0 pages now.
  std::size_t pos = text.find("0x5500000000");
  ASSERT_NE(pos, std::string::npos);
  const std::string heap_line = text.substr(pos, text.find('\n', pos) - pos);
  EXPECT_NE(heap_line.find("tier0=0"), std::string::npos);
}

/// A 3-tier system allocates first-touch through the whole ladder.
TEST(Integration2, ThreeTierFirstTouchSpillsDownTheLadder) {
  sim::SimConfig cfg = small_config();
  cfg.tiers = {mem::TierSpec{"dram", 4, 80, 80},
               mem::TierSpec{"cxl", 4, 300, 600},
               mem::TierSpec{"nvm", 1 << 12, 900, 1800}};
  sim::System sys(cfg);
  sys.add_process(std::make_unique<workloads::SequentialWorkload>(
      1 << 16, 4096, 0.0, 1));
  sys.step(16);
  EXPECT_EQ(sys.phys().used_frames(0), 4U);
  EXPECT_EQ(sys.phys().used_frames(1), 4U);
  EXPECT_GT(sys.phys().used_frames(2), 0U);
}

/// Khugepaged must refuse to collapse ranges containing poisoned PTEs —
/// a swap manager or profiler owns those pages.
TEST(Integration2, CollapseRespectsPoisonedPages) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(4 << 20, 4096, 0.0, 1));
  sys.step(512);
  sim::Process& proc = sys.process(pid);
  proc.page_table().resolve(proc.vaddr_of(0)).pte->set_poisoned(true);
  tiering::KhugepagedConfig kcfg;
  kcfg.min_accessed = 0.0;
  tiering::Khugepaged khugepaged(sys, kcfg);
  const tiering::CollapseStats stats = khugepaged.scan_and_collapse();
  EXPECT_EQ(stats.collapsed, 0U);
  proc.page_table().resolve(proc.vaddr_of(0)).pte->set_poisoned(false);
}

/// Swap and mover compose: a page swapped out and then touched comes back
/// to tier 0 and is immediately migratable again.
TEST(Integration2, SwapInThenMigrate) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 8;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  sys.step(16);
  sim::Process& proc = sys.process(pid);
  const mem::VirtAddr target = proc.vaddr_of(12 * mem::kPageSize);
  {
    tiering::SwapFarMemory swap(sys);
    swap.seal();
    sys.access(proc, target, false, 1);
    EXPECT_EQ(swap.pages_swapped_in(), 1U);
  }
  const mem::PteRef ref = proc.page_table().resolve(target);
  ASSERT_TRUE(ref);
  EXPECT_EQ(sys.phys().tier_of(ref.pte->pfn()), 0);
  EXPECT_TRUE(sys.migrate_page(pid, mem::page_base(target, ref.size), 1));
}

}  // namespace
}  // namespace tmprof
