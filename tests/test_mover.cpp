#include "tiering/mover.hpp"

#include <gtest/gtest.h>

#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

sim::SimConfig small_config(std::uint64_t t1_frames) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = t1_frames;
  cfg.tier2_frames = 1 << 16;
  return cfg;
}

/// A DRAM + CXL + NVM chain with the given frame counts.
sim::SimConfig three_tier_config(std::uint64_t t0, std::uint64_t t1,
                                 std::uint64_t t2) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"dram", t0, 80, 80},
               mem::TierSpec{"cxl", t1, 300, 600},
               mem::TierSpec{"nvm", t2, 900, 1800}};
  return cfg;
}

/// Touch `pages` distinct 4 KiB pages of a process.
void touch_pages(sim::System& sys, mem::Pid pid, std::uint64_t pages) {
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t i = 0; i < pages; ++i) {
    sys.access(proc, proc.vaddr_of(i * mem::kPageSize), false, 1);
  }
}

std::vector<core::PageRank> rank_pages(sim::System& sys, mem::Pid pid,
                                       std::initializer_list<std::uint64_t>
                                           page_indices) {
  std::vector<core::PageRank> ranking;
  std::uint64_t rank = 1000;
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t idx : page_indices) {
    core::PageRank pr;
    pr.key = PageKey{pid, proc.vaddr_of(idx * mem::kPageSize)};
    pr.rank = rank--;
    ranking.push_back(pr);
  }
  return ranking;
}

TEST(Mover, PromotesHotPagesIntoTier1) {
  sim::System sys(small_config(4));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 4 land in t1, 6 spill to t2
  PageMover mover(sys);
  // Declare pages 6..9 (currently in t2) the hottest.
  const auto ranking = rank_pages(sys, pid, {6, 7, 8, 9});
  const MoveStats stats = mover.apply(ranking, {4});
  EXPECT_EQ(stats.promoted, 4U);
  EXPECT_EQ(stats.demoted, 4U);  // the old residents made room
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t idx : {6, 7, 8, 9}) {
    const auto ref =
        proc.page_table().resolve(proc.vaddr_of(idx * mem::kPageSize));
    EXPECT_EQ(sys.phys().tier_of(ref.pte->pfn()), 0) << idx;
  }
}

TEST(Mover, AlreadyPlacedPagesNotMoved) {
  sim::System sys(small_config(4));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 4);  // all fit in t1
  PageMover mover(sys);
  const auto ranking = rank_pages(sys, pid, {0, 1, 2, 3});
  const MoveStats stats = mover.apply(ranking, {4});
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
  EXPECT_EQ(stats.cost_ns, 0U);
}

TEST(Mover, ChargesMigrationCostToClock) {
  sim::SimConfig cfg = small_config(2);
  cfg.tier2_frames = 8;  // slack below: exchanges need staging room
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 6);
  const util::SimNs cost = 50 * util::kMicrosecond;
  PageMover mover(sys, MoverConfig{.per_page_cost_ns = cost});
  const util::SimNs before = sys.now();
  const auto ranking = rank_pages(sys, pid, {5, 4});
  const MoveStats stats = mover.apply(ranking, {2});
  EXPECT_EQ(stats.promoted, 2U);
  EXPECT_EQ(stats.promoted + stats.demoted,
            (sys.now() - before) / cost);
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t idx : {5ULL, 4ULL}) {
    const auto ref =
        proc.page_table().resolve(proc.vaddr_of(idx * mem::kPageSize));
    EXPECT_EQ(sys.phys().tier_of(ref.pte->pfn()), 0) << idx;
  }
}

TEST(Mover, ResidentsEnumeration) {
  sim::System sys(small_config(3));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 5);
  PageMover mover(sys);
  EXPECT_EQ(mover.residents(0).size(), 3U);
  EXPECT_EQ(mover.residents(1).size(), 2U);
}

TEST(Mover, EmptyRankingIsNoop) {
  sim::System sys(small_config(2));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 4);
  PageMover mover(sys);
  const MoveStats stats = mover.apply({}, {2});
  EXPECT_EQ(stats.promoted + stats.demoted + stats.failed(), 0U);
}

TEST(Mover, CapacitySmallerThanTierRespected) {
  sim::System sys(small_config(8));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 8);  // all in t1
  PageMover mover(sys);
  // Policy says only 2 pages deserve t1 (capacity 2): mover demotes the
  // other t1 residents only as needed — pages 6,7 are already resident, so
  // no demotions are required to satisfy the desired set.
  const auto ranking = rank_pages(sys, pid, {6, 7});
  const MoveStats stats = mover.apply(ranking, {2});
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
}

TEST(Mover, FailsGracefullyWhenTier2Full) {
  sim::SimConfig cfg = small_config(2);
  cfg.tier2_frames = 512;  // tiny slow tier
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 2 + 512);  // fills both tiers completely
  PageMover mover(sys);
  const auto ranking = rank_pages(sys, pid, {100, 101});
  const MoveStats stats = mover.apply(ranking, {2});
  // Demotions cannot find room (t2 full) -> promotions fail, no crash.
  EXPECT_GT(stats.failed(), 0U);
  EXPECT_GT(stats.no_room, 0U);
  EXPECT_EQ(stats.aborted, 0U);  // no injected faults -> no retries/aborts
  EXPECT_EQ(stats.retried, 0U);
  // The blocked promotions wait on the deferred queue for a later epoch.
  EXPECT_GT(mover.deferred_pending(), 0U);
}

TEST(MoverTiers, FullLadderFailsGracefullyAndDefers) {
  // Every tier 100% full: demotions have no room anywhere, so promotions
  // cannot be staged either. The mover must report no_room (not crash) and
  // park the blocked promotions for later epochs.
  sim::System sys(three_tier_config(2, 4, 4));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 2 + 4 + 4: fills all three tiers exactly
  PageMover mover(sys);
  // The hottest pages live at the bottom: promotion pressure everywhere.
  const auto ranking = rank_pages(sys, pid, {9, 8, 7, 6});
  const MoveStats stats = mover.apply(ranking, {2, 4});
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
  EXPECT_GT(stats.no_room, 0U);
  EXPECT_GT(mover.deferred_pending(), 0U);
  // Re-applying after space opens up drains the queue: free a bottom-tier
  // page so the demotion ladder can stage exchanges again.
  sim::Process& proc = sys.process(pid);
  const mem::Pte freed = proc.page_table().unmap(proc.vaddr_of(0));
  sys.phys().free(freed.pfn());
  const MoveStats again = mover.apply(ranking, {2, 4});
  EXPECT_GT(again.promoted + again.demoted, 0U);
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

TEST(MoverTiers, WaterfallPlacesByRankAcrossThreeTiers) {
  sim::System sys(three_tier_config(2, 4, 1 << 14));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 2 in t0, 4 in t1, 4 in t2
  PageMover mover(sys);
  // Hottest: pages 9, 8 (currently t2); then 7, 6, 5, 4.
  const auto ranking = rank_pages(sys, pid, {9, 8, 7, 6, 5, 4});
  const MoveStats stats = mover.apply(ranking, {2, 4});
  EXPECT_GT(stats.promoted, 0U);
  sim::Process& proc = sys.process(pid);
  auto tier_of_page = [&](std::uint64_t idx) {
    const auto ref =
        proc.page_table().resolve(proc.vaddr_of(idx * mem::kPageSize));
    return sys.phys().tier_of(ref.pte->pfn());
  };
  EXPECT_EQ(tier_of_page(9), 0);
  EXPECT_EQ(tier_of_page(8), 0);
  EXPECT_EQ(tier_of_page(7), 1);
  EXPECT_EQ(tier_of_page(6), 1);
  EXPECT_EQ(tier_of_page(5), 1);
  EXPECT_EQ(tier_of_page(4), 1);
  // Unranked pages ended up at the bottom of the ladder.
  EXPECT_EQ(tier_of_page(0), 2);
}

TEST(MoverTiers, MiddleTierDemotesColdestFirst) {
  sim::System sys(three_tier_config(2, 4, 1 << 14));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 0..1 in t0, 2..5 in t1, 6..9 in t2
  PageMover mover(sys);
  // Targets with capacities {2, 3}: t0 = {0, 1}, t1 = {9, 4, 5}. Page 2
  // is ranked but beyond every capacity; page 3 is unranked (colder).
  // Page 9 needs one t1 frame: the coldest untargeted resident, page 3,
  // must make room — not page 2, which comes first in page-table order.
  const auto ranking = rank_pages(sys, pid, {0, 1, 9, 4, 5, 2});
  const MoveStats stats = mover.apply(ranking, {2, 3});
  EXPECT_EQ(stats.promoted, 1U);
  EXPECT_EQ(stats.demoted, 1U);
  sim::Process& proc = sys.process(pid);
  auto tier_of_page = [&](std::uint64_t idx) {
    const auto ref =
        proc.page_table().resolve(proc.vaddr_of(idx * mem::kPageSize));
    return sys.phys().tier_of(ref.pte->pfn());
  };
  EXPECT_EQ(tier_of_page(9), 1);
  EXPECT_EQ(tier_of_page(2), 1);
  EXPECT_EQ(tier_of_page(3), 2);
}

TEST(MoverTiers, RequiresEnoughTiers) {
  sim::SimConfig cfg = small_config(2);
  cfg.tier2_frames = 4;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 2);
  PageMover mover(sys);
  const auto ranking = rank_pages(sys, pid, {0});
  EXPECT_THROW(mover.apply(ranking, {1, 1}), util::AssertionError);
  EXPECT_THROW(mover.apply(ranking, {}), util::AssertionError);
}

}  // namespace
}  // namespace tmprof::tiering
