#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "pmu/events.hpp"
#include "util/ckpt.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::sim {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 256;
  cfg.tier2_frames = 4096;
  return cfg;
}

TEST(System, FirstTouchAllocatesAndMaps) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  const AccessResult r = sys.access(proc, proc.vaddr_of(0), false, 1);
  EXPECT_TRUE(r.page_fault);
  EXPECT_EQ(r.tlb, mem::TlbHit::Miss);
  EXPECT_TRUE(proc.page_table().resolve(proc.vaddr_of(0)));
  EXPECT_EQ(proc.rss_pages(), 1U);
  EXPECT_EQ(sys.phys().used_frames(0), 1U);
}

TEST(System, SecondAccessHitsTlbAndCache) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(64), false, 1);
  const AccessResult r = sys.access(proc, proc.vaddr_of(64), false, 1);
  EXPECT_FALSE(r.page_fault);
  EXPECT_EQ(r.tlb, mem::TlbHit::L1);
  EXPECT_EQ(r.source, mem::DataSource::L1);
}

TEST(System, PmuTracksTheAccessStream) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.3, 7));
  (void)pid;
  sys.step(5000);
  auto& pmu = sys.pmu();
  using pmu::Event;
  EXPECT_EQ(pmu.truth_total(Event::RetiredLoads) +
                pmu.truth_total(Event::RetiredStores),
            5000U);
  EXPECT_GT(pmu.truth_total(Event::DtlbWalk), 0U);
  EXPECT_GT(pmu.truth_total(Event::LlcMiss), 0U);
  EXPECT_GT(pmu.truth_total(Event::PageFault), 0U);
  // A-bit transitions can't exceed walks.
  EXPECT_LE(pmu.truth_total(Event::PtwAbitSet),
            pmu.truth_total(Event::DtlbWalk));
}

TEST(System, TimeAdvancesMonotonically) {
  System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 18, 0.0, 3));
  const util::SimNs t0 = sys.now();
  const util::SimNs spent = sys.step(100);
  EXPECT_GT(spent, 0U);
  EXPECT_EQ(sys.now(), t0 + spent);
  sys.advance_time(500);
  EXPECT_EQ(sys.now(), t0 + spent + 500);
}

TEST(System, StoresSetDirtyExactlyOncePerPage) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), true, 1);
  sys.access(proc, proc.vaddr_of(8), true, 1);
  sys.access(proc, proc.vaddr_of(16), true, 1);
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::PtwDbitSet), 1U);
  EXPECT_TRUE(proc.page_table().resolve(proc.vaddr_of(0)).pte->dirty());
}

TEST(System, DirtySetOnTlbHitStillUpdatesPte) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);  // load fills TLB, D=0
  const AccessResult r = sys.access(proc, proc.vaddr_of(0), true, 1);
  EXPECT_EQ(r.tlb, mem::TlbHit::L1);
  EXPECT_TRUE(proc.page_table().resolve(proc.vaddr_of(0)).pte->dirty());
}

TEST(System, ShootdownInvalidatesAllCores) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);
  const mem::VirtAddr page = proc.vaddr_of(0) & ~(mem::kPageSize - 1);
  sys.shootdown(pid, page, mem::PageSize::k4K);
  const std::uint32_t core = pid % sys.config().cores;
  EXPECT_EQ(sys.tlb(core).lookup(pid, proc.vaddr_of(0)).level,
            mem::TlbHit::Miss);
  EXPECT_GT(sys.pmu().truth_total(pmu::Event::TlbShootdownIpi), 0U);
}

TEST(System, MigrationMovesFrameAndPreservesData) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);
  const mem::VirtAddr page = proc.vaddr_of(0) & ~(mem::kPageSize - 1);
  const mem::Pfn before = proc.page_table().resolve(page).pte->pfn();
  EXPECT_EQ(sys.phys().tier_of(before), 0);
  ASSERT_TRUE(sys.migrate_page(pid, page, 1));
  const mem::Pfn after = proc.page_table().resolve(page).pte->pfn();
  EXPECT_EQ(sys.phys().tier_of(after), 1);
  EXPECT_FALSE(sys.phys().frame(before).allocated);
  EXPECT_EQ(sys.phys().frame(after).page_va, page);
  // Next access takes a TLB miss (shootdown) but no fault, and reads tier2.
  const AccessResult r = sys.access(proc, proc.vaddr_of(0), false, 1);
  EXPECT_EQ(r.tlb, mem::TlbHit::Miss);
  EXPECT_FALSE(r.page_fault);
}

TEST(System, ShardedMigrationFallsBackToOtherArenas) {
  // Per-core arenas keep first-touch faults core-local, but migrations run
  // at the epoch barrier: a promotion must find room in any arena of the
  // destination tier, not only in the owner's.
  SimConfig cfg = small_config();
  cfg.sharded_engine = true;  // one arena per core
  cfg.tier1_frames = 8;       // 4 tier-0 frames per core's arena
  System sys(cfg);
  const mem::Pid a = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  const mem::Pid b = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  ASSERT_EQ(a % cfg.cores, 0U);  // a faults into core 0's arena
  ASSERT_EQ(b % cfg.cores, 1U);  // b faults into core 1's arena
  Process& pa = sys.process(a);
  for (std::uint64_t i = 0; i < 5; ++i) {
    sys.access(pa, pa.vaddr_of(i * mem::kPageSize), false, 1);
  }
  ASSERT_EQ(sys.phys().used_frames(0), 4U);  // core 0's arena is full
  const mem::VirtAddr page = pa.vaddr_of(4 * mem::kPageSize) &
                             ~(mem::kPageSize - 1);
  ASSERT_EQ(sys.phys().tier_of(pa.page_table().resolve(page).pte->pfn()), 1);

  ASSERT_TRUE(sys.migrate_page(a, page, 0));
  const mem::Pfn moved = pa.page_table().resolve(page).pte->pfn();
  EXPECT_EQ(sys.phys().tier_of(moved), 0);
  EXPECT_EQ(sys.phys().used_frames(0), 5U);

  // Freed, the frame goes back to core 1's arena: b's next first touch
  // reuses it.
  sys.phys().free(pa.page_table().unmap(page).pfn());
  Process& pb = sys.process(b);
  sys.access(pb, pb.vaddr_of(0), false, 1);
  const mem::VirtAddr b_page = pb.vaddr_of(0) & ~(mem::kPageSize - 1);
  EXPECT_EQ(pb.page_table().resolve(b_page).pte->pfn(), moved);
}

TEST(System, MigrateToSameTierIsNoop) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);
  const mem::VirtAddr page = proc.vaddr_of(0) & ~(mem::kPageSize - 1);
  EXPECT_TRUE(sys.migrate_page(pid, page, 0));
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::PageMigration), 0U);
}

TEST(System, SpillToTier2WhenTier1Full) {
  SimConfig cfg = small_config();
  cfg.tier1_frames = 2;
  System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  (void)pid;
  sys.step(16);  // touches 16 distinct pages
  EXPECT_EQ(sys.phys().used_frames(0), 2U);
  EXPECT_GT(sys.phys().used_frames(1), 0U);
  EXPECT_GT(sys.pmu().truth_total(pmu::Event::MemReadTier2), 0U);
}

TEST(System, WeightedSchedulingSkewsOps) {
  System sys(small_config());
  const mem::Pid heavy = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1), 8.0);
  const mem::Pid light = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 2), 1.0);
  sys.step(900);
  EXPECT_GT(sys.process(heavy).ops_issued(),
            sys.process(light).ops_issued() * 4);
}

TEST(System, ObserverSeesEveryMemOp) {
  struct Counter final : monitors::AccessObserver {
    std::uint64_t ops = 0;
    void on_mem_op(const monitors::MemOpEvent&) override { ++ops; }
  } counter;
  System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.add_observer(&counter);
  sys.step(123);
  EXPECT_EQ(counter.ops, 123U);
  sys.remove_observer(&counter);
  sys.step(10);
  EXPECT_EQ(counter.ops, 123U);
}

}  // namespace
}  // namespace tmprof::sim

namespace tmprof::sim {
namespace {

/// Five processes of weight 2, 1, 1, 2, 1 (pids 1000..1004) on 3 cores:
/// core 0 runs pid 1002, core 1 pids 1000 and 1003, core 2 pids 1001 and
/// 1004.
std::unique_ptr<System> mixed_weight_system(bool sharded) {
  SimConfig cfg = small_config();
  cfg.cores = 3;
  cfg.sharded_engine = sharded;
  cfg.tier1_frames = 4096;
  auto sys = std::make_unique<System>(cfg);
  const double weights[] = {2.0, 1.0, 1.0, 1.0, 1.0};
  std::uint64_t seed = 1;
  for (const double weight : weights) {
    sys->add_process(
        std::make_unique<workloads::UniformWorkload>(1 << 16, 0.3, seed++),
        weight);
  }
  return sys;
}

std::vector<std::uint8_t> saved_image(System& sys) {
  util::ckpt::Writer w;
  w.begin_section("system");
  sys.save_state(w);
  w.end_section();
  return w.finish();
}

TEST(System, ShardedStepWalksEachCoresOwnSlots) {
  // The schedule lists each process round(weight / min weight) times,
  // interleaved by slot round: processes 0 1 2 3 4, then 0.
  const std::vector<std::uint32_t> schedule{0, 1, 2, 3, 4, 0};
  // Op counts that are not multiples of the 6-slot schedule leave the
  // cursor mid-lap, so later steps start part-way in and wrap. The long
  // step gives each core several 4096-op chunks, which the two workers
  // hand back and forth (worker 0 owns cores 0 and 2, worker 1 core 1);
  // the core of processes 0 and 3 has 3 slots a lap, which 4096 does not
  // divide, so a chunk that lost its place would change whose op is next.
  const std::vector<std::uint64_t> steps{7, 1, 13, 5, 22, 3, 40'003, 9};

  auto inline_shards = mixed_weight_system(true);
  auto one_worker = mixed_weight_system(true);
  auto two_workers = mixed_weight_system(true);
  util::ThreadPool pool1(1);
  util::ThreadPool pool2(2);
  std::vector<std::uint64_t> expected(5, 0);  // per process
  std::size_t cursor = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t ops : steps) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      ++expected[schedule[cursor]];
      cursor = (cursor + 1) % schedule.size();
    }
    total += ops;
    inline_shards->step_parallel(ops, nullptr);
    one_worker->step_parallel(ops, &pool1);
    two_workers->step_parallel(ops, &pool2);
    const std::vector<Process*> procs = inline_shards->processes();
    for (std::size_t p = 0; p < procs.size(); ++p) {
      EXPECT_EQ(procs[p]->ops_issued(), expected[p])
          << "process " << p << " after " << total << " ops";
    }
    EXPECT_EQ(inline_shards->total_ops(), total);
  }
  const std::vector<std::uint8_t> image = saved_image(*inline_shards);
  EXPECT_EQ(saved_image(*one_worker), image);
  EXPECT_EQ(saved_image(*two_workers), image);
}

TEST(SystemIfetch, CodePagesMappedAndItlbCounted) {
  SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 4096;
  cfg.tier2_frames = 4096;
  cfg.instruction_fetch = true;
  System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.step(1000);
  // Code pages were demand-mapped below the heap and A bits set on them.
  Process& proc = sys.process(pid);
  bool saw_code_page = false;
  proc.page_table().walk(
      [&](mem::VirtAddr va, mem::PageSize size, mem::Pte&) {
        if (va < proc.heap_base()) {
          saw_code_page = true;
          EXPECT_EQ(size, mem::PageSize::k4K);
        }
      });
  EXPECT_TRUE(saw_code_page);
  EXPECT_GT(sys.pmu().truth_total(pmu::Event::ItlbWalk), 0U);
}

TEST(SystemIfetch, DisabledByDefault) {
  SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 4096;
  cfg.tier2_frames = 4096;
  System sys(cfg);
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.step(1000);
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::ItlbWalk), 0U);
}

TEST(SystemIfetch, FetchTranslationsCacheInTlb) {
  SimConfig cfg;
  cfg.cores = 1;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 4096;
  cfg.tier2_frames = 4096;
  cfg.instruction_fetch = true;
  System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 14, 0.0, 1));
  Process& proc = sys.process(pid);
  // Same ip every time: the second fetch must not walk again.
  sys.access(proc, proc.vaddr_of(0), false, /*ip=*/1);
  const std::uint64_t walks = sys.pmu().truth_total(pmu::Event::ItlbWalk);
  sys.access(proc, proc.vaddr_of(64), false, /*ip=*/1);
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::ItlbWalk), walks);
}

}  // namespace
}  // namespace tmprof::sim
