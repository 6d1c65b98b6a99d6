#include "monitors/pebs.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/system.hpp"
#include "util/ckpt.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::monitors {
namespace {

MemOpEvent make_op(mem::DataSource src, bool is_store = false,
                   mem::TlbHit tlb = mem::TlbHit::L1) {
  MemOpEvent ev;
  ev.core = 0;
  ev.pid = 2;
  ev.vaddr = 0x1000;
  ev.paddr = 0x5000;
  ev.source = src;
  ev.is_store = is_store;
  ev.tlb = tlb;
  return ev;
}

TEST(Pebs, SamplesEveryNthQualifyingEvent) {
  PebsConfig cfg;
  cfg.event = PebsEvent::LlcMiss;
  cfg.sample_after = 10;
  PebsMonitor pebs(cfg, 1);
  for (int i = 0; i < 100; ++i) pebs.on_mem_op(make_op(mem::DataSource::MemTier1));
  EXPECT_EQ(pebs.events_seen(), 100U);
  EXPECT_EQ(pebs.samples_taken(), 10U);
}

TEST(Pebs, NonQualifyingEventsIgnored) {
  PebsConfig cfg;
  cfg.event = PebsEvent::LlcMiss;
  cfg.sample_after = 1;
  PebsMonitor pebs(cfg, 1);
  pebs.on_mem_op(make_op(mem::DataSource::L1));
  pebs.on_mem_op(make_op(mem::DataSource::LLC));
  EXPECT_EQ(pebs.samples_taken(), 0U);
  pebs.on_mem_op(make_op(mem::DataSource::MemTier2));
  EXPECT_EQ(pebs.samples_taken(), 1U);
}

TEST(Pebs, EventSelectionVariants) {
  {
    PebsConfig cfg;
    cfg.event = PebsEvent::LlcAccess;
    cfg.sample_after = 1;
    PebsMonitor pebs(cfg, 1);
    pebs.on_mem_op(make_op(mem::DataSource::LLC));
    pebs.on_mem_op(make_op(mem::DataSource::MemTier1));
    EXPECT_EQ(pebs.samples_taken(), 2U);
  }
  {
    PebsConfig cfg;
    cfg.event = PebsEvent::TlbWalk;
    cfg.sample_after = 1;
    PebsMonitor pebs(cfg, 1);
    pebs.on_mem_op(make_op(mem::DataSource::L1, false, mem::TlbHit::Miss));
    pebs.on_mem_op(make_op(mem::DataSource::L1, false, mem::TlbHit::L1));
    EXPECT_EQ(pebs.samples_taken(), 1U);
  }
  {
    PebsConfig cfg;
    cfg.event = PebsEvent::AllLoads;
    cfg.sample_after = 1;
    PebsMonitor pebs(cfg, 1);
    pebs.on_mem_op(make_op(mem::DataSource::L1, /*is_store=*/true));
    pebs.on_mem_op(make_op(mem::DataSource::L1, /*is_store=*/false));
    EXPECT_EQ(pebs.samples_taken(), 1U);
  }
}

TEST(Pebs, BufferThresholdRaisesPmi) {
  PebsConfig cfg;
  cfg.sample_after = 1;
  cfg.buffer_capacity = 4;
  PebsMonitor pebs(cfg, 1);
  int drains = 0;
  pebs.set_drain([&](std::span<const TraceSample> s) {
    EXPECT_EQ(s.size(), 4U);
    ++drains;
  });
  for (int i = 0; i < 9; ++i) pebs.on_mem_op(make_op(mem::DataSource::MemTier1));
  EXPECT_EQ(drains, 2);
  EXPECT_EQ(pebs.interrupts(), 2U);
}

TEST(Pebs, RecordFieldsPreserved) {
  PebsConfig cfg;
  cfg.sample_after = 1;
  PebsMonitor pebs(cfg, 1);
  std::vector<TraceSample> got;
  pebs.set_drain([&](std::span<const TraceSample> s) {
    got.assign(s.begin(), s.end());
  });
  MemOpEvent ev = make_op(mem::DataSource::MemTier2, true, mem::TlbHit::Miss);
  ev.time = 777;
  ev.ip = 9;
  pebs.on_mem_op(ev);
  pebs.drain();
  ASSERT_EQ(got.size(), 1U);
  EXPECT_EQ(got[0].time, 777U);
  EXPECT_EQ(got[0].ip, 9U);
  EXPECT_EQ(got[0].paddr, 0x5000U);
  EXPECT_TRUE(got[0].is_store);
  EXPECT_TRUE(got[0].tlb_miss);
  EXPECT_EQ(got[0].source, mem::DataSource::MemTier2);
}

TEST(Pebs, PerCoreCounters) {
  PebsConfig cfg;
  cfg.sample_after = 2;
  PebsMonitor pebs(cfg, 2);
  MemOpEvent a = make_op(mem::DataSource::MemTier1);
  a.core = 0;
  MemOpEvent b = make_op(mem::DataSource::MemTier1);
  b.core = 1;
  // Alternate cores: each core's counter advances independently.
  pebs.on_mem_op(a);
  pebs.on_mem_op(b);
  EXPECT_EQ(pebs.samples_taken(), 0U);
  pebs.on_mem_op(a);
  EXPECT_EQ(pebs.samples_taken(), 1U);
  pebs.on_mem_op(b);
  EXPECT_EQ(pebs.samples_taken(), 2U);
}

TEST(Pebs, OverheadModel) {
  PebsConfig cfg;
  cfg.sample_after = 1;
  cfg.buffer_capacity = 2;
  PebsMonitor pebs(cfg, 1);
  for (int i = 0; i < 4; ++i) pebs.on_mem_op(make_op(mem::DataSource::MemTier1));
  EXPECT_EQ(pebs.overhead_ns(),
            4 * cfg.cost_per_record_ns + 2 * cfg.cost_per_interrupt_ns);
}

sim::SimConfig sharded_config() {
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.sharded_engine = true;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 12;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

void add_uniform_processes(sim::System& sys) {
  for (std::uint64_t seed = 1; seed <= sys.config().cores; ++seed) {
    sys.add_process(
        std::make_unique<workloads::UniformWorkload>(1 << 22, 0.3, seed));
  }
}

template <class Saveable>
std::vector<std::uint8_t> saved_image(const Saveable& monitor) {
  util::ckpt::Writer w;
  w.begin_section("monitor");
  monitor.save_state(w);
  w.end_section();
  return w.finish();
}

TEST(Pebs, ShardedStepIsThreadCountInvariant) {
  PebsConfig cfg;
  cfg.sample_after = 16;
  cfg.buffer_capacity = 32;
  auto run = [&cfg](util::ThreadPool* pool) {
    sim::System sys(sharded_config());
    add_uniform_processes(sys);
    PebsMonitor pebs(cfg, sys.config().cores);
    pebs.enable_sharded();
    util::ckpt::Writer drained;
    drained.begin_section("samples");
    pebs.set_drain([&drained](std::span<const TraceSample> samples) {
      for (const TraceSample& s : samples) save_sample(drained, s);
    });
    sys.add_observer(&pebs);
    for (int epoch = 0; epoch < 4; ++epoch) sys.step_parallel(3001, pool);
    EXPECT_GT(pebs.samples_taken(), 0U);
    EXPECT_GT(pebs.interrupts(), 0U);
    drained.end_section();
    return std::make_pair(drained.finish(), saved_image(pebs));
  };
  util::ThreadPool pool(2);
  const auto inline_run = run(nullptr);
  const auto pooled = run(&pool);
  EXPECT_EQ(pooled.first, inline_run.first);    // samples, in drain order
  EXPECT_EQ(pooled.second, inline_run.second);  // monitor state
}

}  // namespace
}  // namespace tmprof::monitors
