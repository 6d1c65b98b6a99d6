#include "monitors/ibs.hpp"

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

MemOpEvent make_op(std::uint32_t core, mem::VirtAddr vaddr,
                   mem::DataSource src = mem::DataSource::MemTier1) {
  MemOpEvent ev;
  ev.core = core;
  ev.pid = 1;
  ev.vaddr = vaddr;
  ev.paddr = vaddr;  // identity-ish for tests
  ev.source = src;
  return ev;
}

TEST(Ibs, SampleRateApproximatesPeriod) {
  IbsConfig cfg = IbsConfig::with_period(1024);
  cfg.randomize = true;
  IbsMonitor ibs(cfg, 1);
  const std::uint64_t ops = 200000;
  const std::uint64_t uops_per_op = 4;
  for (std::uint64_t i = 0; i < ops; ++i) {
    ibs.on_retire(0, uops_per_op, 0);
    ibs.on_mem_op(make_op(0, i * 64));
  }
  // Expected samples = total_uops / period * P(tag lands on the mem uop)
  //                  = ops*4/1024 * (1/4) = ops/1024.
  const double expected = static_cast<double>(ops) / 1024.0;
  EXPECT_NEAR(static_cast<double>(ibs.samples_taken()), expected,
              expected * 0.25);
  // Lost tags account for tags landing on non-memory uops.
  EXPECT_GT(ibs.tags_lost(), 0U);
}

TEST(Ibs, HigherRateMoreSamples) {
  std::uint64_t counts[2];
  int idx = 0;
  for (std::uint64_t period : {4096ULL, 1024ULL}) {
    IbsMonitor ibs(IbsConfig::with_period(period), 1);
    for (std::uint64_t i = 0; i < 100000; ++i) {
      ibs.on_retire(0, 4, 0);
      ibs.on_mem_op(make_op(0, i * 64));
    }
    counts[idx++] = ibs.samples_taken();
  }
  EXPECT_GT(counts[1], counts[0] * 2);
}

TEST(Ibs, RecordsCarrySampleFields) {
  IbsConfig cfg = IbsConfig::with_period(16);
  cfg.randomize = false;
  IbsMonitor ibs(cfg, 1);
  std::vector<TraceSample> got;
  ibs.set_drain([&](std::span<const TraceSample> s) {
    got.insert(got.end(), s.begin(), s.end());
  });
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ibs.on_retire(0, 1, i);  // 1 uop per op => every tag is a mem op
    MemOpEvent ev = make_op(0, 0xabc000 + i);
    ev.time = i;
    ev.is_store = (i % 2) == 0;
    ev.tlb = mem::TlbHit::Miss;
    ibs.on_mem_op(ev);
  }
  ibs.drain();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.size(), ibs.samples_taken());
  for (const TraceSample& s : got) {
    EXPECT_EQ(s.pid, 1U);
    EXPECT_GE(s.vaddr, 0xabc000U);
    EXPECT_TRUE(s.tlb_miss);
  }
}

TEST(Ibs, BufferFullTriggersInterruptDrain) {
  IbsConfig cfg = IbsConfig::with_period(16);
  cfg.randomize = false;
  cfg.buffer_capacity = 8;
  IbsMonitor ibs(cfg, 1);
  int drains = 0;
  ibs.set_drain([&](std::span<const TraceSample> s) {
    EXPECT_EQ(s.size(), 8U);
    ++drains;
  });
  for (std::uint64_t i = 0; i < 16 * 20; ++i) {
    ibs.on_retire(0, 1, 0);
    ibs.on_mem_op(make_op(0, i));
  }
  EXPECT_GE(drains, 2);
  EXPECT_EQ(ibs.interrupts(), static_cast<std::uint64_t>(drains));
}

TEST(Ibs, PerCoreCountdownsAreIndependent) {
  IbsConfig cfg = IbsConfig::with_period(64);
  cfg.randomize = false;
  IbsMonitor ibs(cfg, 2);
  // Only core 0 retires ops; core 1 must never produce samples.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ibs.on_retire(0, 1, 0);
    ibs.on_mem_op(make_op(0, i));
  }
  const std::uint64_t after_core0 = ibs.samples_taken();
  EXPECT_GT(after_core0, 0U);
  ibs.on_mem_op(make_op(1, 0x1));  // no tag armed on core 1
  EXPECT_EQ(ibs.samples_taken(), after_core0);
}

TEST(Ibs, OverheadGrowsWithSamples) {
  IbsConfig cfg = IbsConfig::with_period(16);
  cfg.randomize = false;
  IbsMonitor ibs(cfg, 1);
  EXPECT_EQ(ibs.overhead_ns(), 0U);
  for (std::uint64_t i = 0; i < 1600; ++i) {
    ibs.on_retire(0, 1, 0);
    ibs.on_mem_op(make_op(0, i));
  }
  EXPECT_GE(ibs.overhead_ns(), ibs.samples_taken() * cfg.cost_per_record_ns);
}

TEST(Ibs, PaperRates) {
  EXPECT_EQ(IbsConfig::paper_default().sample_period, 262144U);
  EXPECT_EQ(IbsConfig::paper_4x().sample_period, 65536U);
  EXPECT_EQ(IbsConfig::paper_8x().sample_period, 32768U);
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

/// What a sharded IBS saw on a 4-core sharded System stepped with `pool`
/// (null = the shards run inline).
struct ShardedRun {
  std::vector<std::uint8_t> drained;  ///< every drained sample, in order
  std::vector<std::uint8_t> state;    ///< the monitor's checkpoint image
  std::uint64_t samples = 0;
  std::uint64_t tags_lost = 0;
  std::uint64_t interrupts = 0;
};

IbsConfig sharded_ibs_config() {
  IbsConfig cfg = IbsConfig::with_period(64);
  cfg.buffer_capacity = 4;
  return cfg;
}

ShardedRun run_sharded(util::ThreadPool* pool) {
  sim::System sys(sharded_config());
  add_uniform_processes(sys);
  IbsMonitor ibs(sharded_ibs_config(), sys.config().cores);
  ibs.enable_sharded();
  util::ckpt::Writer drained;
  drained.begin_section("samples");
  ibs.set_drain([&drained](std::span<const TraceSample> samples) {
    for (const TraceSample& s : samples) save_sample(drained, s);
  });
  sys.add_observer(&ibs);
  // Odd step sizes end epochs mid-schedule and mid-countdown.
  for (int epoch = 0; epoch < 4; ++epoch) sys.step_parallel(3001, pool);
  ShardedRun run;
  run.samples = ibs.samples_taken();
  run.tags_lost = ibs.tags_lost();
  run.interrupts = ibs.interrupts();
  run.state = saved_image(ibs);
  drained.end_section();
  run.drained = drained.finish();
  return run;
}

TEST(Ibs, ShardedStepIsThreadCountInvariant) {
  util::ThreadPool pool(2);
  const ShardedRun inline_run = run_sharded(nullptr);
  const ShardedRun pooled = run_sharded(&pool);
  EXPECT_GT(inline_run.samples, 0U);
  EXPECT_GT(inline_run.interrupts, 0U);
  EXPECT_EQ(pooled.samples, inline_run.samples);
  EXPECT_EQ(pooled.tags_lost, inline_run.tags_lost);
  EXPECT_EQ(pooled.interrupts, inline_run.interrupts);
  EXPECT_EQ(pooled.drained, inline_run.drained);
  EXPECT_EQ(pooled.state, inline_run.state);
}

TEST(Ibs, ShardedCheckpointRestoresIntoUnshardedMonitor) {
  // The load switches the monitor to sharded mode, which re-arms every
  // countdown; the saved countdowns must still win.
  const ShardedRun run = run_sharded(nullptr);
  IbsMonitor restored(sharded_ibs_config(), 4);
  util::ckpt::Reader r(run.state);
  r.enter_section("monitor");
  restored.load_state(r);
  r.end_section();
  EXPECT_TRUE(restored.sharded());
  EXPECT_EQ(saved_image(restored), run.state);
}

}  // namespace
}  // namespace tmprof::monitors
