/// Robustness-layer tests (docs/ROBUSTNESS.md): the fault injector's
/// decisions must be pure in (seed, site, key) — hence call-order and
/// thread-count invariant — and the layers consuming it (mover, driver,
/// daemon, runner) must degrade gracefully and deterministically.

#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "tiering/mover.hpp"
#include "tiering/runner.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::util {
namespace {

TEST(FaultInjection, DefaultInjectorNeverFires) {
  FaultInjector inj;
  EXPECT_FALSE(inj.enabled());
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_FALSE(inj.fire(FaultSite::MigrationBusy, k));
  }
  EXPECT_EQ(inj.stats().total_injected(), 0U);
}

TEST(FaultInjection, RateZeroNeverRateOneAlways) {
  FaultConfig zero;
  zero.rate = 0.0;
  FaultInjector never(zero);
  FaultConfig one;
  one.rate = 1.0;
  FaultInjector always(one);
  for (std::uint64_t k = 0; k < 512; ++k) {
    EXPECT_FALSE(never.fire(FaultSite::TraceOverflow, fault_key(k)));
    EXPECT_TRUE(always.fire(FaultSite::TraceOverflow, fault_key(k)));
  }
  EXPECT_EQ(always.stats().injected_at(FaultSite::TraceOverflow), 512U);
}

TEST(FaultInjection, DecisionsAreCallOrderAndThreadInvariant) {
  FaultConfig cfg;
  cfg.rate = 0.3;
  cfg.seed = 99;
  constexpr std::size_t kKeys = 4096;

  std::vector<char> forward(kKeys);
  std::uint64_t fired = 0;
  {
    FaultInjector inj(cfg);
    for (std::size_t i = 0; i < kKeys; ++i) {
      forward[i] =
          inj.fire(FaultSite::MigrationBusy, fault_key(i)) ? 1 : 0;
      fired += static_cast<std::uint64_t>(forward[i]);
    }
  }
  // The empirical rate tracks the configured one (seeded, so exact).
  EXPECT_GT(fired, kKeys / 5);
  EXPECT_LT(fired, (kKeys * 2) / 5);

  // Reverse call order: identical decisions (no shared stream advanced).
  {
    FaultInjector inj(cfg);
    for (std::size_t i = kKeys; i-- > 0;) {
      EXPECT_EQ(inj.fire(FaultSite::MigrationBusy, fault_key(i)) ? 1 : 0,
                forward[i])
          << "key " << i;
    }
  }

  // Concurrent consultation: still identical.
  std::vector<char> parallel(kKeys);
  ThreadPool pool(8);
  pool.parallel_for(kKeys, [&](std::size_t i) {
    FaultInjector inj(cfg);
    parallel[i] = inj.fire(FaultSite::MigrationBusy, fault_key(i)) ? 1 : 0;
  });
  EXPECT_EQ(parallel, forward);
}

TEST(FaultInjection, DifferentSeedsDifferentSchedules) {
  FaultConfig a;
  a.rate = 0.3;
  a.seed = 1;
  FaultConfig b = a;
  b.seed = 2;
  FaultInjector inj_a(a);
  FaultInjector inj_b(b);
  bool any_differ = false;
  for (std::uint64_t k = 0; k < 1024 && !any_differ; ++k) {
    any_differ = inj_a.fire(FaultSite::AbitAbort, fault_key(k)) !=
                 inj_b.fire(FaultSite::AbitAbort, fault_key(k));
  }
  EXPECT_TRUE(any_differ);
}

TEST(FaultInjection, SiteParsing) {
  EXPECT_EQ(fault_site_from("migration-busy"), FaultSite::MigrationBusy);
  EXPECT_EQ(fault_site_from("hwpc-wrap"), FaultSite::HwpcWrap);
  EXPECT_THROW((void)fault_site_from("bogus"), std::invalid_argument);

  EXPECT_EQ(parse_fault_sites("all").size(), kFaultSiteCount);
  EXPECT_EQ(parse_fault_sites("migration").size(), 2U);
  const auto two = parse_fault_sites("trace-overflow,hwpc-wrap");
  ASSERT_EQ(two.size(), 2U);
  EXPECT_EQ(two[0], FaultSite::TraceOverflow);
  EXPECT_EQ(two[1], FaultSite::HwpcWrap);
  EXPECT_THROW((void)parse_fault_sites(""), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_sites("migration,bogus"),
               std::invalid_argument);
}

TEST(FaultInjection, RestrictToLimitsActiveSites) {
  FaultConfig cfg;
  cfg.rate = 0.5;
  cfg.restrict_to({FaultSite::TraceOverflow});
  EXPECT_DOUBLE_EQ(cfg.rate_of(FaultSite::TraceOverflow), 0.5);
  EXPECT_DOUBLE_EQ(cfg.rate_of(FaultSite::MigrationBusy), 0.0);
  EXPECT_TRUE(cfg.enabled());
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.enabled(FaultSite::TraceOverflow));
  EXPECT_FALSE(inj.enabled(FaultSite::MigrationBusy));
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_FALSE(inj.fire(FaultSite::MigrationBusy, fault_key(k)));
  }
}

}  // namespace
}  // namespace tmprof::util

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

TEST(FaultInjectionMover, BusyFaultsRetryWithBackoffThenAbort) {
  sim::System sys(small_config(4));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 4 in t1, 6 in t2
  MoverConfig mcfg;
  mcfg.fault.rate = 1.0;  // every consultation fails
  mcfg.fault.restrict_to({util::FaultSite::MigrationBusy});
  PageMover mover(sys, mcfg);
  const util::SimNs before = sys.now();
  const auto ranking = rank_pages(sys, pid, {6, 7, 8, 9});
  const MoveStats stats = mover.apply(ranking, {4});
  // Every demotion retried max_retries times then aborted; with no room
  // freed, every promotion parked on the deferred queue.
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
  EXPECT_EQ(stats.retried, 4U * mcfg.max_retries);
  EXPECT_EQ(stats.aborted, 4U);
  EXPECT_EQ(stats.deferred, 4U);
  EXPECT_GT(stats.backoff_ns, 0U);
  EXPECT_EQ(sys.now() - before, stats.cost_ns + stats.backoff_ns);
  EXPECT_GT(mover.fault_stats().injected_at(util::FaultSite::MigrationBusy),
            0U);
}

TEST(FaultInjectionMover, RetryBudgetBoundsRetriesPerApply) {
  sim::System sys(small_config(4));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);
  MoverConfig mcfg;
  mcfg.fault.rate = 1.0;
  mcfg.fault.restrict_to({util::FaultSite::MigrationBusy});
  mcfg.retry_budget = 5;
  PageMover mover(sys, mcfg);
  const auto ranking = rank_pages(sys, pid, {6, 7, 8, 9});
  const MoveStats stats = mover.apply(ranking, {4});
  EXPECT_EQ(stats.retried, 5U);  // budget exhausted mid-epoch
  EXPECT_GT(stats.aborted, 0U);
}

TEST(FaultInjectionMover, NoMemFaultDefersPromotion) {
  sim::System sys(small_config(8));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 8 in t1, pages 8-9 in t2
  // Open one tier-1 frame so the promotion has genuine room — only the
  // injected -ENOMEM stops it.
  sim::Process& proc = sys.process(pid);
  const mem::Pte freed = proc.page_table().unmap(proc.vaddr_of(0));
  sys.phys().free(freed.pfn());
  MoverConfig mcfg;
  mcfg.fault.rate = 1.0;
  mcfg.fault.restrict_to({util::FaultSite::MigrationNoMem});
  PageMover mover(sys, mcfg);
  const auto ranking = rank_pages(sys, pid, {8});
  const MoveStats stats = mover.apply(ranking, {8});
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_GE(stats.no_room, 1U);
  EXPECT_EQ(stats.deferred, 1U);
  EXPECT_EQ(mover.deferred_pending(), 1U);  // carried for the next epoch
  EXPECT_EQ(stats.retried, 0U);  // -ENOMEM is not worth retrying
}

RunnerOptions fault_options(const std::string& policy, std::uint32_t n_threads,
                            double rate) {
  RunnerOptions opt;
  opt.policy = policy;
  opt.n_epochs = 3;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  opt.n_threads = n_threads;
  opt.fault.rate = rate;
  opt.fault.seed = 0xf00d;
  return opt;
}

void expect_identical_full(const RunnerResult& a, const RunnerResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tier1_hitrate),
            std::bit_cast<std::uint64_t>(b.tier1_hitrate))
      << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.protection_faults, b.protection_faults) << label;
  EXPECT_EQ(a.moves.promoted, b.moves.promoted) << label;
  EXPECT_EQ(a.moves.demoted, b.moves.demoted) << label;
  EXPECT_EQ(a.moves.retried, b.moves.retried) << label;
  EXPECT_EQ(a.moves.deferred, b.moves.deferred) << label;
  EXPECT_EQ(a.moves.aborted, b.moves.aborted) << label;
  EXPECT_EQ(a.moves.no_room, b.moves.no_room) << label;
  EXPECT_EQ(a.moves.backoff_ns, b.moves.backoff_ns) << label;
  EXPECT_EQ(a.degrade.hwpc_wraps, b.degrade.hwpc_wraps) << label;
  EXPECT_EQ(a.degrade.scans_aborted, b.degrade.scans_aborted) << label;
  EXPECT_EQ(a.degrade.trace_dropped, b.degrade.trace_dropped) << label;
  EXPECT_EQ(a.degrade.rescaled_epochs, b.degrade.rescaled_epochs) << label;
  EXPECT_EQ(a.degrade.fallback_epochs, b.degrade.fallback_epochs) << label;
  EXPECT_EQ(a.degrade.pinned_epochs, b.degrade.pinned_epochs) << label;
}

TEST(FaultInjectionRunner, FaultScheduleIsThreadCountInvariant) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 16;
  const RunnerResult t1 =
      EndToEndRunner::run(spec, cfg, fault_options("history", 1, 0.2));
  const RunnerResult t2 =
      EndToEndRunner::run(spec, cfg, fault_options("history", 2, 0.2));
  const RunnerResult t8 =
      EndToEndRunner::run(spec, cfg, fault_options("history", 8, 0.2));
  expect_identical_full(t1, t2, "faults [1 vs 2 threads]");
  expect_identical_full(t1, t8, "faults [1 vs 8 threads]");
  // The schedule actually perturbed the run.
  EXPECT_GT(t1.moves.retried, 0U);
  EXPECT_GT(t1.moves.retried + t1.moves.deferred + t1.moves.no_room, 0U);
  EXPECT_GT(t1.degrade.trace_dropped, 0U);
}

TEST(FaultInjectionRunner, RepeatedSameSeedRunsAreIdentical) {
  const auto spec = workloads::find_spec("web_serving", 0.1);
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 16;
  for (const std::uint32_t threads : {0U, 8U}) {
    const RunnerOptions opt = fault_options("history", threads, 0.2);
    const RunnerResult first = EndToEndRunner::run(spec, cfg, opt);
    const RunnerResult repeat = EndToEndRunner::run(spec, cfg, opt);
    expect_identical_full(first, repeat,
                          "repeat @" + std::to_string(threads) + " threads");
  }
}

TEST(FaultInjectionRunner, ScanAbortScheduleIsEngineInvariant) {
  // The scan-abort site is keyed on (epoch, pid-index) only, so even the
  // legacy serial engine (different sample streams!) must see the *same*
  // abort schedule as every sharded thread count.
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 16;
  std::vector<std::uint64_t> aborts;
  for (const std::uint32_t threads : {0U, 1U, 2U, 8U}) {
    RunnerOptions opt = fault_options("history", threads, 0.5);
    opt.n_epochs = 4;
    opt.fault.restrict_to({util::FaultSite::AbitAbort});
    opt.daemon.gating_enabled = false;       // scan runs every epoch
    opt.daemon.pid_filter_enabled = false;   // fixed pid set
    const RunnerResult r = EndToEndRunner::run(spec, cfg, opt);
    aborts.push_back(r.degrade.scans_aborted);
  }
  EXPECT_GT(aborts[0], 0U);
  for (std::size_t i = 1; i < aborts.size(); ++i) {
    EXPECT_EQ(aborts[i], aborts[0]) << "engine variant " << i;
  }
}

TEST(FaultInjectionRunner, HwpcWrapsAreDetected) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 16;
  RunnerOptions opt = fault_options("history", 1, 0.8);
  opt.n_epochs = 4;
  opt.fault.restrict_to({util::FaultSite::HwpcWrap});
  opt.daemon.gating_enabled = false;
  const RunnerResult r = EndToEndRunner::run(spec, cfg, opt);
  EXPECT_GT(r.degrade.hwpc_wraps, 0U);
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::core {
namespace {

sim::SimConfig daemon_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 8192;
  cfg.tier2_frames = 8192;
  return cfg;
}

DaemonConfig fast_daemon() {
  DaemonConfig cfg;
  cfg.driver.ibs = monitors::IbsConfig::with_period(256);
  return cfg;
}

void expect_same_ranking(const std::vector<PageRank>& a,
                         const std::vector<PageRank>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << i;
  }
}

TEST(FaultInjectionDaemon, HeavyTraceLossFallsBackToAbitOnly) {
  sim::System sys(daemon_config());
  sys.add_process(
      std::make_unique<workloads::ZipfWorkload>(8 << 20, 4096, 0.99, 0.1, 1));
  DaemonConfig cfg = fast_daemon();
  cfg.fault.rate = 0.9;
  cfg.fault.restrict_to({util::FaultSite::TraceOverflow});
  TmpDaemon daemon(sys, cfg);
  sys.step(100000);
  const ProfileSnapshot snap = daemon.tick();
  EXPECT_GT(snap.trace_dropped, 0U);
  EXPECT_GE(snap.trace_loss, cfg.trace_fallback_threshold);
  EXPECT_TRUE(snap.trace_fallback);
  EXPECT_GE(daemon.degrade_stats().fallback_epochs, 1U);
  // The published ranking is exactly what A-bit-only fusion would give.
  expect_same_ranking(
      snap.ranking, build_ranking(snap.observation, FusionMode::AbitOnly));
}

TEST(FaultInjectionDaemon, ModerateTraceLossRescalesWeight) {
  sim::System sys(daemon_config());
  sys.add_process(
      std::make_unique<workloads::ZipfWorkload>(8 << 20, 4096, 0.99, 0.1, 1));
  DaemonConfig cfg = fast_daemon();
  cfg.fault.rate = 0.2;
  cfg.fault.restrict_to({util::FaultSite::TraceOverflow});
  TmpDaemon daemon(sys, cfg);
  sys.step(100000);
  const ProfileSnapshot snap = daemon.tick();
  EXPECT_GT(snap.trace_loss, cfg.trace_rescale_threshold);
  EXPECT_LT(snap.trace_loss, cfg.trace_fallback_threshold);
  EXPECT_FALSE(snap.trace_fallback);
  EXPECT_GE(daemon.degrade_stats().rescaled_epochs, 1U);
  // Rescaled = Weighted fusion at weight 1/(1-loss).
  expect_same_ranking(
      snap.ranking,
      build_ranking(snap.observation, FusionMode::Weighted,
                    1.0 / (1.0 - snap.trace_loss)));
}

TEST(FaultInjectionDaemon, WatchdogPinsLastGoodRankingOnEmptyScans) {
  // No injected faults at all: three consecutive *empty* scans (nothing ran
  // between ticks) must also trip the watchdog.
  sim::System sys(daemon_config());
  sys.add_process(
      std::make_unique<workloads::ZipfWorkload>(8 << 20, 4096, 0.99, 0.1, 1));
  DaemonConfig cfg = fast_daemon();
  cfg.gating_enabled = false;  // keep the scan running while idle
  ASSERT_EQ(cfg.watchdog_threshold, 3U);
  TmpDaemon daemon(sys, cfg);
  sys.step(100000);
  const ProfileSnapshot good = daemon.tick();
  ASSERT_FALSE(good.ranking.empty());
  EXPECT_FALSE(good.pinned);
  const ProfileSnapshot bad1 = daemon.tick();  // nothing ran: empty scan
  EXPECT_FALSE(bad1.pinned);
  const ProfileSnapshot bad2 = daemon.tick();
  EXPECT_FALSE(bad2.pinned);
  const ProfileSnapshot bad3 = daemon.tick();  // third strike
  EXPECT_TRUE(bad3.pinned);
  expect_same_ranking(bad3.ranking, good.ranking);
  EXPECT_EQ(daemon.degrade_stats().pinned_epochs, 1U);
  // Recovery: real activity produces a fresh (unpinned) ranking again.
  sys.step(100000);
  const ProfileSnapshot recovered = daemon.tick();
  EXPECT_FALSE(recovered.pinned);
  ASSERT_FALSE(recovered.ranking.empty());
}

}  // namespace
}  // namespace tmprof::core
