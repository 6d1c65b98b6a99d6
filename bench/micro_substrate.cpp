/// Micro-benchmarks of the simulator substrate and profiler hot paths
/// (google-benchmark). These bound how much simulated work the paper
/// harnesses can drive per wall-clock second and catch performance
/// regressions in the per-access fast path.

#include <benchmark/benchmark.h>

#include "core/ranking.hpp"
#include "mem/cache.hpp"
#include "mem/page_table.hpp"
#include "mem/ptw.hpp"
#include "mem/tlb.hpp"
#include "monitors/abit.hpp"
#include "monitors/ibs.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace tmprof;

void BM_RngNext(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfDraw(benchmark::State& state) {
  util::ZipfDistribution zipf(static_cast<std::uint64_t>(state.range(0)),
                              0.99);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_ZipfDraw)->Arg(1 << 10)->Arg(1 << 20);

void BM_PageTableResolve(benchmark::State& state) {
  mem::PageTable pt;
  const std::uint64_t pages = 4096;
  for (std::uint64_t i = 0; i < pages; ++i) {
    pt.map(i * mem::kPageSize, i + 1, mem::PageSize::k4K);
  }
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.resolve(rng.below(pages) * mem::kPageSize));
  }
}
BENCHMARK(BM_PageTableResolve);

void BM_PtwWalk(benchmark::State& state) {
  mem::PageTable pt;
  const std::uint64_t pages = 4096;
  for (std::uint64_t i = 0; i < pages; ++i) {
    pt.map(i * mem::kPageSize, i + 1, mem::PageSize::k4K);
  }
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem::PageTableWalker::walk(pt, rng.below(pages) * mem::kPageSize,
                                   false));
  }
}
BENCHMARK(BM_PtwWalk);

void BM_TlbLookup(benchmark::State& state) {
  mem::Tlb tlb = mem::Tlb::make_default();
  mem::PageTable pt;
  const std::uint64_t pages = 64;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const mem::VirtAddr va = i * mem::kPageSize;
    pt.map(va, i + 1, mem::PageSize::k4K);
    tlb.fill(1, va, mem::PageSize::k4K, pt.resolve(va).pte, false);
  }
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(1, rng.below(pages) * mem::kPageSize));
  }
}
BENCHMARK(BM_TlbLookup);

void BM_CacheHierarchyAccess(benchmark::State& state) {
  mem::CacheLevel llc(1ULL << 20, 16);
  mem::CacheHierarchy hier = mem::CacheHierarchy::make_default(&llc, true);
  util::Rng rng(6);
  const std::uint64_t span = 64ULL << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hier.access(rng.below(span) & ~63ULL, false));
  }
}
BENCHMARK(BM_CacheHierarchyAccess);

void BM_AbitScanPer4kPtes(benchmark::State& state) {
  mem::PageTable pt;
  const std::uint64_t pages = 4096;
  for (std::uint64_t i = 0; i < pages; ++i) {
    pt.map(i * mem::kPageSize, i + 1, mem::PageSize::k4K);
    mem::PageTableWalker::walk(pt, i * mem::kPageSize, false);
  }
  monitors::AbitScanner scanner{monitors::AbitConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scanner.scan(1, pt, [](const monitors::AbitSample&) {}));
    // Re-set a fraction of A bits so successive scans do real work.
    state.PauseTiming();
    for (std::uint64_t i = 0; i < pages; i += 4) {
      mem::PageTableWalker::walk(pt, i * mem::kPageSize, false);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages));
}
BENCHMARK(BM_AbitScanPer4kPtes);

void BM_IbsRetirePath(benchmark::State& state) {
  monitors::IbsMonitor ibs(monitors::IbsConfig::with_period(4096), 1);
  monitors::MemOpEvent ev;
  ev.source = mem::DataSource::MemTier1;
  for (auto _ : state) {
    ibs.on_retire(0, 4, 0);
    ibs.on_mem_op(ev);
  }
  ibs.drain();
}
BENCHMARK(BM_IbsRetirePath);

void BM_RankingBuild(benchmark::State& state) {
  core::EpochObservation obs;
  util::Rng rng(7);
  const std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < pages; ++i) {
    const core::PageKey key{1000, i * mem::kPageSize};
    obs.abit[key] = static_cast<std::uint32_t>(rng.below(8));
    if (rng.chance(0.3)) {
      obs.trace[key] = static_cast<std::uint32_t>(rng.below(100));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_ranking(obs, core::FusionMode::Sum));
  }
}
BENCHMARK(BM_RankingBuild)->Arg(1 << 12)->Arg(1 << 16);

void BM_SystemStepUniform(benchmark::State& state) {
  sim::SimConfig cfg;
  cfg.cores = 6;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 1 << 15;
  cfg.tier2_frames = 1 << 15;
  sim::System system(cfg);
  system.add_process(
      std::make_unique<workloads::UniformWorkload>(64 << 20, 0.1, 1));
  for (auto _ : state) {
    system.step(1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SystemStepUniform);

void BM_SystemStepTable3(benchmark::State& state) {
  const auto specs = workloads::table3_specs(0.25);
  const auto& spec = specs[static_cast<std::size_t>(state.range(0))];
  sim::SimConfig cfg;
  cfg.cores = 6;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = (spec.total_bytes >> 12) * 5 / 4 + 2048;
  cfg.tier2_frames = 2048;
  sim::System system(cfg);
  for (std::uint32_t i = 0; i < spec.processes; ++i) {
    system.add_process(workloads::make_workload(spec, i, 42));
  }
  for (auto _ : state) {
    system.step(1000);
  }
  state.SetLabel(spec.name);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SystemStepTable3)->DenseRange(0, 7);

}  // namespace
