#include "tiering/epoch.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tmprof::tiering {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 15;
  cfg.tier2_frames = 1 << 16;
  return cfg;
}

CollectOptions fast_options(std::uint32_t epochs = 3) {
  CollectOptions opt;
  opt.n_epochs = epochs;
  opt.ops_per_epoch = 50000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(512);
  return opt;
}

TEST(EpochCollect, ProducesOneRecordPerEpoch) {
  const auto spec = workloads::find_spec("gups", 0.1);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options(4));
  ASSERT_EQ(series.epochs.size(), 4U);
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_EQ(series.epochs[e].epoch, e);
    EXPECT_GT(series.epochs[e].truth_total, 0U);
    EXPECT_FALSE(series.epochs[e].truth.empty());
  }
}

TEST(EpochCollect, TruthTotalsMatchPerPageSums) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options());
  for (const EpochData& data : series.epochs) {
    std::uint64_t sum = 0;
    for (const auto& [key, count] : data.truth) sum += count;
    EXPECT_EQ(sum, data.truth_total);
  }
}

TEST(EpochCollect, NewPagesAppearExactlyOnce) {
  const auto spec = workloads::find_spec("web_serving", 0.2);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options());
  std::unordered_set<PageKey, PageKeyHash> seen;
  for (const EpochData& data : series.epochs) {
    for (const PageKey& key : data.new_pages) {
      EXPECT_TRUE(seen.insert(key).second);
    }
  }
  // Every page with truth counts was announced as new at some point.
  for (const EpochData& data : series.epochs) {
    for (const auto& [key, count] : data.truth) {
      EXPECT_TRUE(seen.count(key));
    }
  }
}

TEST(EpochCollect, PageSizesMatchWorkloadClass) {
  const auto hpc = workloads::find_spec("gups", 0.1);
  const EpochSeries series =
      collect_series(hpc, small_config(), fast_options(2));
  ASSERT_FALSE(series.page_sizes.empty());
  for (const auto& [key, size] : series.page_sizes) {
    EXPECT_EQ(size, mem::PageSize::k2M);
  }
  EXPECT_EQ(series.footprint_frames,
            series.page_sizes.size() * mem::kPagesPerHuge);
}

TEST(EpochCollect, DeterministicUnderSeed) {
  const auto spec = workloads::find_spec("graph500", 0.1);
  const EpochSeries a = collect_series(spec, small_config(), fast_options(2));
  const EpochSeries b = collect_series(spec, small_config(), fast_options(2));
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].truth_total, b.epochs[e].truth_total);
    EXPECT_EQ(a.epochs[e].truth.size(), b.epochs[e].truth.size());
  }
}

TEST(EpochCollect, ObservationsArriveFromBothMethods) {
  const auto spec = workloads::find_spec("gups", 0.1);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options());
  std::uint64_t abit = 0, trace = 0;
  for (const EpochData& data : series.epochs) {
    abit += data.observed.abit.size();
    trace += data.observed.trace.size();
  }
  EXPECT_GT(abit, 0U);
  EXPECT_GT(trace, 0U);
}

/// Plain-container recount of what TruthCollector tracks: beyond-LLC
/// accesses per page and first touches in order. Gives no shard sink, so
/// the sharded engine replays its events at the barrier in core order.
struct ReferenceTruth final : monitors::AccessObserver {
  void on_mem_op(const monitors::MemOpEvent& event) override {
    const PageKey key{event.pid, mem::page_base(event.vaddr, event.page_size)};
    if (seen.insert(key).second) new_pages.push_back(key);
    if (mem::is_memory(event.source)) {
      ++counts[key];
      ++total;
    }
  }
  std::unordered_map<PageKey, std::uint64_t, PageKeyHash> counts;
  std::unordered_set<PageKey, PageKeyHash> seen;
  std::vector<PageKey> new_pages;
  std::uint64_t total = 0;
};

TEST(HotnessStoreCollect, TruthMatchesPlainReferenceOnBothEngines) {
  const auto spec = workloads::find_spec("gups", 0.05);
  for (const bool sharded : {false, true}) {
    sim::SimConfig cfg = small_config();
    cfg.sharded_engine = sharded;
    sim::System system(cfg);
    add_spec_processes(system, spec, 42);
    TruthCollector truth(system);
    ReferenceTruth reference;
    system.add_observer(&truth);
    system.add_observer(&reference);
    core::TruthMap counts;
    std::vector<PageKey> new_pages;
    for (int e = 0; e < 3; ++e) {
      if (sharded) {
        system.step_parallel(30000, nullptr);
      } else {
        system.step(30000);
      }
      EXPECT_EQ(truth.end_epoch(counts, new_pages), reference.total);
      ASSERT_EQ(counts.size(), reference.counts.size());
      for (const auto& [key, count] : reference.counts) {
        const auto it = counts.find(key);
        ASSERT_NE(it, counts.end());
        EXPECT_EQ(it->second, count);
      }
      EXPECT_EQ(new_pages, reference.new_pages);
      reference.counts.clear();
      reference.new_pages.clear();
      reference.total = 0;
    }
    system.remove_observer(&reference);
    system.remove_observer(&truth);
  }
}

}  // namespace
}  // namespace tmprof::tiering
