/// N-tier topology tests (docs/TOPOLOGY.md): the SimConfig tier-chain
/// model (default two-tier chain vs explicit chains), the waterfall hitrate
/// evaluator, and per-hop migration-cost scaling over a three-tier chain.

#include "tiering/hitrate.hpp"

#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "tiering/mover.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

TEST(Topology, DefaultChainIsDramOverNvm) {
  sim::SimConfig cfg;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 12;
  const std::vector<mem::TierSpec> specs = sim::tier_specs(cfg);
  ASSERT_EQ(specs.size(), 2U);
  // Telemetry metric names and the goldens depend on these names.
  EXPECT_EQ(specs[0].name, "tier1-dram");
  EXPECT_EQ(specs[0].frames, 1U << 10);
  EXPECT_EQ(specs[0].read_latency_ns, 80U);
  EXPECT_EQ(specs[0].write_latency_ns, 80U);
  EXPECT_EQ(specs[0].line_transfer_ns, 0U);
  EXPECT_EQ(specs[1].name, "tier2-nvm");
  EXPECT_EQ(specs[1].frames, 1U << 12);
  EXPECT_EQ(specs[1].read_latency_ns, 300U);
  EXPECT_EQ(specs[1].write_latency_ns, 600U);
  EXPECT_EQ(specs[1].line_transfer_ns, 0U);
}

TEST(Topology, ExplicitChainOverridesShim) {
  sim::SimConfig cfg;
  cfg.tiers = {mem::TierSpec{"hbm", 64, 40, 40, 2},
               mem::TierSpec{"dram", 256, 80, 80, 4},
               mem::TierSpec{"cxl", 1024, 150, 200, 8},
               mem::TierSpec{"nvm", 4096, 300, 600, 16}};
  const std::vector<mem::TierSpec> specs = sim::tier_specs(cfg);
  ASSERT_EQ(specs.size(), 4U);
  for (std::size_t t = 0; t < specs.size(); ++t) {
    EXPECT_EQ(specs[t].name, cfg.tiers[t].name) << t;
    EXPECT_EQ(specs[t].frames, cfg.tiers[t].frames) << t;
    EXPECT_EQ(specs[t].read_latency_ns, cfg.tiers[t].read_latency_ns) << t;
    EXPECT_EQ(specs[t].line_transfer_ns, cfg.tiers[t].line_transfer_ns) << t;
  }
}

TEST(Topology, ExplicitChainDrivesSystemGeometry) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"a", 2, 80, 80, 0},
               mem::TierSpec{"b", 2, 150, 200, 0},
               mem::TierSpec{"c", 64, 300, 600, 0}};
  sim::System sys(cfg);
  EXPECT_EQ(sys.phys().tier_count(), 3U);
  EXPECT_EQ(sys.phys().total_frames(), 68U);
  EXPECT_EQ(sys.phys().tier_of(0), 0);
  EXPECT_EQ(sys.phys().tier_of(2), 1);
  EXPECT_EQ(sys.phys().tier_of(4), 2);
}

// ---------------------------------------------------------------------------
// Waterfall hitrate evaluation

PageKey key(std::uint64_t n) { return PageKey{1, n * mem::kPageSize}; }

/// Two identical epochs: page 0 hot (5 accesses), page 1 warm (3),
/// page 2 cold (1); the profiler observes the truth exactly.
EpochSeries waterfall_series() {
  EpochSeries series;
  for (std::uint32_t e = 0; e < 2; ++e) {
    EpochData data;
    data.epoch = e;
    const std::uint64_t counts[] = {5, 3, 1};
    for (std::uint64_t p = 0; p < 3; ++p) {
      data.truth[key(p)] = counts[p];
      data.truth_total += counts[p];
      data.observed.trace[key(p)] = static_cast<std::uint32_t>(counts[p]);
    }
    series.epochs.push_back(std::move(data));
  }
  for (std::uint64_t p = 0; p < 3; ++p) {
    series.page_sizes[key(p)] = mem::PageSize::k4K;
  }
  series.footprint_frames = 3;
  return series;
}

TEST(Topology, WaterfallSpillsRankingDownTheLadder) {
  const EpochSeries series = waterfall_series();
  core::FusionParams fusion;  // Sum: ranks 5/3/1
  const TierHitrateResult r =
      evaluate_waterfall(series, {1, 1}, fusion);
  ASSERT_EQ(r.tier_accesses.size(), 3U);
  // Epoch 0 has no prior ranking: all 9 accesses hit the bottom tier.
  // Epoch 1 waterfalls epoch 0's ranking: page 0 -> tier 0 (5 accesses),
  // page 1 -> tier 1 (3), page 2 spills to the bottom (1).
  EXPECT_EQ(r.tier_accesses[0], 5U);
  EXPECT_EQ(r.tier_accesses[1], 3U);
  EXPECT_EQ(r.tier_accesses[2], 9U + 1U);
  EXPECT_EQ(r.total_accesses, 18U);
  double sum = 0.0;
  for (const double f : r.tier_fraction) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Topology, WaterfallChargesFrameCountsOfLargePages) {
  EpochSeries series = waterfall_series();
  series.page_sizes[key(0)] = mem::PageSize::k2M;  // hot page is now huge
  core::FusionParams fusion;
  // Tier 0 holds exactly the 512 frames of the huge page; page 1 no longer
  // fits beside it and spills to tier 1, page 2 to the bottom.
  const TierHitrateResult r =
      evaluate_waterfall(series, {512, 1}, fusion);
  EXPECT_EQ(r.tier_accesses[0], 5U);
  EXPECT_EQ(r.tier_accesses[1], 3U);
  EXPECT_EQ(r.tier_accesses[2], 9U + 1U);
  // Squeeze the fast tier below the huge page: it can never be placed, so
  // the waterfall stops at it and everything lands on the bottom tier.
  const TierHitrateResult tight =
      evaluate_waterfall(series, {1, 1}, fusion);
  EXPECT_EQ(tight.tier_accesses[0], 0U);
  EXPECT_EQ(tight.tier_accesses[1], 0U);
  EXPECT_EQ(tight.tier_accesses[2], 18U);
}

TEST(Topology, WaterfallEmptySeriesYieldsZeroTotals) {
  const EpochSeries series;
  core::FusionParams fusion;
  const TierHitrateResult r = evaluate_waterfall(series, {4}, fusion);
  EXPECT_EQ(r.total_accesses, 0U);
  ASSERT_EQ(r.tier_fraction.size(), 2U);
  EXPECT_EQ(r.tier_fraction[0], 0.0);
}

// ---------------------------------------------------------------------------
// Per-hop migration cost over a chain

/// Touch `pages` distinct 4 KiB pages so first-touch fills the ladder
/// fastest tier first.
void touch_pages(sim::System& sys, mem::Pid pid, std::uint64_t pages) {
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t i = 0; i < pages; ++i) {
    sys.access(proc, proc.vaddr_of(i * mem::kPageSize), false, 1);
  }
}

TEST(Topology, ApplyTiersChargesPerHopMigrationCost) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"a", 8, 80, 80, 0},
               mem::TierSpec{"b", 2, 150, 200, 0},
               mem::TierSpec{"c", 64, 300, 600, 0}};
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 12);  // pages 0..7 -> a, 8..9 -> b, 10..11 -> c
  sim::Process& proc = sys.process(pid);
  const auto tier_of_page = [&](std::uint64_t idx) {
    const auto ref = proc.page_table().resolve(
        proc.vaddr_of(idx * mem::kPageSize));
    return sys.phys().tier_of(ref.pte->pfn());
  };
  ASSERT_EQ(tier_of_page(7), 0);
  ASSERT_EQ(tier_of_page(8), 1);
  ASSERT_EQ(tier_of_page(10), 2);

  const util::SimNs cost = 1000;
  MoverConfig mcfg;
  mcfg.per_page_cost_ns = cost;
  PageMover mover(sys, mcfg);

  // Rank page 10 (bottom tier) hottest, then the eight tier-a residents,
  // then page 8. Targets with capacities {8, 2}: tier a = {10, 0..6},
  // tier b = {7, 8}. Expected moves: demote 9 b->c (1 hop, makes room for
  // 7), demote 7 a->b (1 hop), promote 10 c->a (2 hops).
  std::vector<core::PageRank> ranking;
  std::uint64_t rank = 1000;
  for (const std::uint64_t idx : {10U, 0U, 1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U}) {
    core::PageRank pr;
    pr.key = PageKey{pid, proc.vaddr_of(idx * mem::kPageSize)};
    pr.rank = rank--;
    ranking.push_back(pr);
  }
  const util::SimNs before = sys.now();
  const MoveStats stats = mover.apply(ranking, {8, 2});
  EXPECT_EQ(stats.promoted, 1U);
  EXPECT_EQ(stats.demoted, 2U);
  // 1 + 1 + 2 hops: a flat per-move charge would only account 3 moves.
  EXPECT_EQ(stats.cost_ns, 4 * cost);
  EXPECT_EQ(sys.now() - before, stats.cost_ns);
  EXPECT_EQ(tier_of_page(10), 0);
  EXPECT_EQ(tier_of_page(7), 1);
  EXPECT_EQ(tier_of_page(9), 2);
}

}  // namespace
}  // namespace tmprof::tiering
