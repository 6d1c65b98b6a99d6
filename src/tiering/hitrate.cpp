#include "tiering/hitrate.hpp"

#include "mem/tiers.hpp"
#include "util/assert.hpp"

namespace tmprof::tiering {

HitrateResult evaluate_policy(Policy& policy, const EpochSeries& series,
                              const HitrateOptions& options) {
  TMPROF_EXPECTS(options.capacity_frames > 0);
  HitrateResult result;
  PlacementSet placement;
  std::vector<PageKey> first_touch_accumulated;
  // The epoch loop reuses these across iterations: each epoch's ranking is
  // fused exactly once (it serves both as the Oracle's observed truth for
  // epoch e and as History's input for epoch e+1), into capacity-retaining
  // buffers. It stays unsorted: every policy imposes its own order.
  const core::FusionParams fusion{options.fusion, options.trace_weight, 1.0};
  std::vector<core::PageRank> prev_ranking;
  std::vector<core::PageRank> epoch_ranking;
  core::RankingScratch scratch;
  core::TruthMap observed_truth;

  for (std::size_t e = 0; e < series.epochs.size(); ++e) {
    const EpochData& data = series.epochs[e];
    for (const PageKey& key : data.new_pages) {
      first_touch_accumulated.push_back(key);
    }

    core::fuse_observation_into(data.observed, fusion, scratch,
                                epoch_ranking);

    PolicyContext ctx;
    ctx.capacity_frames = options.capacity_frames;
    ctx.current = &placement;
    ctx.observed_ranking = &prev_ranking;   // what the profiler saw in e-1
    // What Oracle is allowed to know about epoch e.
    if (options.oracle_from_observed) {
      observed_truth.clear();
      observed_truth.reserve(epoch_ranking.size());
      for (const core::PageRank& pr : epoch_ranking) {
        observed_truth[pr.key] = pr.rank;
      }
      ctx.next_truth = &observed_truth;
    } else {
      ctx.next_truth = &data.truth;
    }
    ctx.first_touch_order = &first_touch_accumulated;
    ctx.page_sizes = &series.page_sizes;

    PlacementSet next = policy.choose(ctx);
    // Walk the placement (at most capacity pages), not the epoch's truth.
    std::uint64_t hits = 0;
    for (const PageKey& key : next) {
      if (placement.count(key) == 0) ++result.promotions;
      const auto it = data.truth.find(key);
      if (it != data.truth.end()) hits += it->second;
    }
    placement = std::move(next);
    result.tier1_accesses += hits;
    result.total_accesses += data.truth_total;
    result.per_epoch.push_back(
        data.truth_total == 0
            ? 1.0
            : static_cast<double>(hits) /
                  static_cast<double>(data.truth_total));

    // Epoch e's ranking becomes next iteration's "previous" without a copy.
    prev_ranking.swap(epoch_ranking);
  }
  result.overall = result.total_accesses == 0
                       ? 1.0
                       : static_cast<double>(result.tier1_accesses) /
                             static_cast<double>(result.total_accesses);
  return result;
}

TierHitrateResult evaluate_waterfall(
    const EpochSeries& series, const std::vector<std::uint64_t>& capacities,
    const core::FusionParams& fusion) {
  TMPROF_EXPECTS(!capacities.empty());
  for (const std::uint64_t frames : capacities) TMPROF_EXPECTS(frames > 0);
  const std::size_t n_tiers = capacities.size() + 1;
  const mem::TierId bottom = static_cast<mem::TierId>(n_tiers - 1);

  TierHitrateResult result;
  result.tier_accesses.assign(n_tiers, 0);

  std::vector<core::PageRank> prev_ranking;
  std::vector<core::PageRank> epoch_ranking;
  core::RankingScratch scratch;
  core::PageMap<mem::TierId> assigned;  // pages above the bottom tier

  const auto frames_of = [&series](const PageKey& key) -> std::uint64_t {
    const auto it = series.page_sizes.find(key);
    if (it != series.page_sizes.end()) return mem::pages_in(it->second);
    return 1;
  };

  for (const EpochData& data : series.epochs) {
    // Waterfall the previous epoch's ranking (hottest first) down the
    // ladder: tier t takes pages until capacities[t] frames are spent,
    // then the next page spills to tier t+1. Anything unranked — or past
    // every bounded tier — belongs to the (unbounded) bottom tier.
    assigned.clear();
    mem::TierId tier = 0;
    std::uint64_t used = 0;
    for (const core::PageRank& pr : prev_ranking) {
      const std::uint64_t frames = frames_of(pr.key);
      while (tier < bottom && used + frames > capacities[tier]) {
        ++tier;
        used = 0;
      }
      if (tier >= bottom) break;
      assigned[pr.key] = tier;
      used += frames;
    }

    core::build_ranking_into(data.observed, fusion, scratch, epoch_ranking);

    for (const auto& [key, count] : data.truth) {
      const auto it = assigned.find(key);
      const mem::TierId where = it == assigned.end() ? bottom : it->second;
      result.tier_accesses[where] += count;
    }
    result.total_accesses += data.truth_total;

    prev_ranking.swap(epoch_ranking);
  }

  result.tier_fraction.assign(n_tiers, 0.0);
  if (result.total_accesses != 0) {
    for (std::size_t t = 0; t < n_tiers; ++t) {
      result.tier_fraction[t] = static_cast<double>(result.tier_accesses[t]) /
                                static_cast<double>(result.total_accesses);
    }
  }
  return result;
}

}  // namespace tmprof::tiering
