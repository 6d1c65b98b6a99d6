#include "tiering/policies.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/hotness.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::tiering {

PlacementSet FirstTouchPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.first_touch_order != nullptr);
  // Admit new pages in arrival order while room remains; never evict.
  for (const PageKey& key : *ctx.first_touch_order) {
    if (placement_.count(key) != 0) continue;
    const std::uint64_t frames = frames_of(ctx, key);
    if (used_frames_ + frames > ctx.capacity_frames) continue;
    placement_.insert(key);
    used_frames_ += frames;
  }
  return placement_;
}

PlacementSet HistoryPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.observed_ranking != nullptr);
  if (ctx.observed_ranking->empty() && ctx.current != nullptr) {
    return *ctx.current;  // no information yet: leave placement alone
  }
  // Among equally-ranked pages, prefer ones already resident in tier 1:
  // sparse profiles produce many rank ties, and migrating between
  // equally-hot pages is pure cost.
  std::vector<const core::PageRank*> order;
  order.reserve(ctx.observed_ranking->size());
  for (const core::PageRank& pr : *ctx.observed_ranking) order.push_back(&pr);
  auto effective_rank = [&](const core::PageRank* pr) {
    if (!density_rank_) return pr->rank;
    return pr->rank / frames_of(ctx, pr->key);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const core::PageRank* a, const core::PageRank* b) {
                     const std::uint64_t ra = effective_rank(a);
                     const std::uint64_t rb = effective_rank(b);
                     if (ra != rb) return ra > rb;
                     if (ctx.current != nullptr) {
                       return ctx.current->count(a->key) >
                              ctx.current->count(b->key);
                     }
                     return false;
                   });
  std::vector<PageKey> ordered;
  ordered.reserve(order.size());
  for (const core::PageRank* pr : order) ordered.push_back(pr->key);
  return take_until_full(ordered, ctx);
}

PlacementSet OraclePolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.next_truth != nullptr);
  std::vector<std::pair<PageKey, std::uint64_t>> pages(
      ctx.next_truth->begin(), ctx.next_truth->end());
  std::sort(pages.begin(), pages.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<PageKey> ordered;
  ordered.reserve(pages.size());
  for (const auto& [key, count] : pages) ordered.push_back(key);
  return take_until_full(ordered, ctx);
}

FrequencyDecayPolicy::FrequencyDecayPolicy(double decay) : decay_(decay) {
  TMPROF_EXPECTS(decay > 0.0 && decay < 1.0);
}

PlacementSet FrequencyDecayPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.observed_ranking != nullptr);
  // Age all scores, then fold in this epoch's observations.
  for (auto& [key, score] : score_) score *= decay_;
  for (const core::PageRank& pr : *ctx.observed_ranking) {
    score_[pr.key] += static_cast<double>(pr.rank);
  }
  std::vector<std::pair<PageKey, double>> pages(score_.begin(), score_.end());
  std::sort(pages.begin(), pages.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<PageKey> ordered;
  ordered.reserve(pages.size());
  for (const auto& [key, score] : pages) ordered.push_back(key);
  return take_until_full(ordered, ctx);
}

WriteHistoryPolicy::WriteHistoryPolicy(double write_weight)
    : write_weight_(write_weight) {
  TMPROF_EXPECTS(write_weight >= 0.0);
}

PlacementSet WriteHistoryPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.observed_ranking != nullptr);
  if (ctx.observed_ranking->empty() && ctx.current != nullptr) {
    return *ctx.current;
  }
  std::vector<core::PageRank> boosted(*ctx.observed_ranking);
  for (core::PageRank& pr : boosted) {
    pr.rank += static_cast<std::uint64_t>(write_weight_ *
                                          static_cast<double>(pr.writes));
  }
  std::sort(boosted.begin(), boosted.end(),
            [&](const core::PageRank& a, const core::PageRank& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              if (ctx.current != nullptr) {
                const bool ra = ctx.current->count(a.key) != 0;
                const bool rb = ctx.current->count(b.key) != 0;
                if (ra != rb) return ra;
              }
              return a.key < b.key;
            });
  std::vector<PageKey> ordered;
  ordered.reserve(boosted.size());
  for (const core::PageRank& pr : boosted) ordered.push_back(pr.key);
  return take_until_full(ordered, ctx);
}

std::unique_ptr<Policy> make_policy(const std::string& name) {
  if (name == "first-touch") return std::make_unique<FirstTouchPolicy>();
  if (name == "history") return std::make_unique<HistoryPolicy>();
  if (name == "history-density") {
    return std::make_unique<HistoryPolicy>(/*density_rank=*/true);
  }
  if (name == "oracle") return std::make_unique<OraclePolicy>();
  if (name == "freq-decay") return std::make_unique<FrequencyDecayPolicy>();
  if (name == "write-history") return std::make_unique<WriteHistoryPolicy>();
  throw std::invalid_argument("unknown policy: " + name);
}

void FirstTouchPolicy::save_state(util::ckpt::Writer& w) const {
  std::vector<PageKey> keys(placement_.begin(), placement_.end());
  std::sort(keys.begin(), keys.end());
  w.put_u64(keys.size());
  for (const PageKey& key : keys) core::PageKeyCodec::save(w, key);
  w.put_u64(used_frames_);
}

void FirstTouchPolicy::load_state(util::ckpt::Reader& r) {
  placement_.clear();
  const std::uint64_t count = r.get_count(core::PageKeyCodec::kBytes);
  placement_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    placement_.insert(core::PageKeyCodec::load(r));
  }
  used_frames_ = r.get_u64();
}

void FrequencyDecayPolicy::save_state(util::ckpt::Writer& w) const {
  w.put_u64(score_.size());
  score_.fold_sorted([&w](const PageKey& key, double score) {
    core::PageKeyCodec::save(w, key);
    w.put_f64(score);
  });
}

void FrequencyDecayPolicy::load_state(util::ckpt::Reader& r) {
  score_.clear();
  const std::uint64_t count = r.get_count(core::PageKeyCodec::kBytes + 8);
  score_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageKey key = core::PageKeyCodec::load(r);
    score_[key] = r.get_f64();
  }
}

}  // namespace tmprof::tiering
