#include "tiering/policies.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/hotness.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::tiering {

PlacementSet FirstTouchPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.first_touch_order != nullptr);
  // Admit new pages in arrival order while room remains; never evict.
  for (const PageKey& key : *ctx.first_touch_order) {
    if (used_frames_ >= ctx.capacity_frames) break;  // full: nothing fits
    if (placement_.count(key) != 0) continue;
    const std::uint64_t frames = frames_of(ctx, key);
    if (used_frames_ + frames > ctx.capacity_frames) continue;
    placement_.insert(key);
    used_frames_ += frames;
  }
  return placement_;
}

namespace {

/// A ranked page with everything its order compares looked up once, so no
/// hash lookup runs inside the sort.
struct Candidate {
  std::uint64_t effective_rank = 0;
  std::uint64_t rank = 0;
  PageKey key;
  bool resident = false;
};

/// Effective rank descending; among equally-ranked pages, ones already
/// resident in tier 1 first (sparse profiles produce many rank ties, and
/// migrating between equally-hot pages is pure cost); then raw rank
/// descending and key ascending, which makes the order total.
struct CandidateOrder {
  bool operator()(const Candidate& a, const Candidate& b) const noexcept {
    if (a.effective_rank != b.effective_rank) {
      return a.effective_rank > b.effective_rank;
    }
    if (a.resident != b.resident) return a.resident;
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.key < b.key;
  }
};

/// Hottest first, ties broken by ascending key.
struct HottestFirst {
  template <typename Pair>
  bool operator()(const Pair& a, const Pair& b) const noexcept {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  }
};

/// The page an entry of a policy's candidate list stands for.
struct EntryKey {
  const PageKey& operator()(const Candidate& c) const noexcept {
    return c.key;
  }
  template <typename V>
  const PageKey& operator()(const std::pair<PageKey, V>& p) const noexcept {
    return p.first;
  }
};

bool is_resident(const PolicyContext& ctx, const PageKey& key) {
  return ctx.current != nullptr && ctx.current->count(key) != 0;
}

}  // namespace

PlacementSet HistoryPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.observed_ranking != nullptr);
  if (ctx.observed_ranking->empty() && ctx.current != nullptr) {
    return *ctx.current;  // no information yet: leave placement alone
  }
  std::vector<Candidate> candidates;
  candidates.reserve(ctx.observed_ranking->size());
  for (const core::PageRank& pr : *ctx.observed_ranking) {
    const std::uint64_t effective =
        density_rank_ ? pr.rank / frames_of(ctx, pr.key) : pr.rank;
    candidates.push_back(
        {effective, pr.rank, pr.key, is_resident(ctx, pr.key)});
  }
  return take_hottest(candidates, CandidateOrder{}, EntryKey{}, ctx);
}

PlacementSet OraclePolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.next_truth != nullptr);
  // Sized up front, so the copy is one pass over the table.
  std::vector<std::pair<PageKey, std::uint64_t>> pages;
  pages.reserve(ctx.next_truth->size());
  for (const auto& entry : *ctx.next_truth) pages.push_back(entry);
  return take_hottest(pages, HottestFirst{}, EntryKey{}, ctx);
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
  return take_hottest(pages, HottestFirst{}, EntryKey{}, ctx);
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
  // The boosted rank is both the effective and the raw rank, so the order
  // is (boosted rank, resident first, key).
  std::vector<Candidate> candidates;
  candidates.reserve(ctx.observed_ranking->size());
  for (const core::PageRank& pr : *ctx.observed_ranking) {
    const std::uint64_t boosted =
        pr.rank + static_cast<std::uint64_t>(write_weight_ *
                                             static_cast<double>(pr.writes));
    candidates.push_back(
        {boosted, boosted, pr.key, is_resident(ctx, pr.key)});
  }
  return take_hottest(candidates, CandidateOrder{}, EntryKey{}, ctx);
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
