#pragma once
/// \file policy.hpp
/// Tiered-memory placement policies (Table II). A policy decides, at each
/// epoch horizon, which pages should occupy tier 1. Policies are epoch-
/// based for the two reasons the paper gives: batching amortizes TLB
/// shootdowns, and hotness must be accumulated over time to justify the
/// migration cost.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/page_key.hpp"
#include "core/ranking.hpp"
#include "mem/addr.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::tiering {

using core::PageKey;
using core::PageKeyHash;

/// Set of pages resident in tier 1.
using PlacementSet = std::unordered_set<PageKey, PageKeyHash>;

/// Page-size lookup (frames each page occupies) for capacity accounting.
using PageSizeMap = std::unordered_map<PageKey, mem::PageSize, PageKeyHash>;

/// Everything a policy may consult when choosing the next placement.
struct PolicyContext {
  /// Tier-1 capacity in 4 KiB frames.
  std::uint64_t capacity_frames = 0;
  /// Pages currently resident in tier 1.
  const PlacementSet* current = nullptr;
  /// Profiler ranking of the epoch that just ended (History's input).
  /// Entries come in unspecified order: each policy imposes its own strict
  /// total order. (The runner passes core::RankOrder, which its min_rank
  /// cut-off needs; the offline replay passes the unsorted fusion.) May be
  /// empty at epoch 0.
  const std::vector<core::PageRank>* observed_ranking = nullptr;
  /// Ground-truth access counts of the *coming* epoch (Oracle only).
  const core::TruthMap* next_truth = nullptr;
  /// Pages seen so far in first-touch order (FirstTouch's input).
  const std::vector<PageKey>* first_touch_order = nullptr;
  /// Frames each known page occupies.
  const PageSizeMap* page_sizes = nullptr;
};

class Policy {
 public:
  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;
  virtual ~Policy() = default;

  /// Choose the tier-1 resident set for the next epoch.
  [[nodiscard]] virtual PlacementSet choose(const PolicyContext& ctx) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Checkpoint hooks. Stateless policies (History, Oracle, WriteHistory)
  /// keep the no-op defaults; stateful ones override both.
  virtual void save_state(util::ckpt::Writer& w) const { (void)w; }
  virtual void load_state(util::ckpt::Reader& r) { (void)r; }

 protected:
  Policy() = default;

  /// Greedily fill tier 1 from `items`, best first under the strict total
  /// order `before`: a page that does not fit the remaining room is
  /// skipped in favour of smaller ones, and the walk stops once tier 1 is
  /// full. Every page takes at least one frame, so no more than
  /// `capacity - used` further pages can be placed: only that prefix is
  /// selected (nth_element) and sorted. If skipped pages leave room after
  /// a prefix, the walk continues into a next prefix at least as long as
  /// everything sorted so far. The placement, and its insertion sequence,
  /// are those of a walk over the fully sorted range. Permutes `items`.
  template <typename T, typename Before, typename KeyOf>
  static PlacementSet take_hottest(std::vector<T>& items, Before before,
                                   KeyOf key_of, const PolicyContext& ctx) {
    PlacementSet chosen;
    std::uint64_t used = 0;
    auto first = items.begin();
    while (first != items.end() && used < ctx.capacity_frames) {
      const auto sorted = static_cast<std::uint64_t>(first - items.begin());
      const auto left = static_cast<std::uint64_t>(items.end() - first);
      const std::uint64_t chunk =
          std::min(left, std::max(ctx.capacity_frames - used, sorted));
      const auto last = first + static_cast<std::ptrdiff_t>(chunk);
      if (last != items.end()) {
        std::nth_element(first, last, items.end(), before);
      }
      std::sort(first, last, before);
      for (; first != last; ++first) {
        const PageKey& key = key_of(*first);
        const std::uint64_t frames = frames_of(ctx, key);
        if (used + frames > ctx.capacity_frames) continue;  // try smaller
        if (!chosen.insert(key).second) continue;
        used += frames;
        if (used >= ctx.capacity_frames) break;
      }
    }
    return chosen;
  }

  static std::uint64_t frames_of(const PolicyContext& ctx, const PageKey& key) {
    if (ctx.page_sizes != nullptr) {
      const auto it = ctx.page_sizes->find(key);
      if (it != ctx.page_sizes->end()) return mem::pages_in(it->second);
    }
    return 1;
  }
};

}  // namespace tmprof::tiering
