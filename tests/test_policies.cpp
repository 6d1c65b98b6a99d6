#include "tiering/policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

namespace tmprof::tiering {
namespace {

PageKey key(std::uint64_t n) { return PageKey{1, n * mem::kPageSize}; }

struct Fixture {
  PlacementSet current;
  std::vector<core::PageRank> ranking;
  core::TruthMap truth;
  std::vector<PageKey> first_touch;
  PageSizeMap sizes;

  PolicyContext ctx(std::uint64_t capacity) {
    PolicyContext c;
    c.capacity_frames = capacity;
    c.current = &current;
    c.observed_ranking = &ranking;
    c.next_truth = &truth;
    c.first_touch_order = &first_touch;
    c.page_sizes = &sizes;
    return c;
  }

  void add_rank(std::uint64_t n, std::uint64_t rank) {
    core::PageRank pr;
    pr.key = key(n);
    pr.rank = rank;
    ranking.push_back(pr);
    sizes[key(n)] = mem::PageSize::k4K;
  }
};

TEST(FirstTouch, AdmitsInOrderUntilFull) {
  Fixture f;
  for (std::uint64_t i = 0; i < 5; ++i) {
    f.first_touch.push_back(key(i));
    f.sizes[key(i)] = mem::PageSize::k4K;
  }
  FirstTouchPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(3));
  EXPECT_EQ(p.size(), 3U);
  EXPECT_TRUE(p.count(key(0)));
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_TRUE(p.count(key(2)));
}

TEST(FirstTouch, NeverEvicts) {
  Fixture f;
  f.first_touch = {key(0), key(1)};
  f.sizes[key(0)] = f.sizes[key(1)] = mem::PageSize::k4K;
  FirstTouchPolicy policy;
  PlacementSet p = policy.choose(f.ctx(2));
  EXPECT_EQ(p.size(), 2U);
  // Later, hotter pages appear — first-touch ignores them.
  f.first_touch.push_back(key(9));
  f.sizes[key(9)] = mem::PageSize::k4K;
  p = policy.choose(f.ctx(2));
  EXPECT_EQ(p.size(), 2U);
  EXPECT_FALSE(p.count(key(9)));
}

TEST(History, TakesHottestObservedPages) {
  Fixture f;
  f.add_rank(1, 100);
  f.add_rank(2, 50);
  f.add_rank(3, 10);
  HistoryPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(2));
  EXPECT_EQ(p.size(), 2U);
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_TRUE(p.count(key(2)));
  EXPECT_FALSE(p.count(key(3)));
}

TEST(History, EmptyRankingKeepsCurrentPlacement) {
  Fixture f;
  f.current.insert(key(7));
  HistoryPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(4));
  EXPECT_EQ(p.size(), 1U);
  EXPECT_TRUE(p.count(key(7)));
}

TEST(Oracle, UsesNextEpochTruth) {
  Fixture f;
  f.truth[key(1)] = 5;
  f.truth[key(2)] = 500;
  f.truth[key(3)] = 50;
  for (std::uint64_t i = 1; i <= 3; ++i) f.sizes[key(i)] = mem::PageSize::k4K;
  OraclePolicy policy;
  const PlacementSet p = policy.choose(f.ctx(2));
  EXPECT_TRUE(p.count(key(2)));
  EXPECT_TRUE(p.count(key(3)));
  EXPECT_FALSE(p.count(key(1)));
}

TEST(Policies, HugePagesConsumeMoreCapacity) {
  Fixture f;
  f.add_rank(1, 100);
  f.sizes[key(1)] = mem::PageSize::k2M;  // 512 frames
  f.add_rank(2, 90);
  f.add_rank(3, 80);
  HistoryPolicy policy;
  // Capacity 513: the huge page plus exactly one 4K page fit.
  const PlacementSet p = policy.choose(f.ctx(513));
  EXPECT_EQ(p.size(), 2U);
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_TRUE(p.count(key(2)));
}

TEST(Policies, HugePageSkippedWhenItDoesNotFit) {
  Fixture f;
  f.add_rank(1, 100);
  f.sizes[key(1)] = mem::PageSize::k2M;
  f.add_rank(2, 90);
  HistoryPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(10));
  EXPECT_FALSE(p.count(key(1)));  // 512 frames don't fit in 10
  EXPECT_TRUE(p.count(key(2)));
}

TEST(FrequencyDecay, SmoothsAcrossEpochs) {
  Fixture f;
  f.add_rank(1, 100);
  FrequencyDecayPolicy policy(0.5);
  PlacementSet p = policy.choose(f.ctx(1));
  EXPECT_TRUE(p.count(key(1)));
  // Next epoch page 1 vanishes from the ranking but retains decayed score;
  // a slightly-hot newcomer must beat 100*0.5 to displace it.
  Fixture f2;
  f2.add_rank(2, 10);
  p = policy.choose(f2.ctx(1));
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_FALSE(p.count(key(2)));
  // A genuinely hotter newcomer wins.
  Fixture f3;
  f3.add_rank(3, 1000);
  p = policy.choose(f3.ctx(1));
  EXPECT_TRUE(p.count(key(3)));
}

TEST(Factory, MakesAllPolicies) {
  EXPECT_EQ(make_policy("first-touch")->name(), "first-touch");
  EXPECT_EQ(make_policy("history")->name(), "history");
  EXPECT_EQ(make_policy("oracle")->name(), "oracle");
  EXPECT_EQ(make_policy("freq-decay")->name(), "freq-decay");
  EXPECT_THROW(make_policy("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

PageKey dkey(std::uint64_t n) { return PageKey{1, n * mem::kHugePageSize}; }

TEST(HistoryDensity, PrefersHotSmallPagesOverLukewarmHugePages) {
  // A huge page with aggregate rank 600 (~1.2/frame) vs 4K pages with
  // rank 50 each: density ordering must pick the small pages.
  std::vector<core::PageRank> ranking;
  core::PageRank huge;
  huge.key = dkey(1);
  huge.rank = 600;
  ranking.push_back(huge);
  PageSizeMap sizes;
  sizes[huge.key] = mem::PageSize::k2M;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::PageRank small;
    small.key = PageKey{2, i * mem::kPageSize};
    small.rank = 50;
    ranking.push_back(small);
    sizes[small.key] = mem::PageSize::k4K;
  }
  PlacementSet current;
  PolicyContext ctx;
  ctx.capacity_frames = 4;  // room for the 4 small pages OR none of huge
  ctx.current = &current;
  ctx.observed_ranking = &ranking;
  ctx.page_sizes = &sizes;

  HistoryPolicy raw(false);
  const PlacementSet raw_choice = raw.choose(ctx);
  EXPECT_TRUE(raw_choice.count(huge.key) == 0)  // can't fit 512 frames
      << "huge page shouldn't fit at all";
  HistoryPolicy density(true);
  const PlacementSet density_choice = density.choose(ctx);
  EXPECT_EQ(density_choice.size(), 4U);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(density_choice.count(PageKey{2, i * mem::kPageSize}));
  }
}

TEST(HistoryDensity, HugePageWinsWhenActuallyDense) {
  // Huge page with rank 51200 (100/frame) vs small pages at 50: the huge
  // page deserves the capacity when it fits.
  std::vector<core::PageRank> ranking;
  core::PageRank huge;
  huge.key = dkey(1);
  huge.rank = 51200;
  ranking.push_back(huge);
  core::PageRank small;
  small.key = PageKey{2, 0};
  small.rank = 50;
  ranking.push_back(small);
  PageSizeMap sizes;
  sizes[huge.key] = mem::PageSize::k2M;
  sizes[small.key] = mem::PageSize::k4K;
  PlacementSet current;
  PolicyContext ctx;
  ctx.capacity_frames = mem::kPagesPerHuge;
  ctx.current = &current;
  ctx.observed_ranking = &ranking;
  ctx.page_sizes = &sizes;
  HistoryPolicy density(true);
  const PlacementSet chosen = density.choose(ctx);
  EXPECT_TRUE(chosen.count(huge.key));
}

TEST(HistoryDensity, FactoryName) {
  EXPECT_EQ(make_policy("history-density")->name(), "history-density");
}

}  // namespace
}  // namespace tmprof::tiering

// Equivalence of the prefix selection (Policy::take_hottest) with the
// full-sort implementations it replaced. The references below are those
// implementations, kept verbatim in behaviour: a greedy walk over the
// whole sorted range, History's stable_sort over a RankOrder-sorted
// ranking with residency looked up inside the comparator, and full sorts
// for Oracle, WriteHistory and FrequencyDecay. Every policy must return
// the reference's set built by the same insertion sequence, which the
// set's iteration sequence shows.
namespace tmprof::tiering {
namespace {

std::uint64_t ref_frames_of(const PolicyContext& ctx, const PageKey& key) {
  if (ctx.page_sizes != nullptr) {
    const auto it = ctx.page_sizes->find(key);
    if (it != ctx.page_sizes->end()) return mem::pages_in(it->second);
  }
  return 1;
}

PlacementSet ref_take_until_full(const std::vector<PageKey>& ordered_keys,
                                 const PolicyContext& ctx) {
  PlacementSet chosen;
  std::uint64_t used = 0;
  for (const PageKey& key : ordered_keys) {
    const std::uint64_t frames = ref_frames_of(ctx, key);
    if (used + frames > ctx.capacity_frames) continue;
    if (!chosen.insert(key).second) continue;
    used += frames;
    if (used >= ctx.capacity_frames) break;
  }
  return chosen;
}

/// Expects `observed_ranking` in core::RankOrder, as the runner passes it.
PlacementSet ref_history(const PolicyContext& ctx, bool density_rank) {
  if (ctx.observed_ranking->empty() && ctx.current != nullptr) {
    return *ctx.current;
  }
  std::vector<const core::PageRank*> order;
  for (const core::PageRank& pr : *ctx.observed_ranking) order.push_back(&pr);
  auto effective_rank = [&](const core::PageRank* pr) {
    if (!density_rank) return pr->rank;
    return pr->rank / ref_frames_of(ctx, pr->key);
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
  for (const core::PageRank* pr : order) ordered.push_back(pr->key);
  return ref_take_until_full(ordered, ctx);
}

template <typename Map>
std::vector<PageKey> ref_hottest_first(const Map& scores) {
  std::vector<std::pair<PageKey, typename Map::mapped_type>> pages(
      scores.begin(), scores.end());
  std::sort(pages.begin(), pages.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<PageKey> ordered;
  for (const auto& [key, score] : pages) ordered.push_back(key);
  return ordered;
}

PlacementSet ref_oracle(const PolicyContext& ctx) {
  return ref_take_until_full(ref_hottest_first(*ctx.next_truth), ctx);
}

PlacementSet ref_write_history(const PolicyContext& ctx, double weight) {
  if (ctx.observed_ranking->empty() && ctx.current != nullptr) {
    return *ctx.current;
  }
  std::vector<core::PageRank> boosted(*ctx.observed_ranking);
  for (core::PageRank& pr : boosted) {
    pr.rank +=
        static_cast<std::uint64_t>(weight * static_cast<double>(pr.writes));
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
  for (const core::PageRank& pr : boosted) ordered.push_back(pr.key);
  return ref_take_until_full(ordered, ctx);
}

struct RefFrequencyDecay {
  double decay = 0.5;
  core::PageMap<double> score;

  PlacementSet choose(const PolicyContext& ctx) {
    for (auto& [key, value] : score) value *= decay;
    for (const core::PageRank& pr : *ctx.observed_ranking) {
      score[pr.key] += static_cast<double>(pr.rank);
    }
    return ref_take_until_full(ref_hottest_first(score), ctx);
  }
};

struct RefFirstTouch {
  PlacementSet placement;
  std::uint64_t used_frames = 0;

  PlacementSet choose(const PolicyContext& ctx) {
    for (const PageKey& key : *ctx.first_touch_order) {
      if (placement.count(key) != 0) continue;
      const std::uint64_t frames = ref_frames_of(ctx, key);
      if (used_frames + frames > ctx.capacity_frames) continue;
      placement.insert(key);
      used_frames += frames;
    }
    return placement;
  }
};

std::vector<PageKey> sequence(const PlacementSet& set) {
  return {set.begin(), set.end()};
}

/// A random epoch: ranks and truth counts drawn from [0, max_rank], so a
/// small max_rank gives heavy ties (max_rank 0 is the A-bit ranking's
/// single rank); ~30% of the ranked pages resident, plus a few unranked
/// residents; a `huge_share` of the pages 2 MiB.
struct RandomEpoch {
  std::vector<core::PageRank> ranking;  ///< core::RankOrder
  PlacementSet current;
  core::TruthMap truth;
  PageSizeMap sizes;
  std::uint64_t total_frames = 0;

  RandomEpoch(std::uint64_t seed, std::size_t n, std::uint64_t max_rank,
              double huge_share) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint64_t> rank(0, max_rank);
    std::uniform_int_distribution<std::uint32_t> writes(0, 3);
    std::bernoulli_distribution huge(huge_share);
    std::bernoulli_distribution resident(0.3);
    for (std::size_t i = 0; i < n; ++i) {
      const PageKey k{static_cast<mem::Pid>(1 + i % 3),
                      (i + 1) * mem::kHugePageSize};
      const mem::PageSize size =
          huge(rng) ? mem::PageSize::k2M : mem::PageSize::k4K;
      sizes[k] = size;
      total_frames += mem::pages_in(size);
      core::PageRank pr;
      pr.key = k;
      pr.rank = rank(rng);
      pr.writes = writes(rng);
      ranking.push_back(pr);
      truth[k] = rank(rng);
      if (resident(rng)) current.insert(k);
    }
    for (std::size_t i = 0; i < n / 20; ++i) {
      current.insert(PageKey{9, (i + 1) * mem::kPageSize});
    }
    std::sort(ranking.begin(), ranking.end(), core::RankOrder{});
  }

  [[nodiscard]] PolicyContext ctx(std::uint64_t capacity,
                                  const std::vector<core::PageRank>& observed,
                                  const PlacementSet* resident_set) const {
    PolicyContext c;
    c.capacity_frames = capacity;
    c.current = resident_set;
    c.observed_ranking = &observed;
    c.next_truth = &truth;
    c.page_sizes = &sizes;
    return c;
  }

  [[nodiscard]] std::vector<core::PageRank> shuffled(std::uint64_t seed) const {
    std::vector<core::PageRank> out = ranking;
    std::mt19937_64 rng(seed);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
  }

  /// The same truth counts, inserted in a shuffled order.
  [[nodiscard]] core::TruthMap shuffled_truth(std::uint64_t seed) const {
    std::vector<std::pair<PageKey, std::uint64_t>> pairs(truth.begin(),
                                                         truth.end());
    std::mt19937_64 rng(seed);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    core::TruthMap out;
    for (const auto& [key, count] : pairs) out[key] = count;
    return out;
  }

  [[nodiscard]] std::vector<std::uint64_t> capacities() const {
    return {1, 7, 100, 600, 1500, total_frames / 2, total_frames + 5};
  }
};

struct Shape {
  std::uint64_t max_rank;
  double huge_share;
};
// Single-rank, heavily tied and spread rankings; all-4 KiB and mixed pages
// (with 2 MiB pages skipped, the walk must continue past its first prefix).
constexpr Shape kShapes[] = {{0, 0.0}, {0, 0.3}, {3, 0.0},
                             {3, 0.3}, {1000, 0.0}, {1000, 0.3}};
constexpr std::size_t kPages = 1200;

TEST(PolicySelection, HistoryMatchesFullSortReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Shape& shape : kShapes) {
      const RandomEpoch epoch(seed, kPages, shape.max_rank, shape.huge_share);
      const std::vector<core::PageRank> input = epoch.shuffled(seed + 100);
      for (const bool density : {false, true}) {
        const PlacementSet* no_residents = nullptr;
        for (const PlacementSet* resident : {&epoch.current, no_residents}) {
          for (const std::uint64_t capacity : epoch.capacities()) {
            HistoryPolicy policy(density);
            EXPECT_EQ(sequence(policy.choose(
                          epoch.ctx(capacity, input, resident))),
                      sequence(ref_history(
                          epoch.ctx(capacity, epoch.ranking, resident),
                          density)))
                << "seed " << seed << " max_rank " << shape.max_rank
                << " huge " << shape.huge_share << " density " << density
                << " resident " << (resident != nullptr) << " capacity "
                << capacity;
          }
        }
      }
    }
  }
}

TEST(PolicySelection, WriteHistoryMatchesFullSortReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Shape& shape : kShapes) {
      const RandomEpoch epoch(seed, kPages, shape.max_rank, shape.huge_share);
      const std::vector<core::PageRank> input = epoch.shuffled(seed + 200);
      for (const std::uint64_t capacity : epoch.capacities()) {
        WriteHistoryPolicy policy(4.0);
        EXPECT_EQ(
            sequence(policy.choose(epoch.ctx(capacity, input, &epoch.current))),
            sequence(ref_write_history(
                epoch.ctx(capacity, epoch.ranking, &epoch.current), 4.0)))
            << "seed " << seed << " max_rank " << shape.max_rank << " huge "
            << shape.huge_share << " capacity " << capacity;
      }
    }
  }
}

TEST(PolicySelection, OracleMatchesFullSortReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Shape& shape : kShapes) {
      const RandomEpoch epoch(seed, kPages, shape.max_rank, shape.huge_share);
      for (const std::uint64_t capacity : epoch.capacities()) {
        const PolicyContext ctx =
            epoch.ctx(capacity, epoch.ranking, &epoch.current);
        OraclePolicy policy;
        EXPECT_EQ(sequence(policy.choose(ctx)), sequence(ref_oracle(ctx)))
            << "seed " << seed << " max_rank " << shape.max_rank << " huge "
            << shape.huge_share << " capacity " << capacity;
      }
    }
  }
}

TEST(PolicySelection, FrequencyDecayMatchesFullSortReference) {
  for (const Shape& shape : kShapes) {
    for (const std::uint64_t capacity : {1ULL, 100ULL, 600ULL, 5000ULL}) {
      FrequencyDecayPolicy policy(0.5);
      RefFrequencyDecay reference;
      // Successive epochs over overlapping pages carry decayed scores.
      for (std::uint64_t e = 0; e < 4; ++e) {
        const RandomEpoch epoch(e + 1, kPages - 200 * e, shape.max_rank,
                                shape.huge_share);
        const std::vector<core::PageRank> input = epoch.shuffled(e + 300);
        EXPECT_EQ(
            sequence(policy.choose(epoch.ctx(capacity, input, nullptr))),
            sequence(reference.choose(
                epoch.ctx(capacity, epoch.ranking, nullptr))))
            << "epoch " << e << " max_rank " << shape.max_rank << " huge "
            << shape.huge_share << " capacity " << capacity;
      }
    }
  }
}

TEST(PolicySelection, FirstTouchMatchesReference) {
  for (const double huge_share : {0.0, 0.3}) {
    const RandomEpoch epoch(7, kPages, 0, huge_share);
    for (const std::uint64_t capacity : epoch.capacities()) {
      FirstTouchPolicy policy;
      RefFirstTouch reference;
      std::vector<PageKey> order;
      // Pages arrive over four epochs; the placement is sticky.
      for (std::size_t e = 1; e <= 4; ++e) {
        while (order.size() < kPages * e / 4) {
          order.push_back(epoch.ranking[order.size()].key);
        }
        PolicyContext ctx = epoch.ctx(capacity, epoch.ranking, nullptr);
        ctx.first_touch_order = &order;
        EXPECT_EQ(sequence(policy.choose(ctx)),
                  sequence(reference.choose(ctx)))
            << "huge " << huge_share << " capacity " << capacity
            << " epoch " << e;
      }
    }
  }
}

TEST(PolicySelection, EmptyRankingAndUnitCapacity) {
  const RandomEpoch epoch(11, kPages, 3, 0.3);
  const std::vector<core::PageRank> empty;
  const core::TruthMap no_truth;
  // No observations: History keeps the current placement, or places
  // nothing when there is none; Oracle with no truth places nothing.
  for (const std::uint64_t capacity : {1ULL, 600ULL}) {
    HistoryPolicy history;
    EXPECT_EQ(sequence(history.choose(epoch.ctx(capacity, empty,
                                                &epoch.current))),
              sequence(epoch.current));
    EXPECT_TRUE(history.choose(epoch.ctx(capacity, empty, nullptr)).empty());
    PolicyContext ctx = epoch.ctx(capacity, empty, nullptr);
    ctx.next_truth = &no_truth;
    OraclePolicy oracle;
    EXPECT_TRUE(oracle.choose(ctx).empty());
  }
  // Capacity 1 places exactly the single best 4 KiB page.
  HistoryPolicy history;
  const PlacementSet one =
      history.choose(epoch.ctx(1, epoch.shuffled(5), &epoch.current));
  EXPECT_EQ(sequence(one),
            sequence(ref_history(epoch.ctx(1, epoch.ranking, &epoch.current),
                                 false)));
  ASSERT_EQ(one.size(), 1U);
  EXPECT_EQ(epoch.sizes.at(*one.begin()), mem::PageSize::k4K);
}

TEST(PolicySelection, RankingPoliciesIgnoreInputOrder) {
  for (const Shape& shape : kShapes) {
    const RandomEpoch epoch(21, kPages, shape.max_rank, shape.huge_share);
    const core::TruthMap truth_a = epoch.shuffled_truth(1);
    const core::TruthMap truth_b = epoch.shuffled_truth(2);
    for (const std::uint64_t capacity : epoch.capacities()) {
      const std::vector<core::PageRank> a = epoch.shuffled(1);
      const std::vector<core::PageRank> b = epoch.shuffled(2);
      PolicyContext ctx_a = epoch.ctx(capacity, a, &epoch.current);
      PolicyContext ctx_b = epoch.ctx(capacity, b, &epoch.current);
      ctx_a.next_truth = &truth_a;
      ctx_b.next_truth = &truth_b;
      const auto same = [&](Policy& pa, Policy& pb) {
        EXPECT_EQ(sequence(pa.choose(ctx_a)), sequence(pb.choose(ctx_b)))
            << pa.name() << " max_rank " << shape.max_rank << " huge "
            << shape.huge_share << " capacity " << capacity;
      };
      for (const bool density : {false, true}) {
        HistoryPolicy ha(density), hb(density);
        same(ha, hb);
      }
      OraclePolicy oa, ob;
      same(oa, ob);
      FrequencyDecayPolicy fa, fb;
      same(fa, fb);
      same(fa, fb);  // a second epoch, over decayed scores
      WriteHistoryPolicy wa, wb;
      same(wa, wb);
    }
  }
}

}  // namespace
}  // namespace tmprof::tiering
