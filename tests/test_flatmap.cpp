#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/hotness.hpp"
#include "core/page_key.hpp"
#include "core/ranking.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"

namespace tmprof::util {
namespace {

using core::PageKey;
using core::PageKeyHash;
using TestMap = FlatHashMap<PageKey, std::uint32_t, PageKeyHash>;
using TestSet = FlatHashSet<PageKey, PageKeyHash>;

PageKey key(std::uint64_t pid, std::uint64_t n) {
  return PageKey{static_cast<mem::Pid>(pid), n * mem::kPageSize};
}

/// Hash that lands every key in slot 0 — forces maximal linear probing.
struct CollideAll {
  std::size_t operator()(const PageKey&) const noexcept { return 0; }
};

TEST(FlatMap, EmptyMapBehaves) {
  TestMap m;
  EXPECT_EQ(m.size(), 0U);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0U);
  EXPECT_FALSE(m.contains(key(1, 1)));
  EXPECT_EQ(m.find(key(1, 1)), m.end());
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_THROW(m.at(key(1, 1)), std::out_of_range);
  m.clear();  // clear on a never-allocated map is a no-op
  EXPECT_EQ(m.capacity(), 0U);
}

TEST(FlatMap, InsertFindUpdate) {
  TestMap m;
  m[key(1, 10)] = 3;
  m[key(1, 20)] = 7;
  m[key(2, 10)] += 1;
  EXPECT_EQ(m.size(), 3U);
  EXPECT_EQ(m.at(key(1, 10)), 3U);
  EXPECT_EQ(m.at(key(1, 20)), 7U);
  EXPECT_EQ(m.at(key(2, 10)), 1U);
  m[key(1, 10)] += 5;
  EXPECT_EQ(m.at(key(1, 10)), 8U);
  EXPECT_EQ(m.size(), 3U);
  auto it = m.find(key(1, 20));
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->first, key(1, 20));
  EXPECT_EQ(it->second, 7U);
}

TEST(FlatMap, TryEmplaceDoesNotOverwrite) {
  TestMap m;
  auto [p1, inserted1] = m.try_emplace(key(1, 1), 42);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*p1, 42U);
  auto [p2, inserted2] = m.try_emplace(key(1, 1), 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*p2, 42U);
  EXPECT_EQ(m.size(), 1U);
}

TEST(FlatMap, GrowthMatchesStdUnorderedMap) {
  // Random mixed workload of inserts and increments, cross-checked against
  // std::unordered_map at every growth boundary.
  util::Rng rng(17);
  TestMap m;
  std::unordered_map<PageKey, std::uint32_t, PageKeyHash> ref;
  for (int i = 0; i < 20000; ++i) {
    const PageKey k = key(rng.below(4) + 1, rng.below(3000));
    const auto bump = static_cast<std::uint32_t>(rng.below(5) + 1);
    m[k] += bump;
    ref[k] += bump;
  }
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(m.contains(k));
    EXPECT_EQ(m.at(k), v);
  }
  // Load factor invariant: at most half the slots are used.
  EXPECT_GE(m.capacity(), m.size() * 2);
}

TEST(FlatMap, CollisionChainsResolve) {
  // With a constant hash the table degenerates to a linear scan; every
  // operation must still be correct (just slow).
  FlatHashMap<PageKey, std::uint32_t, CollideAll> m;
  for (std::uint64_t i = 0; i < 200; ++i) {
    m[key(1, i)] = static_cast<std::uint32_t>(i);
  }
  EXPECT_EQ(m.size(), 200U);
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(m.contains(key(1, i)));
    EXPECT_EQ(m.at(key(1, i)), static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(m.contains(key(1, 200)));
  EXPECT_FALSE(m.contains(key(2, 0)));
}

TEST(FlatMap, ClearRetainsCapacityAndResetsValues) {
  TestMap m;
  for (std::uint64_t i = 0; i < 100; ++i) m[key(1, i)] = 7;
  const std::size_t cap = m.capacity();
  EXPECT_GT(cap, 0U);
  m.clear();
  EXPECT_EQ(m.size(), 0U);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_FALSE(m.contains(key(1, 0)));
  // Re-inserting a key whose slot holds a stale value must start from 0.
  m[key(1, 0)] += 1;
  EXPECT_EQ(m.at(key(1, 0)), 1U);
  EXPECT_EQ(m.capacity(), cap);  // no growth after clear + light reuse
}

TEST(FlatMap, ReserveAvoidsGrowth) {
  TestMap m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  EXPECT_GE(cap, 2000U);  // 1/2 max load factor
  for (std::uint64_t i = 0; i < 1000; ++i) m[key(1, i)] = 1;
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, SwapExchangesContents) {
  TestMap a;
  TestMap b;
  a[key(1, 1)] = 10;
  b[key(2, 2)] = 20;
  b[key(2, 3)] = 30;
  swap(a, b);
  EXPECT_EQ(a.size(), 2U);
  EXPECT_EQ(b.size(), 1U);
  EXPECT_EQ(a.at(key(2, 2)), 20U);
  EXPECT_EQ(b.at(key(1, 1)), 10U);
}

TEST(FlatMap, EqualityIsOrderIndependent) {
  // Build the same contents with different insertion orders (and hence
  // different slot layouts / capacities).
  TestMap a;
  TestMap b;
  b.reserve(500);
  for (std::uint64_t i = 0; i < 64; ++i) a[key(1, i)] = static_cast<std::uint32_t>(i);
  for (std::uint64_t i = 64; i-- > 0;) b[key(1, i)] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(a, b);
  b[key(1, 0)] = 99;
  EXPECT_NE(a, b);
  b[key(1, 0)] = 0;
  EXPECT_EQ(a, b);
  b[key(9, 9)] = 1;
  EXPECT_NE(a, b);
}

TEST(FlatMap, FoldSortedVisitsAscendingKeys) {
  util::Rng rng(23);
  TestMap m;
  std::map<PageKey, std::uint32_t> ref;  // ordered reference
  for (int i = 0; i < 500; ++i) {
    const PageKey k = key(rng.below(3) + 1, rng.below(400));
    const auto v = static_cast<std::uint32_t>(rng.below(100));
    m[k] = v;
    ref[k] = v;
  }
  std::vector<std::pair<PageKey, std::uint32_t>> folded;
  m.fold_sorted([&folded](const PageKey& k, std::uint32_t v) {
    folded.emplace_back(k, v);
  });
  ASSERT_EQ(folded.size(), ref.size());
  std::size_t i = 0;
  for (const auto& [k, v] : ref) {
    EXPECT_EQ(folded[i].first, k);
    EXPECT_EQ(folded[i].second, v);
    ++i;
  }
}

TEST(FlatMap, FoldSortedIsLayoutInvariant) {
  // Same contents, different capacities and insertion orders: fold_sorted
  // must produce the identical sequence — this is what keeps checkpoint
  // bytes and merge order independent of slot layout.
  TestMap a;
  TestMap b;
  b.reserve(4096);
  for (std::uint64_t i = 0; i < 300; ++i) a[key(1, i * 7 % 300)] = 1;
  for (std::uint64_t i = 300; i-- > 0;) b[key(1, i * 7 % 300)] = 1;
  std::vector<PageKey> ka;
  std::vector<PageKey> kb;
  a.fold_sorted([&ka](const PageKey& k, std::uint32_t) { ka.push_back(k); });
  b.fold_sorted([&kb](const PageKey& k, std::uint32_t) { kb.push_back(k); });
  EXPECT_EQ(ka, kb);
}

TEST(FlatMap, CheckpointRoundTrip) {
  util::Rng rng(31);
  core::PageCountMap counts;
  for (int i = 0; i < 300; ++i) {
    counts[key(rng.below(5) + 1, rng.below(1 << 16))] =
        static_cast<std::uint32_t>(rng.below(1 << 20));
  }
  ckpt::Writer w;
  w.begin_section("flat");
  core::save_page_counts(w, counts);
  w.end_section();
  ckpt::Reader r(w.finish());
  r.enter_section("flat");
  core::PageCountMap loaded;
  core::load_page_counts(r, loaded);
  r.end_section();
  EXPECT_EQ(loaded, counts);
}

TEST(FlatMap, SetInsertContainsClear) {
  TestSet s;
  EXPECT_TRUE(s.insert(key(1, 1)));
  EXPECT_FALSE(s.insert(key(1, 1)));
  EXPECT_TRUE(s.insert(key(1, 2)));
  EXPECT_EQ(s.size(), 2U);
  EXPECT_TRUE(s.contains(key(1, 1)));
  EXPECT_EQ(s.count(key(1, 2)), 1U);
  EXPECT_FALSE(s.contains(key(1, 3)));
  const std::size_t cap = s.capacity();
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), cap);
  EXPECT_TRUE(s.insert(key(1, 1)));  // re-insert after clear is "new" again
}

TEST(FlatMap, SetFoldSortedAndIteration) {
  TestSet s;
  for (std::uint64_t i = 50; i-- > 0;) s.insert(key(1, i));
  std::vector<PageKey> folded;
  s.fold_sorted([&folded](const PageKey& k) { folded.push_back(k); });
  ASSERT_EQ(folded.size(), 50U);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(folded[i], key(1, i));
  // Plain iteration visits every key exactly once (order unspecified).
  std::size_t n = 0;
  for (const PageKey& k : s) {
    EXPECT_TRUE(s.contains(k));
    ++n;
  }
  EXPECT_EQ(n, 50U);
}

TEST(FlatMap, U64HashAvalanche) {
  // Sequential inputs must not produce sequential hashes (the reason the
  // PFN map does not use an identity hash).
  U64Hash h;
  std::size_t collisions_low_bits = 0;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    if ((h(i) & 1023U) == (i & 1023U)) ++collisions_low_bits;
  }
  // An identity hash would score 1024; a mixing hash scores ~1.
  EXPECT_LT(collisions_low_bits, 16U);
}

// ---------------------------------------------------------------------------
// HotnessStore / HotnessSet: the exact counting front-end over these maps.

PageKey spread_key(std::uint64_t page) {
  return key(1 + page % 4, page);
}

TEST(HotnessStore, ExactMatchesPlainMap) {
  core::HotnessCounts store;
  core::PageCountMap reference;
  Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    const PageKey k = spread_key(rng.below(2000));
    store.add(k);
    reference[k] += 1;
  }
  EXPECT_EQ(store.total(), 30000u);
  EXPECT_EQ(store.exact_counts(), reference);
  core::PageCountMap out;
  EXPECT_EQ(store.end_epoch_into(out), 30000u);
  EXPECT_EQ(out, reference);
  EXPECT_EQ(store.total(), 0u);
  EXPECT_TRUE(store.exact_counts().empty());
}

TEST(HotnessStore, MergeFromIsDeterministic) {
  auto run = [] {
    std::vector<core::HotnessTruth> shards(4);
    core::HotnessTruth merged;
    Rng rng(3);
    for (int i = 0; i < 60000; ++i) {
      const std::uint64_t page = rng.below(3000);
      shards[page % 4].add(spread_key(page));
    }
    for (auto& shard : shards) {
      merged.merge_from(shard);
      EXPECT_EQ(shard.total(), 0u);
      EXPECT_TRUE(shard.exact_counts().empty());
    }
    EXPECT_EQ(merged.total(), 60000u);
    ckpt::Writer w;
    w.begin_section("out");
    merged.save_state(w);
    w.end_section();
    return w.finish();
  };
  EXPECT_EQ(run(), run());
}

TEST(HotnessStore, CheckpointRoundTrip) {
  core::HotnessCounts store;
  Rng rng(9);
  for (int i = 0; i < 40000; ++i) store.add(spread_key(rng.below(4000)));

  ckpt::Writer w;
  w.begin_section("store");
  store.save_state(w);
  w.end_section();
  core::HotnessCounts restored;
  ckpt::Reader r(w.finish());
  r.enter_section("store");
  restored.load_state(r, "store");
  r.end_section();
  EXPECT_EQ(store, restored);
}

TEST(HotnessStore, SetInsertReportsFirstSightings) {
  core::PageHotnessSet set;
  std::unordered_set<std::uint64_t> reference;
  Rng rng(41);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t page = rng.below(5000);
    const bool truly_new = reference.insert(page).second;
    EXPECT_EQ(set.insert(spread_key(page)), truly_new);
    ASSERT_TRUE(set.contains(spread_key(page)));
  }
  EXPECT_EQ(set.size(), reference.size());
}

}  // namespace
}  // namespace tmprof::util
