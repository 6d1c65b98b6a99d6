/// Randomized property tests: the substrates are checked against simple
/// reference models over thousands of random operations. These are the
/// tests most likely to catch structural bugs (aliasing, eviction, frame
/// accounting) that example-based tests miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "core/hotness.hpp"
#include "core/ranking.hpp"
#include "mem/cache.hpp"
#include "mem/page_table.hpp"
#include "mem/tiers.hpp"
#include "pmu/events.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace tmprof {
namespace {

/// PageTable vs a std::map reference across random map/unmap/resolve.
class PageTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableFuzz, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  mem::PageTable table;
  // Reference: base VA -> (pfn, size).
  std::map<mem::VirtAddr, std::pair<mem::Pfn, mem::PageSize>> reference;
  const std::uint64_t kSpan4k = 1 << 14;   // candidate 4K page indices
  const std::uint64_t kSpan2m = 1 << 5;    // candidate 2M page indices

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t action = rng.below(10);
    if (action < 4) {
      // Map a random 4K page if free (and not covered by a huge page).
      const mem::VirtAddr va = rng.below(kSpan4k) * mem::kPageSize;
      const mem::VirtAddr huge_base = mem::page_base(va, mem::PageSize::k2M);
      const bool covered =
          reference.count(va) ||
          (reference.count(huge_base) &&
           reference[huge_base].second == mem::PageSize::k2M);
      if (!covered) {
        const mem::Pfn pfn = rng.below(1 << 20);
        table.map(va, pfn, mem::PageSize::k4K);
        reference[va] = {pfn, mem::PageSize::k4K};
      }
    } else if (action < 6) {
      // Map a random 2M page if its whole range is free.
      const mem::VirtAddr va = rng.below(kSpan2m) * mem::kHugePageSize;
      bool covered = false;
      for (const auto& [base, entry] : reference) {
        const std::uint64_t bytes = mem::page_bytes(entry.second);
        if (base < va + mem::kHugePageSize && va < base + bytes) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        const mem::Pfn pfn = rng.below(1 << 20) & ~(mem::kPagesPerHuge - 1);
        table.map(va, pfn, mem::PageSize::k2M);
        reference[va] = {pfn, mem::PageSize::k2M};
      }
    } else if (action < 8 && !reference.empty()) {
      // Unmap a random existing mapping.
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.below(reference.size())));
      table.unmap(it->first);
      reference.erase(it);
    } else {
      // Resolve a random address and compare against the reference.
      const mem::VirtAddr va =
          rng.below(kSpan4k * mem::kPageSize + (1ULL << 20));
      const mem::PteRef ref = table.resolve(va);
      const mem::VirtAddr base4k = mem::page_base(va, mem::PageSize::k4K);
      const mem::VirtAddr base2m = mem::page_base(va, mem::PageSize::k2M);
      if (reference.count(base4k) &&
          reference[base4k].second == mem::PageSize::k4K) {
        ASSERT_TRUE(ref);
        ASSERT_EQ(ref.pte->pfn(), reference[base4k].first);
        ASSERT_EQ(ref.size, mem::PageSize::k4K);
      } else if (reference.count(base2m) &&
                 reference[base2m].second == mem::PageSize::k2M) {
        ASSERT_TRUE(ref);
        ASSERT_EQ(ref.pte->pfn(), reference[base2m].first);
        ASSERT_EQ(ref.size, mem::PageSize::k2M);
      } else {
        ASSERT_FALSE(ref);
      }
    }
  }

  // Final sweep: walk() must enumerate exactly the reference mappings.
  std::map<mem::VirtAddr, std::pair<mem::Pfn, mem::PageSize>> walked;
  table.walk([&](mem::VirtAddr va, mem::PageSize size, mem::Pte& pte) {
    walked[va] = {pte.pfn(), size};
  });
  ASSERT_EQ(walked, reference);
  std::uint64_t expect_4k = 0, expect_2m = 0;
  for (const auto& [va, entry] : reference) {
    (entry.second == mem::PageSize::k4K ? expect_4k : expect_2m) += 1;
  }
  EXPECT_EQ(table.mapped_4k(), expect_4k);
  EXPECT_EQ(table.mapped_2m(), expect_2m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableFuzz,
                         ::testing::Values(1ULL, 77ULL, 20260707ULL));

/// PhysMemory vs reference invariants across random alloc/free.
class PhysMemoryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhysMemoryFuzz, NoOverlapAndExactAccounting) {
  util::Rng rng(GetParam());
  mem::PhysMemory pm({mem::TierSpec{"fast", 3000, 80, 80},
                      mem::TierSpec{"slow", 5000, 300, 600}});
  struct Alloc {
    mem::Pfn head;
    mem::PageSize size;
  };
  std::vector<Alloc> live;
  std::unordered_set<mem::Pfn> owned_frames;
  std::uint64_t used[2] = {0, 0};

  for (int step = 0; step < 6000; ++step) {
    if (rng.chance(0.6)) {
      const bool huge = rng.chance(0.15);
      const auto size = huge ? mem::PageSize::k2M : mem::PageSize::k4K;
      const auto tier = static_cast<mem::TierId>(rng.below(2));
      const auto head = pm.alloc_exact(tier, 1, 0x1000, size);
      if (head) {
        const std::uint64_t span = mem::pages_in(size);
        if (huge) ASSERT_EQ(*head % mem::kPagesPerHuge, 0U);
        for (std::uint64_t i = 0; i < span; ++i) {
          // No frame may ever be handed out twice.
          ASSERT_TRUE(owned_frames.insert(*head + i).second);
          ASSERT_EQ(pm.tier_of(*head + i), tier);
        }
        used[tier] += span;
        live.push_back({*head, size});
      }
    } else if (!live.empty()) {
      const std::size_t idx = rng.below(live.size());
      const Alloc alloc = live[idx];
      live[idx] = live.back();
      live.pop_back();
      const auto tier = pm.tier_of(alloc.head);
      pm.free(alloc.head);
      const std::uint64_t span = mem::pages_in(alloc.size);
      for (std::uint64_t i = 0; i < span; ++i) {
        owned_frames.erase(alloc.head + i);
      }
      used[tier] -= span;
    }
    if (step % 512 == 0) {
      ASSERT_EQ(pm.used_frames(0), used[0]);
      ASSERT_EQ(pm.used_frames(1), used[1]);
    }
  }
  EXPECT_EQ(pm.used_frames(0) + pm.used_frames(1), owned_frames.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysMemoryFuzz,
                         ::testing::Values(3ULL, 1234ULL));

/// CacheLevel vs an exact LRU reference model.
TEST(CacheFuzz, MatchesExactLruModel) {
  util::Rng rng(99);
  mem::CacheLevel cache(64 * 16, 4);  // 4 sets x 4 ways
  // Reference: per set, list of lines in LRU order (front = LRU).
  std::array<std::vector<std::uint64_t>, 4> sets;
  auto set_of = [](std::uint64_t line) { return line & 3; };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t line = rng.below(64);
    const mem::PhysAddr paddr = line * mem::kLineSize;
    auto& set = sets[set_of(line)];
    const auto it = std::find(set.begin(), set.end(), line);
    if (rng.chance(0.5)) {
      // access(): hit iff resident; moves to MRU position.
      const bool hit = cache.access(paddr, false);
      ASSERT_EQ(hit, it != set.end()) << "line " << line;
      if (it != set.end()) {
        set.erase(it);
        set.push_back(line);
      }
    } else {
      cache.fill(paddr);
      if (it == set.end()) {
        if (set.size() == 4) set.erase(set.begin());  // evict LRU
        set.push_back(line);
      }
      // fill() of a resident line does not touch LRU order (returns early).
    }
  }
  // Every reference-resident line must be contained, and none beyond.
  std::uint64_t resident = 0;
  for (const auto& set : sets) resident += set.size();
  std::uint64_t contained = 0;
  for (std::uint64_t line = 0; line < 64; ++line) {
    if (cache.contains(line * mem::kLineSize)) ++contained;
  }
  EXPECT_EQ(contained, resident);
}

/// List-LRU reference for one cache level: per set, resident lines from
/// least to most recently used.
class RefCacheLevel {
 public:
  RefCacheLevel(std::uint64_t sets, std::size_t ways)
      : sets_(sets), ways_(ways) {}

  bool access(std::uint64_t line, bool is_store) {
    auto& set = set_of(line);
    const auto it = find(set, line);
    if (it == set.end()) return false;
    Line hit = *it;
    hit.dirty = hit.dirty || is_store;
    set.erase(it);
    set.push_back(hit);
    return true;
  }

  void fill(std::uint64_t line, std::uint32_t owner) {
    auto& set = set_of(line);
    if (find(set, line) != set.end()) return;
    if (set.size() == ways_) {
      if (set.front().dirty) ++dirty_evictions;
      set.erase(set.begin());
    }
    set.push_back(Line{line, owner, false});
  }

  [[nodiscard]] bool contains(std::uint64_t line) {
    auto& set = set_of(line);
    return find(set, line) != set.end();
  }

  [[nodiscard]] std::uint64_t occupancy(std::uint32_t owner) const {
    std::uint64_t n = 0;
    for (const auto& [index, set] : sets_by_index_) {
      for (const Line& l : set) n += l.owner == owner ? 1 : 0;
    }
    return n;
  }

  std::uint64_t dirty_evictions = 0;

 private:
  struct Line {
    std::uint64_t line;
    std::uint32_t owner;
    bool dirty;
  };
  static std::vector<Line>::iterator find(std::vector<Line>& set,
                                          std::uint64_t line) {
    return std::find_if(set.begin(), set.end(),
                        [line](const Line& l) { return l.line == line; });
  }
  std::vector<Line>& set_of(std::uint64_t line) {
    return sets_by_index_[line % sets_];
  }

  std::uint64_t sets_;
  std::size_t ways_;
  std::map<std::uint64_t, std::vector<Line>> sets_by_index_;
};

/// CacheHierarchy (one probe per level, installs into the probed victims)
/// against the per-level semantics it replaced: access each level in turn,
/// fill the missed levels, and prefetch the next line with contains + fill.
TEST(CacheFuzz, HierarchyMatchesAccessThenFillModel) {
  util::Rng rng(2024);
  constexpr std::uint64_t kLlcSets = 16;
  mem::CacheLevel llc(mem::kLineSize * kLlcSets * 4, 4);
  mem::CacheHierarchy caches(mem::kLineSize * 4 * 2, 2,   // L1: 4 sets x 2
                             mem::kLineSize * 8 * 4, 4,   // L2: 8 sets x 4
                             &llc, /*enable_prefetch=*/true);
  RefCacheLevel l1(4, 2);
  RefCacheLevel l2(8, 4);
  RefCacheLevel ref_llc(kLlcSets, 4);
  std::uint64_t prefetch_fills = 0;
  std::uint64_t last_demand_line = ~0ULL;
  constexpr std::uint64_t kLines = 512;

  for (int step = 0; step < 50000; ++step) {
    // Mostly a sliding hot window, sometimes a uniform jump: both hits at
    // every level and full misses (with prefetches) stay common.
    const std::uint64_t line = rng.chance(0.7)
                                   ? (static_cast<std::uint64_t>(step) / 8 +
                                      rng.below(48)) % kLines
                                   : rng.below(kLines);
    const bool is_store = rng.chance(0.3);
    const auto owner = static_cast<std::uint32_t>(1 + rng.below(3));

    mem::DataSource expected = mem::DataSource::MemTier1;
    bool prefetched = false;
    if (l1.access(line, is_store)) {
      expected = mem::DataSource::L1;
    } else if (l2.access(line, is_store)) {
      l1.fill(line, 0);
      expected = mem::DataSource::L2;
    } else if (ref_llc.access(line, is_store)) {
      l2.fill(line, 0);
      l1.fill(line, 0);
      expected = mem::DataSource::LLC;
    } else {
      ref_llc.fill(line, owner);
      l2.fill(line, 0);
      l1.fill(line, 0);
      if (line != last_demand_line) {
        last_demand_line = line;
        if (!ref_llc.contains(line + 1)) {
          ref_llc.fill(line + 1, owner);
          ++prefetch_fills;
          prefetched = true;
        }
      }
    }
    const mem::CacheAccess got =
        caches.access(line * mem::kLineSize, is_store, owner);
    ASSERT_EQ(got.source, expected) << "step " << step << " line " << line;
    ASSERT_EQ(got.prefetch_issued, prefetched) << "step " << step;
  }

  EXPECT_EQ(caches.prefetch_fills(), prefetch_fills);
  EXPECT_EQ(caches.l1().dirty_evictions(), l1.dirty_evictions);
  EXPECT_EQ(caches.l2().dirty_evictions(), l2.dirty_evictions);
  EXPECT_EQ(llc.dirty_evictions(), ref_llc.dirty_evictions);
  EXPECT_GT(ref_llc.dirty_evictions, 0U);
  for (std::uint32_t owner = 0; owner <= 3; ++owner) {
    EXPECT_EQ(caches.l1().occupancy_lines(owner), l1.occupancy(owner));
    EXPECT_EQ(caches.l2().occupancy_lines(owner), l2.occupancy(owner));
    EXPECT_EQ(llc.occupancy_lines(owner), ref_llc.occupancy(owner));
  }
  for (std::uint64_t line = 0; line <= kLines; ++line) {
    const mem::PhysAddr paddr = line * mem::kLineSize;
    EXPECT_EQ(caches.l1().contains(paddr), l1.contains(line)) << line;
    EXPECT_EQ(caches.l2().contains(paddr), l2.contains(line)) << line;
    EXPECT_EQ(llc.contains(paddr), ref_llc.contains(line)) << line;
  }
}

/// The exact HotnessStore driven by a random op stream (adds of skewed
/// keys, epoch closes, shard-merge interleavings), cross-checked against a
/// std::unordered_map reference: counts and running totals must match.
class HotnessStoreFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HotnessStoreFuzz, ExactMatchesReferenceModel) {
  util::Rng rng(GetParam());
  core::HotnessCounts store;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  std::uint64_t reference_total = 0;
  auto key_of = [](std::uint64_t page) {
    return core::PageKey{static_cast<mem::Pid>(1 + page % 3),
                         page * mem::kPageSize};
  };

  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t action = rng.below(100);
    if (action < 96) {
      const std::uint64_t page = rng.below(2048);
      const auto n = static_cast<std::uint32_t>(1 + rng.below(4));
      store.add(key_of(page), n);
      reference[page] += n;
      reference_total += n;
    } else if (action < 98) {
      // Shard-merge interleaving: accumulate a burst in a fresh shard,
      // then fold it in mid-stream.
      core::HotnessCounts shard;
      const std::uint64_t burst = rng.below(200);
      for (std::uint64_t i = 0; i < burst; ++i) {
        const std::uint64_t page = rng.below(2048);
        shard.add(key_of(page));
        reference[page] += 1;
        reference_total += 1;
      }
      store.merge_from(shard);
      ASSERT_EQ(shard.total(), 0U);
    } else {
      ASSERT_EQ(store.total(), reference_total);
      core::PageCountMap out;
      ASSERT_EQ(store.end_epoch_into(out), reference_total);
      ASSERT_EQ(out.size(), reference.size());
      for (const auto& [page, count] : reference) {
        const auto it = out.find(key_of(page));
        ASSERT_NE(it, out.end());
        ASSERT_EQ(it->second, count);
      }
      reference.clear();
      reference_total = 0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HotnessStoreFuzz,
                         ::testing::Values(11ULL, 4096ULL, 20260807ULL));

/// The HotnessSet driven by a random insert/query stream, cross-checked
/// against std::unordered_set.
class HotnessStoreSetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HotnessStoreSetFuzz, MembershipMatchesReferenceModel) {
  util::Rng rng(GetParam());
  core::PageHotnessSet set;
  std::unordered_set<std::uint64_t> reference;
  auto key_of = [](std::uint64_t page) {
    return core::PageKey{static_cast<mem::Pid>(1 + page % 5),
                         page * mem::kPageSize};
  };

  for (int step = 0; step < 40000; ++step) {
    const std::uint64_t page = rng.below(4000);
    if (rng.chance(0.7)) {
      const bool truly_new = reference.insert(page).second;
      ASSERT_EQ(set.insert(key_of(page)), truly_new);
    } else {
      ASSERT_EQ(set.contains(key_of(page)), reference.count(page) != 0);
    }
  }
  ASSERT_EQ(set.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HotnessStoreSetFuzz,
                         ::testing::Values(21ULL, 555ULL));

/// Whole-system determinism: identical configs and seeds give bit-equal
/// simulations (the property the Oracle pre-pass relies on).
TEST(SystemFuzz, FullSystemDeterminism) {
  auto run = [] {
    sim::SimConfig cfg;
    cfg.cores = 3;
    cfg.llc_bytes = 1 << 19;
    cfg.tier1_frames = 1 << 12;
    cfg.tier2_frames = 1 << 15;
    cfg.instruction_fetch = true;
    sim::System sys(cfg);
    const auto spec = workloads::find_spec("data_caching", 0.1);
    for (std::uint32_t i = 0; i < spec.processes; ++i) {
      sys.add_process(workloads::make_workload(spec, i, 7));
    }
    sys.step(60000);
    std::vector<std::uint64_t> fingerprint;
    for (std::size_t e = 0; e < pmu::kEventCount; ++e) {
      fingerprint.push_back(
          sys.pmu().truth_total(static_cast<pmu::Event>(e)));
    }
    fingerprint.push_back(sys.now());
    fingerprint.push_back(sys.phys().used_frames(0));
    fingerprint.push_back(sys.phys().used_frames(1));
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tmprof
