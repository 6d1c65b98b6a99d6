#include "monitors/abit.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mem/ptw.hpp"

namespace tmprof::monitors {
namespace {

// Sink for scans whose samples the test does not inspect.
constexpr auto kDiscard = [](const AbitSample&) {};

TEST(Abit, ScanFindsAccessedPagesAndClearsBits) {
  mem::PageTable pt;
  pt.map(0x1000, 1, mem::PageSize::k4K);
  pt.map(0x2000, 2, mem::PageSize::k4K);
  pt.map(0x3000, 3, mem::PageSize::k4K);
  // Touch two of the three pages through the hardware walker.
  mem::PageTableWalker::walk(pt, 0x1000, false);
  mem::PageTableWalker::walk(pt, 0x3000, false);

  AbitScanner scanner{AbitConfig{}};
  std::vector<mem::VirtAddr> seen;
  const AbitScanResult r = scanner.scan(
      1, pt, [&](const AbitSample& s) { seen.push_back(s.page_va); });
  EXPECT_EQ(r.ptes_visited, 3U);
  EXPECT_EQ(r.pages_accessed, 2U);
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], 0x1000U);
  EXPECT_EQ(seen[1], 0x3000U);
  // Bits were cleared: a second scan sees nothing.
  const AbitScanResult r2 = scanner.scan(1, pt, kDiscard);
  EXPECT_EQ(r2.pages_accessed, 0U);
}

TEST(Abit, SamplesCarryPfnAndSize) {
  mem::PageTable pt;
  pt.map(mem::kHugePageSize, 1024, mem::PageSize::k2M);
  mem::PageTableWalker::walk(pt, mem::kHugePageSize + 555, false);
  AbitScanner scanner{AbitConfig{}};
  AbitSample got;
  scanner.scan(1, pt, [&](const AbitSample& s) { got = s; });
  EXPECT_EQ(got.pfn, 1024U);
  EXPECT_EQ(got.size, mem::PageSize::k2M);
  EXPECT_EQ(got.page_va, mem::kHugePageSize);
}

TEST(Abit, NoShootdownByDefault) {
  mem::PageTable pt;
  pt.map(0x1000, 1, mem::PageSize::k4K);
  mem::PageTableWalker::walk(pt, 0x1000, false);
  AbitScanner scanner{AbitConfig{}};
  std::uint64_t shootdowns = 0;
  scanner.set_shootdown([&](mem::Pid, mem::VirtAddr, mem::PageSize) {
    ++shootdowns;
    return std::uint64_t{5};
  });
  const AbitScanResult r = scanner.scan(1, pt, kDiscard);
  EXPECT_EQ(shootdowns, 0U);
  EXPECT_EQ(r.shootdowns, 0U);
}

TEST(Abit, OptionalShootdownPerClearedPte) {
  mem::PageTable pt;
  pt.map(0x1000, 1, mem::PageSize::k4K);
  pt.map(0x2000, 2, mem::PageSize::k4K);
  mem::PageTableWalker::walk(pt, 0x1000, false);
  mem::PageTableWalker::walk(pt, 0x2000, false);
  AbitConfig cfg;
  cfg.shootdown_on_clear = true;
  AbitScanner scanner(cfg);
  std::uint64_t calls = 0;
  scanner.set_shootdown([&](mem::Pid pid, mem::VirtAddr, mem::PageSize) {
    EXPECT_EQ(pid, 9U);
    ++calls;
    return std::uint64_t{5};
  });
  const AbitScanResult r = scanner.scan(9, pt, kDiscard);
  EXPECT_EQ(calls, 2U);
  EXPECT_EQ(r.shootdowns, 10U);  // 2 pages x 5 IPIs
  EXPECT_GT(r.cost_ns, 2 * cfg.cost_per_pte_ns);
}

TEST(Abit, CostScalesWithPtesVisited) {
  mem::PageTable pt;
  for (std::uint64_t i = 0; i < 100; ++i) {
    pt.map(i * mem::kPageSize, i + 1, mem::PageSize::k4K);
  }
  AbitConfig cfg;
  AbitScanner scanner(cfg);
  const AbitScanResult r = scanner.scan(1, pt, kDiscard);
  EXPECT_EQ(r.ptes_visited, 100U);
  EXPECT_EQ(r.cost_ns, 100 * cfg.cost_per_pte_ns);
  EXPECT_EQ(scanner.overhead_ns(), r.cost_ns);
  EXPECT_EQ(scanner.total_ptes_visited(), 100U);
}

TEST(Abit, DirtyBitUntouchedByScan) {
  mem::PageTable pt;
  pt.map(0x1000, 1, mem::PageSize::k4K);
  mem::PageTableWalker::walk(pt, 0x1000, true);
  AbitScanner scanner{AbitConfig{}};
  scanner.scan(1, pt, kDiscard);
  EXPECT_TRUE(pt.resolve(0x1000).pte->dirty());
  EXPECT_FALSE(pt.resolve(0x1000).pte->accessed());
}

}  // namespace
}  // namespace tmprof::monitors
