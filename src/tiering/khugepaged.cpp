#include "tiering/khugepaged.hpp"

#include <map>
#include <vector>

#include "util/assert.hpp"

namespace tmprof::tiering {

Khugepaged::Khugepaged(sim::System& system, const KhugepagedConfig& config)
    : system_(system), config_(config) {
  TMPROF_EXPECTS(config.min_populated > 0.0 && config.min_populated <= 1.0);
  TMPROF_EXPECTS(config.min_accessed >= 0.0 && config.min_accessed <= 1.0);
}

CollapseStats Khugepaged::scan_and_collapse() {
  CollapseStats stats;
  for (sim::Process* proc : system_.processes()) {
    // Group 4 KiB mappings by their covering 2 MiB-aligned range.
    std::map<mem::VirtAddr, std::uint32_t> populated;
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize size, mem::Pte&) {
          if (size != mem::PageSize::k4K) return;
          populated[mem::page_base(page_va, mem::PageSize::k2M)] += 1;
        });
    for (const auto& [range_base, count] : populated) {
      ++stats.ranges_scanned;
      if (static_cast<double>(count) <
          config_.min_populated * static_cast<double>(mem::kPagesPerHuge)) {
        ++stats.skipped_sparse;
        continue;
      }
      collapse_range(*proc, range_base, stats);
    }
  }
  system_.advance_time(stats.cost_ns);
  return stats;
}

bool Khugepaged::collapse_range(sim::Process& proc,
                                mem::VirtAddr range_base,
                                CollapseStats& stats) {
  mem::PageTable& table = proc.page_table();
  // Gather the range's PTEs; count A bits and per-tier frames.
  std::vector<std::pair<mem::VirtAddr, mem::Pfn>> pages;
  pages.reserve(mem::kPagesPerHuge);
  std::uint64_t accessed = 0;
  std::uint64_t tier0 = 0;
  for (std::uint64_t i = 0; i < mem::kPagesPerHuge; ++i) {
    const mem::VirtAddr va = range_base + i * mem::kPageSize;
    const mem::PteRef ref = table.resolve(va);
    if (!ref || ref.size != mem::PageSize::k4K) return false;  // raced
    if (ref.pte->poisoned()) return false;  // profiler owns this page now
    accessed += ref.pte->accessed() ? 1U : 0U;
    tier0 += system_.phys().tier_of(ref.pte->pfn()) == 0 ? 1U : 0U;
    pages.emplace_back(va, ref.pte->pfn());
  }
  if (static_cast<double>(accessed) <
      config_.min_accessed * static_cast<double>(pages.size())) {
    ++stats.skipped_cold;
    return false;
  }
  // Allocate the huge frame where the majority of the small frames live.
  const mem::TierId target =
      tier0 * 2 >= mem::kPagesPerHuge ? mem::TierId{0} : mem::TierId{1};
  const auto huge = system_.phys().alloc(target, proc.pid(), range_base,
                                         mem::PageSize::k2M);
  if (!huge) {
    ++stats.failed_alloc;
    return false;
  }
  // Unmap the small pages (copy modeled by collapse_cost), free their
  // frames, install the huge mapping, and shoot down stale translations.
  for (const auto& [va, pfn] : pages) {
    table.unmap(va);
    system_.phys().free(pfn);
    system_.shootdown(proc.pid(), va, mem::PageSize::k4K);
  }
  table.map(range_base, *huge, mem::PageSize::k2M);
  ++stats.collapsed;
  stats.cost_ns += config_.collapse_cost_ns;
  return true;
}

}  // namespace tmprof::tiering
