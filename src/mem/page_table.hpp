#pragma once
/// \file page_table.hpp
/// 4-level radix page table (PML4 → PDPT → PD → PT), one per process.
/// Leaves live at the PT level (4 KiB pages) or at the PD level (2 MiB huge
/// pages, PS bit set). The table exposes an `mm_walk`-style in-order visitor
/// used by the A-bit scanner.

#include <array>
#include <cstdint>
#include <memory>

#include "mem/addr.hpp"
#include "mem/pte.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::mem {

/// Result of resolving a virtual address to its leaf PTE.
struct PteRef {
  Pte* pte = nullptr;          ///< nullptr when the address is unmapped
  PageSize size = PageSize::k4K;
  VirtAddr page_va = 0;        ///< base virtual address of the mapping

  [[nodiscard]] explicit operator bool() const noexcept {
    return pte != nullptr;
  }
};

/// Per-process radix page table.
///
/// Invariant maintained with the TLB: any call that *changes a translation*
/// (map/unmap/remap) must be followed by a TLB shootdown by the caller;
/// calls that only change A/D/poison bits need not be (that is the paper's
/// no-shootdown optimization and its staleness window).
class PageTable {
 public:
  PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  PageTable(PageTable&&) noexcept = default;
  PageTable& operator=(PageTable&&) noexcept = default;
  ~PageTable() = default;

  /// Map a page. `vaddr` must be aligned to the page size; the range must
  /// not already be mapped (at any size).
  void map(VirtAddr vaddr, Pfn pfn, PageSize size, bool writable = true);

  /// Remove a mapping; returns the old PTE. The page must be mapped at
  /// exactly this base address. Radix nodes left empty are freed (as
  /// kernels free empty page-table pages), so a later huge mapping can
  /// cover a range whose 4 KiB mappings were all removed.
  Pte unmap(VirtAddr vaddr);

  /// Resolve to the leaf PTE covering `vaddr` (any alignment), or a null ref.
  [[nodiscard]] PteRef resolve(VirtAddr vaddr);

  /// In-order visit of every present leaf PTE (the `mm_walk` analog):
  /// `visit(page_va, size, pte)` is a plain callable invoked directly, so
  /// the per-leaf call inlines on hot scan paths (the A-bit scanner visits
  /// every leaf every epoch). The callback may mutate flag bits but must
  /// not remap.
  template <typename Visit>
  void walk(Visit&& visit) {
    walk_node(*root_, 0, 0, visit);
  }

  /// Checkpoint hooks: leaves are saved as (page_va, size, raw bits) and
  /// re-mapped on load, which rebuilds the identical minimal radix (unmap
  /// prunes empty nodes, so live structure is always minimal).
  void save_state(util::ckpt::Writer& w);
  void load_state(util::ckpt::Reader& r);

  /// Number of radix nodes currently allocated (cost model for walks).
  [[nodiscard]] std::uint64_t node_count() const noexcept { return nodes_; }
  /// Present leaf counts by size.
  [[nodiscard]] std::uint64_t mapped_4k() const noexcept { return mapped_4k_; }
  [[nodiscard]] std::uint64_t mapped_2m() const noexcept { return mapped_2m_; }
  /// Total mapped bytes.
  [[nodiscard]] std::uint64_t mapped_bytes() const noexcept {
    return mapped_4k_ * kPageSize + mapped_2m_ * kHugePageSize;
  }

 private:
  static constexpr unsigned kRadixBits = 9;
  static constexpr std::size_t kFanout = 1ULL << kRadixBits;
  // Shifts of the index fields for levels 0 (PML4) .. 3 (PT).
  static constexpr unsigned kLevelShift[4] = {39, 30, 21, 12};

  struct Node {
    std::array<Pte, kFanout> entries{};
    std::array<std::unique_ptr<Node>, kFanout> children{};
  };

  static constexpr std::size_t index_at(VirtAddr vaddr, unsigned level) {
    return (vaddr >> kLevelShift[level]) & (kFanout - 1);
  }

  Node* descend(VirtAddr vaddr, unsigned target_level, bool create);

  template <typename Visit>
  void walk_node(Node& node, unsigned level, VirtAddr base, Visit& visit) {
    for (std::size_t idx = 0; idx < kFanout; ++idx) {
      const VirtAddr va =
          base + (static_cast<VirtAddr>(idx) << kLevelShift[level]);
      Pte& entry = node.entries[idx];
      if (entry.present()) {
        visit(va, level == 2 ? PageSize::k2M : PageSize::k4K, entry);
      } else if (level < 3 && node.children[idx]) {
        walk_node(*node.children[idx], level + 1, va, visit);
      }
    }
  }
  /// Clears the leaf covering `vaddr` under `node`; returns whether `node`
  /// is now empty (no present entries, no children) and prunes below.
  bool unmap_rec(Node& node, unsigned level, VirtAddr vaddr, Pte& removed);

  std::unique_ptr<Node> root_;
  std::uint64_t nodes_ = 1;
  std::uint64_t mapped_4k_ = 0;
  std::uint64_t mapped_2m_ = 0;
};

}  // namespace tmprof::mem
