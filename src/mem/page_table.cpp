#include "mem/page_table.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::mem {

PageTable::PageTable() : root_(std::make_unique<Node>()) {}

PageTable::Node* PageTable::descend(VirtAddr vaddr, unsigned target_level,
                                    bool create) {
  TMPROF_EXPECTS(target_level <= 3);
  Node* node = root_.get();
  for (unsigned level = 0; level < target_level; ++level) {
    const std::size_t idx = index_at(vaddr, level);
    // A present entry at a non-target level would be a conflicting huge leaf.
    TMPROF_ASSERT(!node->entries[idx].present());
    auto& child = node->children[idx];
    if (!child) {
      if (!create) return nullptr;
      child = std::make_unique<Node>();
      ++nodes_;
    }
    node = child.get();
  }
  return node;
}

void PageTable::map(VirtAddr vaddr, Pfn pfn, PageSize size, bool writable) {
  TMPROF_EXPECTS(page_offset(vaddr, size) == 0);
  TMPROF_EXPECTS(vaddr < (1ULL << kVirtAddrBits));
  const unsigned leaf_level = size == PageSize::k4K ? 3U : 2U;
  Node* node = descend(vaddr, leaf_level, /*create=*/true);
  const std::size_t idx = index_at(vaddr, leaf_level);
  Pte& pte = node->entries[idx];
  TMPROF_EXPECTS(!pte.present());
  // A huge leaf may not overlap an existing PT subtree.
  if (size == PageSize::k2M) TMPROF_EXPECTS(!node->children[idx]);
  pte = Pte{};
  pte.set_pfn(pfn);
  pte.set_present(true);
  pte.set_writable(writable);
  pte.set_huge(size == PageSize::k2M);
  if (size == PageSize::k4K) ++mapped_4k_;
  else ++mapped_2m_;
}

Pte PageTable::unmap(VirtAddr vaddr) {
  const PteRef ref = resolve(vaddr);
  TMPROF_EXPECTS(ref && ref.page_va == vaddr);
  if (ref.size == PageSize::k4K) --mapped_4k_;
  else --mapped_2m_;
  Pte removed;
  unmap_rec(*root_, 0, vaddr, removed);
  return removed;
}

bool PageTable::unmap_rec(Node& node, unsigned level, VirtAddr vaddr,
                          Pte& removed) {
  const std::size_t idx = index_at(vaddr, level);
  if (node.entries[idx].present()) {
    removed = node.entries[idx];
    node.entries[idx] = Pte{};
  } else {
    TMPROF_ASSERT(level < 3 && node.children[idx]);
    if (unmap_rec(*node.children[idx], level + 1, vaddr, removed)) {
      node.children[idx].reset();
      --nodes_;
    }
  }
  for (std::size_t i = 0; i < kFanout; ++i) {
    if (node.entries[i].present() || node.children[i]) return false;
  }
  return true;
}

PteRef PageTable::resolve(VirtAddr vaddr) {
  Node* node = root_.get();
  for (unsigned level = 0;; ++level) {
    const std::size_t idx = index_at(vaddr, level);
    Pte& entry = node->entries[idx];
    if (entry.present()) {
      const PageSize size = level == 2 ? PageSize::k2M : PageSize::k4K;
      TMPROF_ASSERT(level == 3 || (level == 2 && entry.huge()));
      return PteRef{&entry, size, page_base(vaddr, size)};
    }
    if (level == 3 || !node->children[idx]) return PteRef{};
    node = node->children[idx].get();
  }
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void PageTable::save_state(util::ckpt::Writer& w) {
  w.put_u64(mapped_4k_ + mapped_2m_);
  walk([&](VirtAddr page_va, PageSize size, Pte& pte) {
    w.put_u64(page_va);
    w.put_u8(static_cast<std::uint8_t>(size));
    w.put_u64(pte.raw());
  });
}

void PageTable::load_state(util::ckpt::Reader& r) {
  root_ = std::make_unique<Node>();
  nodes_ = 1;
  mapped_4k_ = 0;
  mapped_2m_ = 0;
  const std::uint64_t leaves = r.get_u64();
  for (std::uint64_t i = 0; i < leaves; ++i) {
    const VirtAddr page_va = r.get_u64();
    const auto size = static_cast<PageSize>(r.get_u8());
    const std::uint64_t raw = r.get_u64();
    Pte probe;
    probe.set_raw(raw);
    // map() establishes the leaf (and radix path); then the exact saved
    // bits overwrite it so A/D/poison flags survive the round trip.
    map(page_va, probe.pfn(), size, probe.writable());
    const PteRef ref = resolve(page_va);
    TMPROF_ASSERT(ref);
    ref.pte->set_raw(raw);
  }
}

}  // namespace tmprof::mem
