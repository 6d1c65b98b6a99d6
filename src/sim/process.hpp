#pragma once
/// \file process.hpp
/// A simulated process: a PID, a private page table, a workload generator,
/// and resource accounting (CPU share, RSS) that the TMP daemon's PID
/// filter consumes.

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "mem/addr.hpp"
#include "mem/page_table.hpp"
#include "mem/tiers.hpp"
#include "util/cache_line.hpp"
#include "workloads/workload.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::sim {

/// Its accounting counters are written on every op by the shard of the
/// core the process runs on, so each Process starts its own host cache
/// line.
class alignas(util::kCacheLine) Process {
 public:
  /// \param weight  scheduling weight (relative share of issued ops);
  ///                lets experiments create low-CPU background processes
  ///                that the daemon's filter should skip.
  Process(mem::Pid pid, workloads::WorkloadPtr workload, double weight = 1.0);

  [[nodiscard]] mem::Pid pid() const noexcept { return pid_; }
  [[nodiscard]] mem::PageTable& page_table() noexcept { return table_; }
  [[nodiscard]] const mem::PageTable& page_table() const noexcept {
    return table_;
  }
  [[nodiscard]] workloads::Workload& workload() noexcept { return *workload_; }
  [[nodiscard]] double weight() const noexcept { return weight_; }

  /// Base of this process's heap mapping. Every process uses the same base
  /// (private address spaces), which also exercises PID-tagged TLBs.
  [[nodiscard]] mem::VirtAddr heap_base() const noexcept {
    return 0x5500000000ULL;
  }
  [[nodiscard]] mem::VirtAddr vaddr_of(std::uint64_t offset) const noexcept {
    return heap_base() + offset;
  }

  // --- resource accounting -------------------------------------------------
  void charge_ops(std::uint64_t ops) noexcept { ops_issued_ += ops; }
  void note_mapped_page(mem::PageSize size) noexcept {
    rss_pages_ += mem::pages_in(size);
  }
  /// A demand line fill reached memory tier `tier` on this process's
  /// behalf (memory-bandwidth monitoring + per-process hitrate input).
  /// Per-tier tallies use a fixed mem::kMaxTiers-wide array so the access
  /// hot path never allocates, whatever the chain depth.
  void note_mem_fill(mem::TierId tier) noexcept {
    ++mem_fills_;
    ++tier_fills_[tier < mem::kMaxTiers ? tier : mem::kMaxTiers - 1];
  }
  [[nodiscard]] std::uint64_t ops_issued() const noexcept {
    return ops_issued_;
  }
  [[nodiscard]] std::uint64_t rss_pages() const noexcept { return rss_pages_; }
  [[nodiscard]] std::uint64_t mem_fills() const noexcept { return mem_fills_; }
  [[nodiscard]] std::uint64_t tier0_fills() const noexcept {
    return tier_fills_[0];
  }
  /// Fills served by memory tier `tier` (0 for tiers past the chain).
  [[nodiscard]] std::uint64_t tier_fills(mem::TierId tier) const noexcept {
    return tier < mem::kMaxTiers ? tier_fills_[tier] : 0;
  }
  /// Fraction of this process's memory accesses served by the fast tier.
  [[nodiscard]] double tier0_hitrate() const noexcept {
    return mem_fills_ == 0 ? 1.0
                           : static_cast<double>(tier_fills_[0]) /
                                 static_cast<double>(mem_fills_);
  }

  /// Checkpoint hooks (util/ckpt.hpp): page table, workload generator and
  /// accounting counters. Identity (pid, weight) comes from reconstruction.
  void save_state(util::ckpt::Writer& w);
  void load_state(util::ckpt::Reader& r);

 private:
  mem::Pid pid_;
  workloads::WorkloadPtr workload_;
  double weight_;
  mem::PageTable table_;
  std::uint64_t ops_issued_ = 0;
  std::uint64_t rss_pages_ = 0;
  std::uint64_t mem_fills_ = 0;
  std::array<std::uint64_t, mem::kMaxTiers> tier_fills_{};
};
static_assert(alignof(Process) == util::kCacheLine);

}  // namespace tmprof::sim
