#pragma once
/// \file system.hpp
/// The simulated machine: cores (TLB + private caches), shared LLC, tiered
/// physical memory, PMU, processes, and the access engine that drives
/// workload references through the full translation + cache path while
/// publishing hardware events to registered monitors.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/tiers.hpp"
#include "mem/tlb.hpp"
#include "monitors/badgertrap.hpp"
#include "monitors/event.hpp"
#include "pmu/counters.hpp"
#include "sim/config.hpp"
#include "sim/process.hpp"
#include "telemetry/metrics.hpp"
#include "util/cache_line.hpp"
#include "util/time.hpp"

namespace tmprof::util {
class ThreadPool;
}

namespace tmprof::telemetry {
class Telemetry;
}

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::sim {

/// Resolve a SimConfig into the tier chain the System will construct:
/// `config.tiers` verbatim when non-empty, otherwise the default two-tier
/// chain "tier1-dram" (tier1_frames, 80/80 ns) over "tier2-nvm"
/// (tier2_frames, 300/600 ns read/write). Benches and policies use this
/// to reason about the chain without re-deriving the default.
[[nodiscard]] std::vector<mem::TierSpec> tier_specs(const SimConfig& config);

/// Outcome of one simulated access (returned for tests/instrumentation).
struct AccessResult {
  mem::DataSource source = mem::DataSource::L1;
  mem::TlbHit tlb = mem::TlbHit::L1;
  bool page_fault = false;
  bool protection_fault = false;
  util::SimNs latency_ns = 0;
  mem::PhysAddr paddr = 0;
};

class System {
 public:
  explicit System(const SimConfig& config);

  // --- topology -------------------------------------------------------------
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] mem::PhysMemory& phys() noexcept { return phys_; }
  [[nodiscard]] pmu::Pmu& pmu() noexcept { return pmu_; }
  [[nodiscard]] mem::Tlb& tlb(std::uint32_t core);
  /// The shared last-level cache (legacy engine; with `sharded_engine` the
  /// LLC is sliced per core — use the aggregate accessors below).
  [[nodiscard]] const mem::CacheLevel& llc() const noexcept { return llc_; }
  /// LLC occupancy-monitoring view that works for both engines: resident
  /// lines tagged `owner`, summed over slices in sharded mode.
  [[nodiscard]] std::uint64_t llc_occupancy_lines(std::uint32_t owner) const;
  /// Monitored LLC capacity (sum of slice capacities in sharded mode).
  [[nodiscard]] std::uint64_t llc_size_bytes() const noexcept;
  [[nodiscard]] util::SimNs now() const noexcept { return now_; }

  /// Advance the clock without executing ops (daemon/driver work, stalls).
  void advance_time(util::SimNs delta) noexcept;

  // --- processes ------------------------------------------------------------
  /// Register a process; returns its PID. PIDs start at 1000.
  mem::Pid add_process(workloads::WorkloadPtr workload, double weight = 1.0);
  [[nodiscard]] std::vector<Process*> processes();
  [[nodiscard]] Process& process(mem::Pid pid);

  // --- monitors ---------------------------------------------------------
  void add_observer(monitors::AccessObserver* observer);
  void remove_observer(monitors::AccessObserver* observer);
  /// Attach the BadgerTrap whose poisoned pages this system must fault on.
  void set_badgertrap(monitors::BadgerTrap* trap) { badgertrap_ = trap; }
  /// Generic protection-fault handler, consulted before the BadgerTrap:
  /// returns the latency to charge and must leave a usable translation
  /// (swap-style managers unpoison + remap inside the hook). The access
  /// is re-walked honoring poison after the hook runs.
  using FaultHook =
      std::function<util::SimNs(Process&, mem::VirtAddr, bool is_store)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Attach (or with null, detach) the telemetry sink. Resolves global and
  /// per-core shard handles for the access-path metrics; the shard cells
  /// merge at the step_parallel epoch barrier in ascending core order, so
  /// exported values are identical across engine thread counts and match
  /// the serial engine (docs/OBSERVABILITY.md).
  void set_telemetry(telemetry::Telemetry* telemetry);

  // --- execution --------------------------------------------------------
  /// Execute `ops` memory operations, scheduling processes by weight with
  /// fixed core affinity (pid → core round-robin). Returns sim time spent.
  util::SimNs step(std::uint64_t ops);

  /// Sharded-engine epoch step: every simulated core replays its own
  /// processes' slice of the same `ops` schedule positions against
  /// core-private TLB/L1/L2/LLC-slice/arena/PMU state, then shard results
  /// merge at an epoch barrier in ascending core order. Requires
  /// `config().sharded_engine` and no fault hook (BadgerTrap is fine). If
  /// `pool` is null the shards run inline on the calling thread — results
  /// are bitwise identical either way. Returns sim time spent (max over
  /// shards, since cores run concurrently).
  util::SimNs step_parallel(std::uint64_t ops, util::ThreadPool* pool);

  /// Execute one access for a specific process (tests / custom drivers).
  AccessResult access(Process& proc, mem::VirtAddr vaddr, bool is_store,
                      std::uint32_t ip);

  // --- kernel services --------------------------------------------------
  /// System-wide TLB shootdown for one page; returns IPIs issued.
  std::uint64_t shootdown(mem::Pid pid, mem::VirtAddr page_va,
                          mem::PageSize size);

  /// Migrate the page mapped at (pid, page_va) to `target` tier. Updates
  /// the PTE, frees the old frame, and invalidates stale translations.
  /// Returns false if the target tier has no room.
  bool migrate_page(mem::Pid pid, mem::VirtAddr page_va, mem::TierId target);

  /// Tier used for first-touch allocations (0 = fill fast memory first,
  /// falling back to slower tiers — the paper's first-come baseline).
  void set_first_touch_tier(mem::TierId tier) noexcept {
    first_touch_tier_ = tier;
  }

  // --- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t total_ops() const noexcept { return total_ops_; }

  // --- checkpoint -------------------------------------------------------
  /// Serialize the full machine state (clock, processes incl. page tables
  /// and workload cursors, physical memory, PMU, caches, TLBs). The System
  /// must be *reconstructed* the same way (same config, same add_process
  /// sequence) before load_state overwrites its dynamic state; TLB entries
  /// rebind their PTE pointers against the reloaded page tables.
  void save_state(util::ckpt::Writer& w);
  void load_state(util::ckpt::Reader& r);

  /// Base VA of every process's code region (text segment analog).
  static constexpr mem::VirtAddr kCodeBase = 0x400000;

 private:
  /// One simulated core's private state; its shard writes it on every op,
  /// so each Core starts its own host cache line.
  struct alignas(util::kCacheLine) Core {
    mem::Tlb tlb;
    mem::CacheHierarchy caches;
  };
  static_assert(alignof(Core) == util::kCacheLine);

  /// Everything one access needs that is per-shard in parallel mode: the
  /// serial engine binds it to the global clock and the full observer list,
  /// a shard binds it to its own clock, arena, and resolved sinks.
  struct ExecContext {
    std::uint32_t core_idx = 0;
    Core* core = nullptr;
    pmu::PmuCore* pmu = nullptr;
    util::SimNs now = 0;
    std::uint32_t arena = 0;
    std::uint64_t* total_ops = nullptr;
    /// Observers whose callbacks may run on this shard's thread.
    const std::vector<monitors::AccessObserver*>* direct = nullptr;
    /// Event log for observers without a shard sink (replayed at the
    /// barrier in core order); null on the serial path.
    std::vector<std::pair<monitors::MemOpEvent, bool>>* log = nullptr;
    /// Telemetry cells: global on the serial path, shard-local in parallel
    /// mode (null handles when telemetry is detached — free no-ops).
    telemetry::Counter ops;
    telemetry::HistogramHandle latency;
  };

  void rebuild_schedule();
  Process& handle_page_fault(Process& proc, mem::VirtAddr vaddr,
                             std::uint32_t arena);
  util::SimNs instruction_fetch(Process& proc, std::uint32_t ip,
                                ExecContext& ctx);
  AccessResult access_impl(Process& proc, mem::VirtAddr vaddr, bool is_store,
                           std::uint32_t ip, ExecContext& ctx);

  SimConfig config_;
  mem::PhysMemory phys_;
  pmu::Pmu pmu_;
  mem::CacheLevel llc_;
  /// Per-core LLC slices (sharded engine only; empty otherwise). Slices
  /// keep the total way count and a power-of-two fraction of the sets.
  std::vector<std::unique_ptr<mem::CacheLevel>> llc_slices_;
  std::vector<Core> cores_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<monitors::AccessObserver*> observers_;
  monitors::BadgerTrap* badgertrap_ = nullptr;
  FaultHook fault_hook_;
  mem::TierId first_touch_tier_ = 0;

  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter ops_counter_;
  telemetry::Counter migrations_;
  telemetry::Counter shootdown_ipis_;
  telemetry::HistogramHandle access_latency_;
  std::vector<telemetry::Counter> shard_ops_;
  std::vector<telemetry::HistogramHandle> shard_latency_;

  std::vector<std::uint32_t> schedule_;  ///< weighted process indices
  /// Per core: the ascending schedule positions whose process runs on that
  /// core, so a sharded step walks only its own slots.
  std::vector<std::vector<std::uint32_t>> core_slots_;
  std::size_t schedule_cursor_ = 0;
  util::SimNs now_ = 0;
  std::uint64_t total_ops_ = 0;
  mem::Pid next_pid_ = 1000;
};

}  // namespace tmprof::sim
