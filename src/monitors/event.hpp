#pragma once
/// \file event.hpp
/// Microarchitectural event types that hardware monitors observe, and the
/// observer interface the access engine publishes them through. These model
/// the signals silicon exposes (retirement stream, load/store completion,
/// D-bit transitions) — a monitor sees nothing else.

#include "util/ckpt.hpp"
#include <cstdint>

#include "mem/addr.hpp"
#include "mem/cache.hpp"
#include "mem/tlb.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// One completed memory micro-op as visible to tagging hardware.
struct MemOpEvent {
  util::SimNs time = 0;
  std::uint32_t core = 0;
  mem::Pid pid = 0;
  std::uint64_t ip = 0;        ///< synthetic instruction pointer
  mem::VirtAddr vaddr = 0;
  mem::PhysAddr paddr = 0;
  bool is_store = false;
  mem::DataSource source = mem::DataSource::L1;
  mem::TlbHit tlb = mem::TlbHit::L1;
  mem::PageSize page_size = mem::PageSize::k4K;
};

/// Hardware-event observer. The engine invokes these inline with execution;
/// a monitor must therefore be cheap on the common path (that constraint is
/// the whole subject of the paper).
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// `uops` micro-ops retired on `core` (includes the memory op's uop).
  virtual void on_retire(std::uint32_t core, std::uint64_t uops,
                         util::SimNs now) {
    (void)core; (void)uops; (void)now;
  }

  /// A memory micro-op completed.
  virtual void on_mem_op(const MemOpEvent& event) { (void)event; }

  /// A D bit transitioned 0 → 1 for the page holding `event.paddr`
  /// (the hook Page-Modification Logging attaches to).
  virtual void on_dirty_set(const MemOpEvent& event) { (void)event; }

  // --- sharded-engine protocol ------------------------------------------
  /// The sharded access engine replays each simulated core on its own
  /// thread. Before a parallel step it asks every observer for a per-core
  /// sink: return an observer whose callbacks are safe to invoke from
  /// `core`'s worker thread (typically `this`, if all mutable state is
  /// per-core), or nullptr (the default) to have the engine buffer that
  /// core's events and replay them on the main thread at the epoch
  /// barrier, in ascending core order.
  virtual AccessObserver* shard_sink(std::uint32_t core) {
    (void)core;
    return nullptr;
  }

  /// Epoch-barrier hook, called on the main thread after all shards have
  /// finished (observers are merged in registration order). Implementations
  /// fold per-core state into their global view in ascending core order so
  /// results are independent of the worker-thread count.
  virtual void merge_shards() {}
};

/// A decoded trace sample, common to the IBS and PEBS models. Field set
/// follows Section III-B1: timestamp, CPU, PID, IP, virtual and physical
/// data address, access type, and cache-miss status.
struct TraceSample {
  util::SimNs time = 0;
  std::uint32_t core = 0;
  mem::Pid pid = 0;
  std::uint64_t ip = 0;
  mem::VirtAddr vaddr = 0;
  mem::PhysAddr paddr = 0;
  bool is_store = false;
  mem::DataSource source = mem::DataSource::L1;
  bool tlb_miss = false;
};

/// Checkpoint round-trip for buffered samples (util/ckpt.hpp).
inline void save_sample(util::ckpt::Writer& w, const TraceSample& s) {
  w.put_u64(s.time);
  w.put_u32(s.core);
  w.put_u64(s.pid);
  w.put_u64(s.ip);
  w.put_u64(s.vaddr);
  w.put_u64(s.paddr);
  w.put_bool(s.is_store);
  w.put_u8(static_cast<std::uint8_t>(s.source));
  w.put_bool(s.tlb_miss);
}

/// Encoded size of one sample.
inline constexpr std::size_t kSampleBytes = 47;

inline TraceSample load_sample(util::ckpt::Reader& r) {
  TraceSample s;
  s.time = r.get_u64();
  s.core = r.get_u32();
  s.pid = static_cast<mem::Pid>(r.get_u64());
  s.ip = r.get_u64();
  s.vaddr = r.get_u64();
  s.paddr = r.get_u64();
  s.is_store = r.get_bool();
  s.source = static_cast<mem::DataSource>(r.get_u8());
  s.tlb_miss = r.get_bool();
  return s;
}

}  // namespace tmprof::monitors
