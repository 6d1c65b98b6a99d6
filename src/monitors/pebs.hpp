#pragma once
/// \file pebs.hpp
/// Intel Precise Event Based Sampling model. Unlike IBS (which tags the
/// retirement stream), PEBS arms on a chosen *event* — TMP uses LLC misses —
/// and the microcode assist writes a record for every Nth occurrence into a
/// designated memory buffer; crossing the buffer threshold raises a PMI.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mem/cache.hpp"
#include "monitors/event.hpp"
#include "util/cache_line.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// Which event arms the PEBS counter.
enum class PebsEvent : std::uint8_t {
  LlcMiss,    ///< demand access left the LLC (TMP's choice)
  LlcAccess,  ///< any LLC access
  TlbWalk,    ///< hardware page walk performed
  AllLoads,   ///< every retired load
};

struct PebsConfig {
  PebsEvent event = PebsEvent::LlcMiss;
  /// Record one out of this many qualifying events ("sample-after value").
  std::uint64_t sample_after = 1024;
  std::uint32_t buffer_capacity = 4096;
  /// PEBS assist is cheaper per record than an interrupt-per-sample design;
  /// the PMI on buffer threshold is the expensive part.
  util::SimNs cost_per_record_ns = 200;
  util::SimNs cost_per_interrupt_ns = 4000;
};

/// System-wide PEBS monitor (per-core counters, shared buffer model).
class PebsMonitor final : public AccessObserver {
 public:
  using DrainFn = std::function<void(std::span<const TraceSample>)>;

  PebsMonitor(const PebsConfig& config, std::uint32_t cores);

  void set_drain(DrainFn drain) { drain_ = std::move(drain); }

  /// Switch to sharded operation: per-core sample buffers and statistics so
  /// each simulated core's callbacks may run on its own worker thread. PMIs
  /// are counted per core; the actual drain to the driver happens at the
  /// epoch barrier in ascending core order. Call before the first event.
  void enable_sharded();
  [[nodiscard]] bool sharded() const noexcept { return sharded_; }

  void on_mem_op(const MemOpEvent& event) override;

  AccessObserver* shard_sink(std::uint32_t /*core*/) override {
    return sharded_ ? this : nullptr;
  }
  void merge_shards() override { drain(); }

  /// In sharded mode, drains every core's buffer in ascending core order.
  void drain();

  [[nodiscard]] const PebsConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t samples_taken() const noexcept;
  [[nodiscard]] std::uint64_t events_seen() const noexcept;
  [[nodiscard]] std::uint64_t interrupts() const noexcept;
  [[nodiscard]] util::SimNs overhead_ns() const noexcept;

  /// Checkpoint hooks (util/ckpt.hpp).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  /// Per-core state. The qualifying-event counter is written on every
  /// qualifying op, and in sharded mode the core's worker thread owns the
  /// whole lane, so each lane starts its own host cache line.
  struct alignas(util::kCacheLine) CoreLane {
    std::uint64_t counter = 0;  ///< qualifying events since the last sample
    // Sharded mode only:
    std::vector<TraceSample> buffer;
    std::uint64_t samples = 0;
    std::uint64_t events = 0;
    std::uint64_t interrupts = 0;
  };
  static_assert(alignof(CoreLane) == util::kCacheLine);

  [[nodiscard]] bool qualifies(const MemOpEvent& event) const noexcept;

  PebsConfig config_;
  DrainFn drain_;
  std::vector<TraceSample> buffer_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t interrupts_ = 0;
  bool sharded_ = false;
  std::vector<CoreLane> lanes_;  ///< one per core
};

}  // namespace tmprof::monitors
