#pragma once
/// \file ibs.hpp
/// AMD Instruction Based Sampling model (op sampling). Hardware tags every
/// Nth retired micro-op; if the tagged uop is a memory op, a record with the
/// load/store addresses and data source is produced. Tags landing on
/// non-memory uops are lost samples, exactly as on real IBS.
///
/// Sampling-rate naming matches the paper: the *default* rate is one tag
/// per 262,144 uops; "4x" and "8x" divide that period by 4 and 8.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "monitors/event.hpp"
#include "util/cache_line.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// Tuning knobs of the IBS driver (Section III-B1).
struct IbsConfig {
  /// Tag one micro-op out of this many. Paper default: 262144.
  std::uint64_t sample_period = 262144;
  /// Randomize the low bits of each countdown reload (hardware does this to
  /// avoid lock-step with loops).
  bool randomize = true;
  /// Ring-buffer capacity in records; a full buffer raises an interrupt.
  std::uint32_t buffer_capacity = 4096;
  /// Cost model: handler work per drained record and per interrupt. Defaults
  /// chosen so the paper's <5% overhead at 4x reproduces.
  util::SimNs cost_per_record_ns = 400;
  util::SimNs cost_per_interrupt_ns = 4000;

  [[nodiscard]] static IbsConfig with_period(std::uint64_t period) {
    IbsConfig cfg;
    cfg.sample_period = period;
    return cfg;
  }
  [[nodiscard]] static IbsConfig paper_default() { return with_period(262144); }
  [[nodiscard]] static IbsConfig paper_4x() { return with_period(262144 / 4); }
  [[nodiscard]] static IbsConfig paper_8x() { return with_period(262144 / 8); }
};

/// Per-system IBS monitor (one tagging counter per core).
class IbsMonitor final : public AccessObserver {
 public:
  using DrainFn = std::function<void(std::span<const TraceSample>)>;

  IbsMonitor(const IbsConfig& config, std::uint32_t cores,
             std::uint64_t seed = 0x1b5);

  /// Install the buffer-full interrupt handler (the TMP driver's drain).
  void set_drain(DrainFn drain) { drain_ = std::move(drain); }

  /// Switch to sharded operation: per-core tag RNG streams, sample buffers
  /// and statistics, so each simulated core's callbacks may run on its own
  /// worker thread. Buffer-threshold interrupts are still *counted* per
  /// core (the overhead model is unchanged) but the actual drain to the
  /// driver is deferred to the epoch barrier, where buffers empty in
  /// ascending core order. Call before the first event is delivered.
  void enable_sharded();
  [[nodiscard]] bool sharded() const noexcept { return sharded_; }

  void on_retire(std::uint32_t core, std::uint64_t uops,
                 util::SimNs now) override;
  void on_mem_op(const MemOpEvent& event) override;

  AccessObserver* shard_sink(std::uint32_t /*core*/) override {
    return sharded_ ? this : nullptr;
  }
  void merge_shards() override { drain(); }

  /// Explicitly drain buffered records (periodic poll path). In sharded
  /// mode, drains every core's buffer in ascending core order.
  void drain();

  [[nodiscard]] const IbsConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t samples_taken() const noexcept;
  [[nodiscard]] std::uint64_t tags_lost() const noexcept;
  [[nodiscard]] std::uint64_t interrupts() const noexcept;
  /// Modeled software overhead of collection so far.
  [[nodiscard]] util::SimNs overhead_ns() const noexcept;

  /// Checkpoint hooks (util/ckpt.hpp).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  /// Per-core state. The tag countdown and armed flag are written on every
  /// retired op, and in sharded mode the core's worker thread owns the
  /// whole lane, so each lane starts its own host cache line and no two
  /// cores ever write one line.
  struct alignas(util::kCacheLine) CoreLane {
    std::int64_t countdown = 0;
    bool tag_armed = false;  ///< tag waiting for this core's next mem op
    // Sharded mode only:
    util::Rng rng{0};
    std::vector<TraceSample> buffer;
    std::uint64_t samples = 0;
    std::uint64_t tags_lost = 0;
    std::uint64_t interrupts = 0;
  };
  static_assert(alignof(CoreLane) == util::kCacheLine);

  void reload(std::uint32_t core);

  IbsConfig config_;
  DrainFn drain_;
  util::Rng rng_;
  std::uint64_t seed_;
  std::vector<TraceSample> buffer_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t tags_lost_ = 0;
  std::uint64_t interrupts_ = 0;
  bool sharded_ = false;
  std::vector<CoreLane> lanes_;  ///< one per core
};

}  // namespace tmprof::monitors
