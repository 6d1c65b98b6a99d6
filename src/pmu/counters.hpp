#pragma once
/// \file counters.hpp
/// Performance Monitoring Unit model. Ground-truth event streams always
/// increment the *true* counters; what software can *observe* goes through
/// a limited set of programmable registers. When more events are programmed
/// than registers exist, the PMU time-multiplexes them: each event is live
/// for a slice and its count is scaled by observed/live time — exactly the
/// verbosity loss Table I lists as the HWPC disadvantage.

#include <array>
#include <cstdint>
#include <vector>

#include "pmu/events.hpp"
#include "telemetry/metrics.hpp"
#include "util/cache_line.hpp"
#include "util/time.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::pmu {

/// One core's PMU. Written on every simulated op by the core's shard, so
/// each PmuCore starts its own host cache line.
class alignas(util::kCacheLine) PmuCore {
 public:
  /// \param programmable_registers  simultaneously countable events
  ///        (6 on the paper's Zen 2 part).
  explicit PmuCore(std::uint32_t programmable_registers = 6);

  /// Hardware side: record `n` occurrences of `e` at sim time `now`.
  void record(Event e, util::SimNs now, std::uint64_t n = 1) {
    tick(now);
    at(true_, e) += n;
    const std::uint8_t slot = slot_[static_cast<std::size_t>(e)];
    if (slot != kNoSlot && programmed_[slot].live) programmed_[slot].raw += n;
  }

  /// Software side: program the set of events to observe. Re-programming
  /// resets observation state but not the true counts.
  void program(std::vector<Event> events);

  /// Advance the multiplexing rotation to `now`. Called by the system clock;
  /// harmless to call often.
  void tick(util::SimNs now) {
    if (now < last_now_) return;  // out-of-order hook; ignore
    last_now_ = now;
    if (!multiplexing()) return;
    while (now - slice_start_ >= kSliceNs) rotate(slice_start_ + kSliceNs);
  }

  /// Observed (possibly multiplex-scaled) estimate of an event's count.
  /// Events that were never programmed read as 0 — software is blind to
  /// them, however large their true count.
  [[nodiscard]] std::uint64_t read(Event e) const;

  /// Ground truth, for tests/oracles only (real software has no such MSR).
  [[nodiscard]] std::uint64_t truth(Event e) const noexcept {
    return at(true_, e);
  }

  [[nodiscard]] bool multiplexing() const noexcept {
    return programmed_.size() > registers_;
  }
  [[nodiscard]] std::uint32_t registers() const noexcept { return registers_; }

  /// Length of one multiplexing slice.
  static constexpr util::SimNs kSliceNs = 4 * util::kMillisecond;

  /// Checkpoint hooks: true counters, programmed set and multiplexing
  /// rotation state all round-trip (util/ckpt.hpp).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  struct Observation {
    Event event = Event::RetiredUops;
    std::uint64_t raw = 0;          ///< occurrences seen while live
    util::SimNs live_ns = 0;        ///< total time this event was counting
    bool live = false;
  };

  /// Slot-table entry of an event that is not programmed.
  static constexpr std::uint8_t kNoSlot = 0xff;

  void rotate(util::SimNs now);
  /// Rebuild `slot_` from `programmed_`; throws CkptError("pmu") if an
  /// event is programmed twice (a checkpoint can claim that; program()
  /// refuses it up front).
  void index_slots();

  std::uint32_t registers_;
  EventCounts true_{};
  std::vector<Observation> programmed_;
  /// Event → index into `programmed_` (kNoSlot if not programmed), so
  /// record() finds an event's observation without a search.
  std::array<std::uint8_t, kEventCount> slot_;
  std::size_t rotation_head_ = 0;   ///< first live observation index
  util::SimNs slice_start_ = 0;
  util::SimNs observe_start_ = 0;   ///< when program() was last called
  util::SimNs last_now_ = 0;
};

/// System-wide PMU: one PmuCore per core plus convenience aggregation.
class Pmu {
 public:
  explicit Pmu(std::uint32_t cores, std::uint32_t registers_per_core = 6);

  [[nodiscard]] PmuCore& core(std::uint32_t idx);
  [[nodiscard]] std::uint32_t cores() const noexcept {
    return static_cast<std::uint32_t>(cores_.size());
  }

  void program_all(const std::vector<Event>& events);
  void tick_all(util::SimNs now);

  /// Sum of observed counts across cores. Each call models one software
  /// MSR-read sweep and is counted in telemetry (`pmu_reads_total`).
  [[nodiscard]] std::uint64_t read_total(Event e) const;
  /// Sum of true counts across cores (oracle view; not a software read).
  [[nodiscard]] std::uint64_t truth_total(Event e) const;

  /// Attach telemetry counters (null detaches; docs/OBSERVABILITY.md).
  void set_telemetry_counter(telemetry::Counter reads) noexcept {
    reads_ = reads;
  }

  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  std::vector<PmuCore> cores_;
  telemetry::Counter reads_;
};
static_assert(alignof(PmuCore) == util::kCacheLine);

}  // namespace tmprof::pmu
