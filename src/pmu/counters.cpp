#include "pmu/counters.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::pmu {

PmuCore::PmuCore(std::uint32_t programmable_registers)
    : registers_(programmable_registers) {
  TMPROF_EXPECTS(programmable_registers >= 1);
  slot_.fill(kNoSlot);
}

void PmuCore::program(std::vector<Event> events) {
  programmed_.clear();
  programmed_.reserve(events.size());
  slot_.fill(kNoSlot);
  for (Event e : events) {
    // No duplicate programming.
    TMPROF_EXPECTS(slot_[static_cast<std::size_t>(e)] == kNoSlot);
    slot_[static_cast<std::size_t>(e)] =
        static_cast<std::uint8_t>(programmed_.size());
    Observation obs;
    obs.event = e;
    programmed_.push_back(obs);
  }
  rotation_head_ = 0;
  slice_start_ = last_now_;
  observe_start_ = last_now_;
  const std::size_t live_n =
      programmed_.size() < registers_ ? programmed_.size() : registers_;
  for (std::size_t i = 0; i < live_n; ++i) programmed_[i].live = true;
}

void PmuCore::index_slots() {
  slot_.fill(kNoSlot);
  for (std::size_t i = 0; i < programmed_.size(); ++i) {
    const auto e = static_cast<std::size_t>(programmed_[i].event);
    if (slot_[e] != kNoSlot) {
      throw util::ckpt::CkptError(
          "pmu", "event " + std::to_string(e) + " programmed twice");
    }
    slot_[e] = static_cast<std::uint8_t>(i);
  }
}

void PmuCore::rotate(util::SimNs slice_end) {
  // Close the current slice: credit live time, advance the head.
  const util::SimNs lived = slice_end - slice_start_;
  std::size_t live_count = 0;
  for (auto& obs : programmed_) {
    if (obs.live) {
      obs.live_ns += lived;
      obs.live = false;
      ++live_count;
    }
  }
  TMPROF_ASSERT(live_count <= registers_);
  rotation_head_ = (rotation_head_ + registers_) % programmed_.size();
  for (std::size_t i = 0; i < registers_ && i < programmed_.size(); ++i) {
    programmed_[(rotation_head_ + i) % programmed_.size()].live = true;
  }
  slice_start_ = slice_end;
}

std::uint64_t PmuCore::read(Event e) const {
  const std::uint8_t slot = slot_[static_cast<std::size_t>(e)];
  if (slot == kNoSlot) return 0;
  const Observation* obs = &programmed_[slot];
  if (!multiplexing()) return obs->raw;
  // Scale by the fraction of wall time the event was actually counting.
  util::SimNs live = obs->live_ns;
  if (obs->live) live += last_now_ - slice_start_;
  const util::SimNs total = last_now_ - observe_start_;
  if (live == 0 || total == 0) return obs->raw;
  const double scale = static_cast<double>(total) / static_cast<double>(live);
  return static_cast<std::uint64_t>(static_cast<double>(obs->raw) * scale);
}

Pmu::Pmu(std::uint32_t cores, std::uint32_t registers_per_core) {
  TMPROF_EXPECTS(cores >= 1);
  cores_.reserve(cores);
  for (std::uint32_t i = 0; i < cores; ++i) {
    cores_.emplace_back(registers_per_core);
  }
}

PmuCore& Pmu::core(std::uint32_t idx) {
  TMPROF_EXPECTS(idx < cores_.size());
  return cores_[idx];
}

void Pmu::program_all(const std::vector<Event>& events) {
  for (auto& core : cores_) core.program(events);
}

void Pmu::tick_all(util::SimNs now) {
  for (auto& core : cores_) core.tick(now);
}

std::uint64_t Pmu::read_total(Event e) const {
  reads_.inc();
  std::uint64_t sum = 0;
  for (const auto& core : cores_) sum += core.read(e);
  return sum;
}

std::uint64_t Pmu::truth_total(Event e) const {
  std::uint64_t sum = 0;
  for (const auto& core : cores_) sum += core.truth(e);
  return sum;
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void PmuCore::save_state(util::ckpt::Writer& w) const {
  for (const std::uint64_t count : true_) w.put_u64(count);
  w.put_u64(programmed_.size());
  for (const Observation& obs : programmed_) {
    w.put_u8(static_cast<std::uint8_t>(obs.event));
    w.put_u64(obs.raw);
    w.put_u64(obs.live_ns);
    w.put_bool(obs.live);
  }
  w.put_u64(rotation_head_);
  w.put_u64(slice_start_);
  w.put_u64(observe_start_);
  w.put_u64(last_now_);
}

void PmuCore::load_state(util::ckpt::Reader& r) {
  for (std::uint64_t& count : true_) count = r.get_u64();
  programmed_.resize(r.get_count(18));  // event, raw, live_ns, live
  for (Observation& obs : programmed_) {
    const std::uint8_t e = r.get_u8();
    if (e >= kEventCount) {
      throw util::ckpt::CkptError("pmu", "unknown event id " +
                                             std::to_string(e));
    }
    obs.event = static_cast<Event>(e);
    obs.raw = r.get_u64();
    obs.live_ns = r.get_u64();
    obs.live = r.get_bool();
  }
  rotation_head_ = r.get_u64();
  slice_start_ = r.get_u64();
  observe_start_ = r.get_u64();
  last_now_ = r.get_u64();
  index_slots();
}

void Pmu::save_state(util::ckpt::Writer& w) const {
  w.put_u32(static_cast<std::uint32_t>(cores_.size()));
  for (const PmuCore& core : cores_) core.save_state(w);
}

void Pmu::load_state(util::ckpt::Reader& r) {
  const std::uint32_t n = r.get_u32();
  if (n != cores_.size()) {
    throw util::ckpt::CkptError("pmu", "core count mismatch: checkpoint has " +
                                           std::to_string(n));
  }
  for (PmuCore& core : cores_) core.load_state(r);
}

}  // namespace tmprof::pmu
