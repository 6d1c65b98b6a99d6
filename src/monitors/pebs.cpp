#include "monitors/pebs.hpp"

#include "util/ckpt.hpp"

#include "util/assert.hpp"

namespace tmprof::monitors {

PebsMonitor::PebsMonitor(const PebsConfig& config, std::uint32_t cores)
    : config_(config), lanes_(cores) {
  TMPROF_EXPECTS(config.sample_after >= 1);
  TMPROF_EXPECTS(config.buffer_capacity >= 1);
  TMPROF_EXPECTS(cores >= 1);
  buffer_.reserve(config.buffer_capacity);
}

void PebsMonitor::enable_sharded() {
  if (sharded_) return;
  sharded_ = true;
  for (CoreLane& lane : lanes_) lane.buffer.reserve(config_.buffer_capacity);
}

bool PebsMonitor::qualifies(const MemOpEvent& event) const noexcept {
  switch (config_.event) {
    case PebsEvent::LlcMiss:
      return mem::is_memory(event.source);
    case PebsEvent::LlcAccess:
      return event.source == mem::DataSource::LLC ||
             mem::is_memory(event.source);
    case PebsEvent::TlbWalk:
      return event.tlb == mem::TlbHit::Miss;
    case PebsEvent::AllLoads:
      return !event.is_store;
  }
  return false;
}

void PebsMonitor::on_mem_op(const MemOpEvent& event) {
  if (!qualifies(event)) return;
  TMPROF_ASSERT(event.core < lanes_.size());
  CoreLane& lane = lanes_[event.core];
  if (sharded_) {
    ++lane.events;
  } else {
    ++events_seen_;
  }
  if (++lane.counter < config_.sample_after) return;
  lane.counter = 0;
  TraceSample sample;
  sample.time = event.time;
  sample.core = event.core;
  sample.pid = event.pid;
  sample.ip = event.ip;
  sample.vaddr = event.vaddr;
  sample.paddr = event.paddr;
  sample.is_store = event.is_store;
  sample.source = event.source;
  sample.tlb_miss = event.tlb == mem::TlbHit::Miss;
  if (sharded_) {
    ++lane.samples;
    lane.buffer.push_back(sample);
    if (lane.buffer.size() % config_.buffer_capacity == 0) ++lane.interrupts;
    return;
  }
  buffer_.push_back(sample);
  ++samples_taken_;
  if (buffer_.size() >= config_.buffer_capacity) {
    ++interrupts_;
    drain();
  }
}

void PebsMonitor::drain() {
  if (sharded_) {
    for (CoreLane& lane : lanes_) {
      if (lane.buffer.empty()) continue;
      if (drain_) drain_(std::span<const TraceSample>(lane.buffer));
      lane.buffer.clear();
    }
    return;
  }
  if (buffer_.empty()) return;
  if (drain_) drain_(std::span<const TraceSample>(buffer_));
  buffer_.clear();
}

std::uint64_t PebsMonitor::samples_taken() const noexcept {
  std::uint64_t total = samples_taken_;
  for (const CoreLane& lane : lanes_) total += lane.samples;
  return total;
}

std::uint64_t PebsMonitor::events_seen() const noexcept {
  std::uint64_t total = events_seen_;
  for (const CoreLane& lane : lanes_) total += lane.events;
  return total;
}

std::uint64_t PebsMonitor::interrupts() const noexcept {
  std::uint64_t total = interrupts_;
  for (const CoreLane& lane : lanes_) total += lane.interrupts;
  return total;
}

util::SimNs PebsMonitor::overhead_ns() const noexcept {
  return samples_taken() * config_.cost_per_record_ns +
         interrupts() * config_.cost_per_interrupt_ns;
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void PebsMonitor::save_state(util::ckpt::Writer& w) const {
  w.put_u32(static_cast<std::uint32_t>(lanes_.size()));
  for (const CoreLane& lane : lanes_) w.put_u64(lane.counter);
  w.put_u64(buffer_.size());
  for (const TraceSample& s : buffer_) save_sample(w, s);
  w.put_u64(samples_taken_);
  w.put_u64(events_seen_);
  w.put_u64(interrupts_);
  w.put_bool(sharded_);
  // The sharded-mode lane fields follow only in sharded mode.
  w.put_u32(sharded_ ? static_cast<std::uint32_t>(lanes_.size()) : 0);
  if (sharded_) {
    for (const CoreLane& lane : lanes_) {
      w.put_u64(lane.buffer.size());
      for (const TraceSample& s : lane.buffer) save_sample(w, s);
      w.put_u64(lane.samples);
      w.put_u64(lane.events);
      w.put_u64(lane.interrupts);
    }
  }
  // Retired streaming-transport flag, kept so the format is unchanged.
  w.put_bool(false);
}

void PebsMonitor::load_state(util::ckpt::Reader& r) {
  const std::uint32_t cores = r.get_u32();
  if (cores != lanes_.size()) {
    throw util::ckpt::CkptError("pebs", "core count mismatch");
  }
  for (CoreLane& lane : lanes_) lane.counter = r.get_u64();
  buffer_.resize(r.get_count(kSampleBytes));
  for (TraceSample& s : buffer_) s = load_sample(r);
  samples_taken_ = r.get_u64();
  events_seen_ = r.get_u64();
  interrupts_ = r.get_u64();
  const bool sharded = r.get_bool();
  if (sharded && !sharded_) enable_sharded();
  if (sharded != sharded_) {
    throw util::ckpt::CkptError("pebs", "sharded-mode mismatch");
  }
  const std::uint32_t lanes = r.get_u32();
  if (lanes != (sharded_ ? lanes_.size() : 0)) {
    throw util::ckpt::CkptError("pebs", "lane count mismatch");
  }
  if (sharded_) {
    for (CoreLane& lane : lanes_) {
      lane.buffer.resize(r.get_count(kSampleBytes));
      for (TraceSample& s : lane.buffer) s = load_sample(r);
      lane.samples = r.get_u64();
      lane.events = r.get_u64();
      lane.interrupts = r.get_u64();
    }
  }
  if (r.get_bool()) {
    // Written by a build with the streaming transport, which no longer
    // exists; its ring records cannot be restored.
    throw util::ckpt::CkptError("pebs", "streaming-mode mismatch");
  }
}

}  // namespace tmprof::monitors
