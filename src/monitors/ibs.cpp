#include "monitors/ibs.hpp"

#include "util/ckpt_io.hpp"

#include "util/assert.hpp"

namespace tmprof::monitors {

IbsMonitor::IbsMonitor(const IbsConfig& config, std::uint32_t cores,
                       std::uint64_t seed)
    : config_(config),
      rng_(seed),
      seed_(seed),
      lanes_(cores) {
  TMPROF_EXPECTS(config.sample_period >= 16);
  TMPROF_EXPECTS(config.buffer_capacity >= 1);
  TMPROF_EXPECTS(cores >= 1);
  buffer_.reserve(config.buffer_capacity);
  for (std::uint32_t c = 0; c < cores; ++c) reload(c);
}

void IbsMonitor::enable_sharded() {
  if (sharded_) return;
  sharded_ = true;
  for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
    // Independent, reproducible per-core tag-randomization streams.
    std::uint64_t mix = seed_ ^ (0x9e3779b97f4a7c15ULL * (c + 1));
    lanes_[c].rng = util::Rng(util::splitmix64(mix));
    lanes_[c].buffer.reserve(config_.buffer_capacity);
    reload(c);  // re-arm the countdown from the core's own stream
  }
}

void IbsMonitor::reload(std::uint32_t core) {
  std::int64_t period = static_cast<std::int64_t>(config_.sample_period);
  if (config_.randomize) {
    // Randomize the low 1/16 of the period, like IbsOpCurCnt randomization.
    util::Rng& rng = sharded_ ? lanes_[core].rng : rng_;
    const std::uint64_t jitter_span = config_.sample_period / 16 + 1;
    period += static_cast<std::int64_t>(rng.below(jitter_span)) -
              static_cast<std::int64_t>(jitter_span / 2);
    if (period < 1) period = 1;
  }
  lanes_[core].countdown = period;
}

void IbsMonitor::on_retire(std::uint32_t core, std::uint64_t uops,
                           util::SimNs now) {
  (void)now;
  TMPROF_ASSERT(core < lanes_.size());
  CoreLane& lane = lanes_[core];
  lane.countdown -= static_cast<std::int64_t>(uops);
  if (lane.countdown > 0) return;
  reload(core);
  std::uint64_t& tags_lost = sharded_ ? lane.tags_lost : tags_lost_;
  if (lane.tag_armed) {
    // Previous tag never matched a memory op before the next fired: lost.
    ++tags_lost;
  }
  // The tagged uop is one of the `uops` just retired. Only one of them is
  // the memory micro-op the upcoming on_mem_op() call describes, so arm the
  // tag with probability 1/uops; otherwise the tag hit a non-memory uop.
  util::Rng& rng = sharded_ ? lane.rng : rng_;
  if (uops <= 1 || rng.below(uops) == 0) {
    lane.tag_armed = true;
  } else {
    ++tags_lost;
  }
}

void IbsMonitor::on_mem_op(const MemOpEvent& event) {
  TMPROF_ASSERT(event.core < lanes_.size());
  CoreLane& lane = lanes_[event.core];
  if (!lane.tag_armed) return;
  lane.tag_armed = false;
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
    // The PMI fires per buffer threshold; the handler cost is charged, but
    // the records stay put until the epoch barrier drains them (the driver
    // store is not shard-safe).
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

void IbsMonitor::drain() {
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

std::uint64_t IbsMonitor::samples_taken() const noexcept {
  std::uint64_t total = samples_taken_;
  for (const CoreLane& lane : lanes_) total += lane.samples;
  return total;
}

std::uint64_t IbsMonitor::tags_lost() const noexcept {
  std::uint64_t total = tags_lost_;
  for (const CoreLane& lane : lanes_) total += lane.tags_lost;
  return total;
}

std::uint64_t IbsMonitor::interrupts() const noexcept {
  std::uint64_t total = interrupts_;
  for (const CoreLane& lane : lanes_) total += lane.interrupts;
  return total;
}

util::SimNs IbsMonitor::overhead_ns() const noexcept {
  return samples_taken() * config_.cost_per_record_ns +
         interrupts() * config_.cost_per_interrupt_ns;
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void IbsMonitor::save_state(util::ckpt::Writer& w) const {
  util::ckpt::save_rng(w, rng_);
  w.put_u32(static_cast<std::uint32_t>(lanes_.size()));
  for (const CoreLane& lane : lanes_) w.put_i64(lane.countdown);
  for (const CoreLane& lane : lanes_) w.put_u8(lane.tag_armed ? 1 : 0);
  w.put_u64(buffer_.size());
  for (const TraceSample& s : buffer_) save_sample(w, s);
  w.put_u64(samples_taken_);
  w.put_u64(tags_lost_);
  w.put_u64(interrupts_);
  w.put_bool(sharded_);
  // The sharded-mode lane fields follow only in sharded mode.
  w.put_u32(sharded_ ? static_cast<std::uint32_t>(lanes_.size()) : 0);
  if (sharded_) {
    for (const CoreLane& lane : lanes_) {
      util::ckpt::save_rng(w, lane.rng);
      w.put_u64(lane.buffer.size());
      for (const TraceSample& s : lane.buffer) save_sample(w, s);
      w.put_u64(lane.samples);
      w.put_u64(lane.tags_lost);
      w.put_u64(lane.interrupts);
    }
  }
  // Retired streaming-transport flag, kept so the format is unchanged.
  w.put_bool(false);
}

void IbsMonitor::load_state(util::ckpt::Reader& r) {
  util::ckpt::load_rng(r, rng_);
  const std::uint32_t cores = r.get_u32();
  if (cores != lanes_.size()) {
    throw util::ckpt::CkptError("ibs", "core count mismatch");
  }
  // Applied after the mode switch below, which re-arms every countdown.
  std::vector<std::int64_t> countdowns(cores);
  for (std::int64_t& c : countdowns) c = r.get_i64();
  for (CoreLane& lane : lanes_) lane.tag_armed = r.get_u8() != 0;
  buffer_.resize(r.get_count(kSampleBytes));
  for (TraceSample& s : buffer_) s = load_sample(r);
  samples_taken_ = r.get_u64();
  tags_lost_ = r.get_u64();
  interrupts_ = r.get_u64();
  const bool sharded = r.get_bool();
  if (sharded && !sharded_) enable_sharded();
  if (sharded != sharded_) {
    throw util::ckpt::CkptError("ibs", "sharded-mode mismatch");
  }
  for (std::uint32_t c = 0; c < cores; ++c) {
    lanes_[c].countdown = countdowns[c];
  }
  const std::uint32_t lanes = r.get_u32();
  if (lanes != (sharded_ ? lanes_.size() : 0)) {
    throw util::ckpt::CkptError("ibs", "lane count mismatch");
  }
  if (sharded_) {
    for (CoreLane& lane : lanes_) {
      util::ckpt::load_rng(r, lane.rng);
      lane.buffer.resize(r.get_count(kSampleBytes));
      for (TraceSample& s : lane.buffer) s = load_sample(r);
      lane.samples = r.get_u64();
      lane.tags_lost = r.get_u64();
      lane.interrupts = r.get_u64();
    }
  }
  if (r.get_bool()) {
    // Written by a build with the streaming transport, which no longer
    // exists; its ring records cannot be restored.
    throw util::ckpt::CkptError("ibs", "streaming-mode mismatch");
  }
}

}  // namespace tmprof::monitors
