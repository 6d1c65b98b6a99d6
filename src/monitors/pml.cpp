#include "monitors/pml.hpp"

#include "util/ckpt.hpp"

#include "util/assert.hpp"

namespace tmprof::monitors {

PmlMonitor::PmlMonitor(const PmlConfig& config) : config_(config) {
  TMPROF_EXPECTS(config.log_capacity >= 1);
  log_.reserve(config.log_capacity);
}

void PmlMonitor::on_dirty_set(const MemOpEvent& event) {
  // PML logs the GPA of the write aligned to 4 KiB.
  log_.push_back(event.paddr & ~(mem::kPageSize - 1));
  ++entries_logged_;
  if (log_.size() >= config_.log_capacity) {
    ++notifications_;
    drain();
  }
}

void PmlMonitor::drain() {
  if (log_.empty()) return;
  if (drain_) drain_(std::span<const mem::PhysAddr>(log_));
  log_.clear();
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void PmlMonitor::save_state(util::ckpt::Writer& w) const {
  w.put_u64(log_.size());
  for (const mem::PhysAddr paddr : log_) w.put_u64(paddr);
  w.put_u64(entries_logged_);
  w.put_u64(notifications_);
}

void PmlMonitor::load_state(util::ckpt::Reader& r) {
  log_.resize(r.get_count(8));
  for (mem::PhysAddr& paddr : log_) paddr = r.get_u64();
  entries_logged_ = r.get_u64();
  notifications_ = r.get_u64();
}

}  // namespace tmprof::monitors
