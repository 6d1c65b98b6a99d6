#include "monitors/abit.hpp"

#include "util/ckpt.hpp"

namespace tmprof::monitors {

AbitScanner::AbitScanner(const AbitConfig& config) : config_(config) {}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void AbitScanner::save_state(util::ckpt::Writer& w) const {
  w.put_u64(total_ptes_visited_);
  w.put_u64(total_pages_accessed_);
  w.put_u64(overhead_ns_);
}

void AbitScanner::load_state(util::ckpt::Reader& r) {
  total_ptes_visited_ = r.get_u64();
  total_pages_accessed_ = r.get_u64();
  overhead_ns_ = r.get_u64();
}

}  // namespace tmprof::monitors
