#include "telemetry/span.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::telemetry {

SpanTracer::SpanTracer(std::size_t capacity) : capacity_(capacity) {
  TMPROF_EXPECTS(capacity > 0);
  ring_.reserve(capacity < 4096 ? capacity : 4096);
}

bool SpanTracer::record(std::string_view name, util::SimNs begin_ns,
                        util::SimNs end_ns, std::uint32_t pid,
                        std::uint32_t tid) {
  TMPROF_EXPECTS(end_ns >= begin_ns);
  Span span{std::string(name), begin_ns, end_ns, pid, tid};
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
    return false;
  }
  ring_[head_] = std::move(span);
  head_ = (head_ + 1) % capacity_;
  ++overwritten_;
  return true;
}

std::vector<Span> SpanTracer::spans_in_order() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void SpanTracer::save_state(util::ckpt::Writer& w) const {
  w.put_u64(capacity_);
  w.put_u64(overwritten_);
  const std::vector<Span> ordered = spans_in_order();
  w.put_u64(ordered.size());
  for (const Span& s : ordered) {
    w.put_str(s.name);
    w.put_u64(s.begin_ns);
    w.put_u64(s.end_ns);
    w.put_u32(s.pid);
    w.put_u32(s.tid);
  }
}

void SpanTracer::load_state(util::ckpt::Reader& r) {
  const std::uint64_t capacity = r.get_u64();
  if (capacity != capacity_) {
    throw util::ckpt::CkptError("telemetry", "span ring capacity mismatch");
  }
  overwritten_ = r.get_u64();
  // A span with an empty name is 28 bytes.
  const std::uint64_t count = r.get_count(28);
  if (count > capacity_) {
    throw util::ckpt::CkptError("telemetry", "span ring over capacity");
  }
  ring_.clear();
  head_ = 0;  // spans were saved oldest-first, so a fresh ring is in order
  ring_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Span s;
    s.name = r.get_str();
    s.begin_ns = r.get_u64();
    s.end_ns = r.get_u64();
    s.pid = r.get_u32();
    s.tid = r.get_u32();
    ring_.push_back(std::move(s));
  }
}

}  // namespace tmprof::telemetry
