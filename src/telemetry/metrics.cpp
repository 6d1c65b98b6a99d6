#include "telemetry/metrics.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::telemetry {

void MetricsRegistry::check_name(std::string_view name) {
  TMPROF_EXPECTS(!name.empty());
  for (const char c : name) {
    TMPROF_EXPECTS((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   c == '_');
  }
}

Counter MetricsRegistry::counter(std::string_view name) {
  check_name(name);
  return Counter(&counters_[std::string(name)]);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  check_name(name);
  return Gauge(&gauges_[std::string(name)]);
}

HistogramHandle MetricsRegistry::histogram(std::string_view name,
                                           std::uint64_t lo, std::uint64_t hi,
                                           std::size_t buckets) {
  check_name(name);
  auto it = histograms_.find(std::string(name));
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), util::Histogram(lo, hi, buckets))
             .first;
  } else {
    TMPROF_EXPECTS(it->second.same_shape(util::Histogram(lo, hi, buckets)));
  }
  return HistogramHandle(&it->second);
}

void MetricsRegistry::ensure_shards(std::size_t n) {
  if (shard_counters_.size() < n) {
    shard_counters_.resize(n);
    shard_histograms_.resize(n);
  }
}

Counter MetricsRegistry::shard_counter(std::size_t shard,
                                       std::string_view name) {
  TMPROF_EXPECTS(shard < shard_counters_.size());
  check_name(name);
  // Pre-create the global cell so merge order cannot depend on which
  // shards saw traffic.
  (void)counter(name);
  return Counter(&shard_counters_[shard][std::string(name)]);
}

HistogramHandle MetricsRegistry::shard_histogram(std::size_t shard,
                                                 std::string_view name,
                                                 std::uint64_t lo,
                                                 std::uint64_t hi,
                                                 std::size_t buckets) {
  TMPROF_EXPECTS(shard < shard_histograms_.size());
  check_name(name);
  (void)histogram(name, lo, hi, buckets);
  auto& shard_map = shard_histograms_[shard];
  auto it = shard_map.find(std::string(name));
  if (it == shard_map.end()) {
    it = shard_map
             .emplace(std::string(name), util::Histogram(lo, hi, buckets))
             .first;
  }
  return HistogramHandle(&it->second);
}

void MetricsRegistry::merge_shards() {
  for (auto& shard : shard_counters_) {
    for (auto& [name, value] : shard) {
      counters_[name] += value;
      value = 0;
    }
  }
  for (auto& shard : shard_histograms_) {
    for (auto& [name, hist] : shard) {
      const auto it = histograms_.find(name);
      TMPROF_ASSERT(it != histograms_.end());
      it->second.merge(hist);
      hist.reset();
    }
  }
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? 0 : it->second;
}

void MetricsRegistry::save_state(util::ckpt::Writer& w) const {
  for (const auto& shard : shard_counters_) {
    for (const auto& [name, value] : shard) {
      TMPROF_EXPECTS(value == 0);  // shards must be merged before a save
    }
  }
  w.put_u64(counters_.size());
  for (const auto& [name, value] : counters_) {
    w.put_str(name);
    w.put_u64(value);
  }
  w.put_u64(gauges_.size());
  for (const auto& [name, value] : gauges_) {
    w.put_str(name);
    w.put_u64(value);
  }
  w.put_u64(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    w.put_str(name);
    w.put_u64(hist.lo());
    w.put_u64(hist.hi());
    w.put_u64(hist.buckets());
    w.put_u64(hist.total());
    w.put_u64(hist.underflow());
    w.put_u64(hist.overflow());
    w.put_u64(hist.value_sum());
    for (std::size_t b = 0; b < hist.buckets(); ++b) {
      w.put_u64(hist.count(b));
    }
  }
}

void MetricsRegistry::load_state(util::ckpt::Reader& r) {
  // Update cells *in place*: handles resolved before a resume point into
  // live map nodes, so existing nodes must never be destroyed. Cells the
  // checkpoint doesn't mention reset to zero (a resumed run re-resolves
  // the same instrumentation sites, so names line up in practice).
  for (auto& [name, value] : counters_) value = 0;
  for (auto& [name, value] : gauges_) value = 0;
  for (auto& [name, hist] : histograms_) hist.reset();
  const std::uint64_t n_counters = r.get_u64();
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    const std::string name = r.get_str();
    counters_[name] = r.get_u64();
  }
  const std::uint64_t n_gauges = r.get_u64();
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    const std::string name = r.get_str();
    gauges_[name] = r.get_u64();
  }
  const std::uint64_t n_hists = r.get_u64();
  for (std::uint64_t i = 0; i < n_hists; ++i) {
    const std::string name = r.get_str();
    const std::uint64_t lo = r.get_u64();
    const std::uint64_t hi = r.get_u64();
    const std::uint64_t buckets = r.get_count(8);
    if (hi <= lo || buckets == 0) {
      throw util::ckpt::CkptError(
          "telemetry", "invalid histogram shape for '" + name + "'");
    }
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, util::Histogram(lo, hi, buckets)).first;
    } else if (!it->second.same_shape(util::Histogram(lo, hi, buckets))) {
      throw util::ckpt::CkptError(
          "telemetry", "histogram shape mismatch for '" + name + "'");
    }
    util::Histogram& hist = it->second;
    const std::uint64_t total = r.get_u64();
    const std::uint64_t underflow = r.get_u64();
    const std::uint64_t overflow = r.get_u64();
    const std::uint64_t sum = r.get_u64();
    // Rebuild through add() so internal tallies stay consistent: bucket
    // mass lands at each bucket's lower edge, under/overflow at the range
    // edges, then the exact value sum is patched in.
    for (std::uint64_t b = 0; b < buckets; ++b) {
      const std::uint64_t count = r.get_u64();
      if (count != 0) hist.add(hist.bucket_lo(b), count);
    }
    if (underflow != 0 && lo > 0) hist.add(lo - 1, underflow);
    if (overflow != 0) hist.add(hi, overflow);
    if (hist.total() != total) {
      throw util::ckpt::CkptError(
          "telemetry", "histogram count mismatch for '" + name + "'");
    }
    hist.set_value_sum(sum);
  }
}

void MetricsRegistry::restore_from(const MetricsRegistry& staged) {
  for (const auto& [name, value] : staged.counters_) counters_[name] = value;
  for (const auto& [name, value] : staged.gauges_) gauges_[name] = value;
  for (const auto& [name, hist] : staged.histograms_) {
    histograms_.insert_or_assign(name, hist);
  }
}

}  // namespace tmprof::telemetry
