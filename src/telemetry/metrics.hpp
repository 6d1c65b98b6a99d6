#pragma once
/// \file metrics.hpp
/// Named counters / gauges / histograms for the profiler's own telemetry
/// (docs/OBSERVABILITY.md). The registry hands out *handles*: trivially
/// copyable pointer wrappers whose update methods are a null check plus an
/// add, so a default-constructed (null) handle makes every instrumentation
/// site a compile-time-cheap no-op when telemetry is disabled.
///
/// Shard protocol: in the sharded access engine each simulated core
/// accumulates into its own shard-local cells (safe on that core's worker
/// thread), and `merge_shards()` folds them into the global cells at the
/// epoch barrier in ascending shard order — mirroring the PR-1 observer
/// protocol. Because the shard → core decomposition is fixed by the
/// configuration (never by thread count), merged values are bitwise
/// invariant across worker-pool sizes.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::telemetry {

/// Monotonically increasing count. Null handle = no-op.
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  void add(std::uint64_t n) const noexcept {
    if (cell_ != nullptr) *cell_ += n;
  }
  void inc() const noexcept { add(1); }
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  std::uint64_t* cell_ = nullptr;
};

/// Last-written value (queue depths, ladder state). Null handle = no-op.
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::uint64_t* cell) : cell_(cell) {}
  void set(std::uint64_t v) const noexcept {
    if (cell_ != nullptr) *cell_ = v;
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return cell_ != nullptr;
  }

 private:
  std::uint64_t* cell_ = nullptr;
};

/// Value distribution backed by util::Histogram plus an exact weighted
/// value sum (Prometheus `_sum`). Null handle = no-op.
class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(util::Histogram* hist) : hist_(hist) {}
  void observe(std::uint64_t value, std::uint64_t weight = 1) const {
    if (hist_ != nullptr) hist_->add(value, weight);
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return hist_ != nullptr;
  }

 private:
  util::Histogram* hist_ = nullptr;
};

/// Owns every metric cell. Names must match [a-z0-9_]+ (enforced); counter
/// names should end in `_total` by convention. Cells live in node-based
/// maps, so handles stay valid for the registry's lifetime and exporters
/// iterate in sorted-name order — the export byte streams are independent
/// of registration order.
class MetricsRegistry {
 public:
  /// Resolve (creating on first use) a named global metric.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] HistogramHandle histogram(std::string_view name,
                                          std::uint64_t lo, std::uint64_t hi,
                                          std::size_t buckets);

  /// Grow the shard array to at least `n` shards (never shrinks).
  void ensure_shards(std::size_t n);
  [[nodiscard]] std::size_t shards() const noexcept {
    return shard_counters_.size();
  }

  /// Shard-local cells for the same named metrics. Only the owning shard's
  /// worker thread may touch them between barriers.
  [[nodiscard]] Counter shard_counter(std::size_t shard,
                                      std::string_view name);
  [[nodiscard]] HistogramHandle shard_histogram(std::size_t shard,
                                                std::string_view name,
                                                std::uint64_t lo,
                                                std::uint64_t hi,
                                                std::size_t buckets);

  /// Epoch barrier: fold every shard's cells into the globals in ascending
  /// shard order, then zero the shard cells. Caller must be the only
  /// thread running (the engines call this after joining their workers).
  void merge_shards();

  // --- exporter / test views (sorted by name) -----------------------------
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& gauges()
      const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, util::Histogram>& histograms()
      const noexcept {
    return histograms_;
  }
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::uint64_t gauge_value(std::string_view name) const;

  /// Checkpoint hooks (util/ckpt.hpp): global cells only — shard cells are
  /// transient inside an epoch and must be empty (merged) at save time.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);
  /// Commit a staged restore: `staged` is a copy of this registry that
  /// load_state() then filled. Cells are overwritten in place, so handles
  /// resolved earlier stay valid.
  void restore_from(const MetricsRegistry& staged);

 private:
  static void check_name(std::string_view name);

  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> gauges_;
  std::map<std::string, util::Histogram> histograms_;
  std::vector<std::map<std::string, std::uint64_t>> shard_counters_;
  std::vector<std::map<std::string, util::Histogram>> shard_histograms_;
};

}  // namespace tmprof::telemetry
