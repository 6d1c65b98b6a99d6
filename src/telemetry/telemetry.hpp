#pragma once
/// \file telemetry.hpp
/// The telemetry facade every instrumented layer holds a (possibly null)
/// pointer to: a MetricsRegistry, a SpanTracer and the export scheduling.
/// Telemetry is **off by default** — layers receive a null `Telemetry*`,
/// resolve null handles, and every instrumentation site collapses to a
/// pointer test. With a sink attached, the same sites feed named metrics
/// and sim-time spans that export to Chrome trace JSON and Prometheus
/// text, either at run end or every N epochs (docs/OBSERVABILITY.md).
///
/// Determinism contract: every value in the registry and every span is a
/// pure function of simulated execution, so exports are bitwise identical
/// across engine thread counts and across checkpoint/resume cycles.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace tmprof::telemetry {

/// Chrome-trace track (tid) assignments, fixed so traces from different
/// runs line up. Per-shard engine tracks start at kTidShardBase + core.
inline constexpr std::uint32_t kTidRunner = 0;
inline constexpr std::uint32_t kTidMover = 1;
inline constexpr std::uint32_t kTidDaemon = 2;
inline constexpr std::uint32_t kTidShardBase = 16;

struct TelemetryConfig {
  /// Prometheus text output path ("" = don't write).
  std::string metrics_out;
  /// Chrome trace-event JSON output path ("" = don't write).
  std::string trace_out;
  /// Re-export every N completed epochs (0 = only at run end). Each export
  /// rewrites the output files in full, so the newest write always holds a
  /// consistent snapshot.
  std::uint32_t export_every = 0;
  /// Span ring capacity; overflow overwrites the oldest span (counted).
  std::size_t span_capacity = 1 << 16;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config);

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return registry_;
  }
  [[nodiscard]] SpanTracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }

  /// Start a new Chrome-trace process group (one per bench run); spans
  /// recorded afterwards carry the new pid. Returns the pid. Re-beginning
  /// the current label reuses its pid (cold-start resume fallback).
  std::uint32_t begin_run(std::string label);
  [[nodiscard]] std::uint32_t current_pid() const noexcept {
    return current_pid_;
  }

  /// Record a completed span on the current run's process group. Ring
  /// overwrites bump the `telemetry_spans_dropped_total` counter.
  void span(std::string_view name, util::SimNs begin_ns, util::SimNs end_ns,
            std::uint32_t tid = 0);

  /// Export if `export_every` divides the number of completed epochs.
  void maybe_export(std::uint32_t completed_epochs);
  /// Export unconditionally (run end).
  void export_final();

  void write_chrome(std::ostream& os) const;
  void write_prometheus(std::ostream& os) const;

  /// Checkpoint hooks (util/ckpt.hpp): registry, span ring and run labels,
  /// so a resumed run exports byte-identical artifacts. The state fills the
  /// rest of its section; load_state reads through the section's end before
  /// it commits, so a rejected section restores nothing.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  void export_files();

  TelemetryConfig config_;
  MetricsRegistry registry_;
  SpanTracer tracer_;
  Counter spans_dropped_;
  Counter exports_;
  std::vector<std::pair<std::uint32_t, std::string>> run_labels_;
  std::uint32_t current_pid_ = 0;
};

}  // namespace tmprof::telemetry
