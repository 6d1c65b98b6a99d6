#include "telemetry/telemetry.hpp"

#include <fstream>
#include <ostream>

#include "telemetry/export.hpp"
#include "util/ckpt.hpp"
#include "util/log.hpp"

namespace tmprof::telemetry {

Telemetry::Telemetry(TelemetryConfig config)
    : config_(std::move(config)),
      tracer_(config_.span_capacity),
      spans_dropped_(registry_.counter("telemetry_spans_dropped_total")),
      exports_(registry_.counter("telemetry_exports_total")) {}

std::uint32_t Telemetry::begin_run(std::string label) {
  // Idempotent for a consecutively repeated label: a rejected resume
  // falls back to a cold start that re-enters the same run, and the
  // retry must not leave a duplicate process group behind — exports
  // must match a fresh run byte for byte.
  if (!run_labels_.empty() && run_labels_.back().second == label &&
      run_labels_.back().first == current_pid_) {
    return current_pid_;
  }
  current_pid_ = static_cast<std::uint32_t>(run_labels_.size()) + 1;
  run_labels_.emplace_back(current_pid_, std::move(label));
  return current_pid_;
}

void Telemetry::span(std::string_view name, util::SimNs begin_ns,
                     util::SimNs end_ns, std::uint32_t tid) {
  if (tracer_.record(name, begin_ns, end_ns, current_pid_, tid)) {
    spans_dropped_.inc();
  }
}

void Telemetry::maybe_export(std::uint32_t completed_epochs) {
  if (config_.export_every == 0) return;
  if (completed_epochs % config_.export_every != 0) return;
  export_files();
}

void Telemetry::export_final() { export_files(); }

void Telemetry::export_files() {
  // The export counter observes itself being exported: increment first so
  // the written value counts this export too.
  exports_.inc();
  if (!config_.metrics_out.empty()) {
    std::ofstream os(config_.metrics_out, std::ios::trunc);
    if (!os) {
      TMPROF_LOG_WARN << "telemetry: cannot write metrics to '"
                      << config_.metrics_out << "'";
    } else {
      write_prometheus(os);
    }
  }
  if (!config_.trace_out.empty()) {
    std::ofstream os(config_.trace_out, std::ios::trunc);
    if (!os) {
      TMPROF_LOG_WARN << "telemetry: cannot write trace to '"
                      << config_.trace_out << "'";
    } else {
      write_chrome(os);
    }
  }
}

void Telemetry::write_chrome(std::ostream& os) const {
  write_chrome_trace(os, tracer_, run_labels_);
}

void Telemetry::write_prometheus(std::ostream& os) const {
  telemetry::write_prometheus(os, registry_);
}

void Telemetry::save_state(util::ckpt::Writer& w) const {
  registry_.save_state(w);
  tracer_.save_state(w);
  w.put_u64(run_labels_.size());
  for (const auto& [pid, label] : run_labels_) {
    w.put_u32(pid);
    w.put_str(label);
  }
  w.put_u32(current_pid_);
}

void Telemetry::load_state(util::ckpt::Reader& r) {
  // Stage the whole section before committing any of it: a rejected image
  // must leave the sink as it was, so the cold-start retry exports exactly
  // what a fresh run does.
  MetricsRegistry metrics = registry_;
  metrics.load_state(r);
  SpanTracer tracer(config_.span_capacity);
  tracer.load_state(r);
  std::vector<std::pair<std::uint32_t, std::string>> labels(
      r.get_count(8));  // pid + name length
  for (auto& [pid, label] : labels) {
    pid = r.get_u32();
    label = r.get_str();
  }
  const std::uint32_t current_pid = r.get_u32();
  r.end_section();
  registry_.restore_from(metrics);
  tracer_ = std::move(tracer);
  run_labels_ = std::move(labels);
  current_pid_ = current_pid;
}

}  // namespace tmprof::telemetry
