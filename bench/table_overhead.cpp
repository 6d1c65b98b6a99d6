/// Sections VI-A/B — Profiling overhead as a fraction of application time.
///
/// The paper reports: A-bit scans under 1% (walking every page table once
/// per second, no shootdowns), IBS at the default rate under 2%, IBS at 4x
/// under 5%. This bench runs each workload under each mechanism alone and
/// reports the modeled collection cost relative to runtime, plus the
/// ablation the paper's optimizations imply: activity gating on/off and
/// shootdown on/off for the A-bit path.
///
/// A final section turns the lens on the telemetry subsystem itself: the
/// same daemon loop is wall-clock timed with metrics + spans attached and
/// detached (docs/OBSERVABILITY.md), reporting the relative slowdown per
/// workload. The subsystem's budget is < 5%.
///
/// Usage: table_overhead [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--self-reps=N] [--metrics-out=F]
///        [--trace-out=F] [--telemetry-every=N]

#include <algorithm>
#include <chrono>
#include <iostream>

#include "common.hpp"
#include "core/daemon.hpp"
#include "tiering/epoch.hpp"
#include "util/table.hpp"

namespace {

using namespace tmprof;

struct OverheadCase {
  double abit_pct = 0.0;
  double trace_pct = 0.0;
};

OverheadCase run_case(const workloads::WorkloadSpec& spec,
                      std::uint32_t epochs, std::uint64_t ops_per_epoch,
                      std::uint64_t seed, bool use_ibs,
                      std::uint64_t ibs_multiplier, bool abit_shootdown,
                      bool gating, double time_scale) {
  sim::System system(bench::testbed_config(spec.total_bytes));
  tiering::add_spec_processes(system, spec, seed);
  core::DaemonConfig cfg;
  cfg.driver.ibs = bench::scaled_ibs(ibs_multiplier);
  // The simulated time axis is ~time_scale x denser in events than the
  // testbed's (sampling periods shrank with the footprints but handler
  // costs are wall-clock); scale the per-event costs to match, exactly as
  // the speedup bench scales the migration constants.
  cfg.driver.ibs.cost_per_record_ns = static_cast<util::SimNs>(
      static_cast<double>(cfg.driver.ibs.cost_per_record_ns) / time_scale);
  cfg.driver.ibs.cost_per_interrupt_ns = static_cast<util::SimNs>(
      static_cast<double>(cfg.driver.ibs.cost_per_interrupt_ns) / time_scale);
  cfg.driver.abit.cost_per_pte_ns = static_cast<util::SimNs>(
      std::max(1.0, static_cast<double>(cfg.driver.abit.cost_per_pte_ns) /
                        time_scale));
  cfg.driver.abit.cost_per_shootdown_ns = static_cast<util::SimNs>(
      static_cast<double>(cfg.driver.abit.cost_per_shootdown_ns) /
      time_scale);
  cfg.driver.abit.shootdown_on_clear = abit_shootdown;
  cfg.gating_enabled = gating;
  core::TmpDaemon daemon(system, cfg);
  if (!use_ibs) daemon.driver().set_trace_enabled(false);
  for (std::uint32_t e = 0; e < epochs; ++e) {
    system.step(ops_per_epoch);
    daemon.tick();
  }
  const double runtime = static_cast<double>(system.now());
  OverheadCase result;
  result.abit_pct =
      100.0 * static_cast<double>(daemon.driver().abit_overhead_ns()) /
      runtime;
  result.trace_pct =
      100.0 * static_cast<double>(daemon.driver().trace_overhead_ns()) /
      runtime;
  return result;
}

/// Wall-clock one daemon-driven run (ibs-default + A-bit), optionally with
/// a telemetry sink attached. The simulated result is identical either way
/// (telemetry never touches sim time); only the host-side cost differs.
double timed_run(const workloads::WorkloadSpec& spec, std::uint32_t epochs,
                 std::uint64_t ops_per_epoch, std::uint64_t seed,
                 telemetry::Telemetry* telemetry) {
  sim::System system(bench::testbed_config(spec.total_bytes));
  tiering::add_spec_processes(system, spec, seed);
  core::DaemonConfig cfg;
  cfg.driver.ibs = bench::scaled_ibs(1);
  core::TmpDaemon daemon(system, cfg);
  if (telemetry != nullptr) {
    telemetry->begin_run(spec.name + "/self-overhead");
    system.set_telemetry(telemetry);
    daemon.set_telemetry(telemetry);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t e = 0; e < epochs; ++e) {
    system.step(ops_per_epoch);
    daemon.tick();
    if (telemetry != nullptr) telemetry->maybe_export(e + 1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

int bench_main(const util::ArgParser& args) {
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 6));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 800'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const double time_scale = args.get_double("time-scale", 20.0);
  const std::uint32_t self_reps =
      static_cast<std::uint32_t>(args.get_u64("self-reps", 3));
  std::unique_ptr<telemetry::Telemetry> exported =
      bench::telemetry_from_args(args);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Sections VI-A/B: profiling overhead (% of application "
               "time)\n"
            << "(paper targets: abit < 1%, ibs-default < 2%, ibs-4x < 5%)\n\n";
  util::TextTable table({"workload", "abit", "abit+shootdown", "ibs-default",
                         "ibs-4x", "ibs-8x", "abit(no-gating)"});

  for (const auto& spec : specs) {
    const OverheadCase abit =
        run_case(spec, epochs, ops_per_epoch, seed, false, 1, false, true, time_scale);
    const OverheadCase abit_sd =
        run_case(spec, epochs, ops_per_epoch, seed, false, 1, true, true, time_scale);
    const OverheadCase ibs1 =
        run_case(spec, epochs, ops_per_epoch, seed, true, 1, false, true, time_scale);
    const OverheadCase ibs4 =
        run_case(spec, epochs, ops_per_epoch, seed, true, 4, false, true, time_scale);
    const OverheadCase ibs8 =
        run_case(spec, epochs, ops_per_epoch, seed, true, 8, false, true, time_scale);
    const OverheadCase nogate =
        run_case(spec, epochs, ops_per_epoch, seed, false, 1, false, false, time_scale);
    table.add_row({spec.name, util::TextTable::fixed(abit.abit_pct, 2) + "%",
                   util::TextTable::fixed(abit_sd.abit_pct, 2) + "%",
                   util::TextTable::fixed(ibs1.trace_pct, 2) + "%",
                   util::TextTable::fixed(ibs4.trace_pct, 2) + "%",
                   util::TextTable::fixed(ibs8.trace_pct, 2) + "%",
                   util::TextTable::fixed(nogate.abit_pct, 2) + "%"});
  }
  table.print(std::cout);
  std::cout << "\nShapes to check: shootdowns multiply A-bit cost; IBS "
               "overhead scales with rate; gating only helps workloads "
               "with idle phases.\n";

  // Self-overhead: the telemetry subsystem measured by the same yardstick.
  // Best-of-N wall-clock timings smooth scheduler noise; with --metrics-out
  // or --trace-out the instrumented runs also feed the exported files,
  // otherwise a file-less sink isolates pure collection cost.
  telemetry::Telemetry local{telemetry::TelemetryConfig{}};
  telemetry::Telemetry* const sink = exported ? exported.get() : &local;

  std::cout << "\nTelemetry self-overhead (wall clock, best of " << self_reps
            << " reps; budget < 5%)\n";
  util::TextTable self_table({"workload", "off_ms", "on_ms", "overhead"});
  bool within_budget = true;
  for (const auto& spec : specs) {
    double off_s = 1e300;
    double on_s = 1e300;
    for (std::uint32_t r = 0; r < self_reps; ++r) {
      off_s = std::min(off_s,
                       timed_run(spec, epochs, ops_per_epoch, seed, nullptr));
      on_s =
          std::min(on_s, timed_run(spec, epochs, ops_per_epoch, seed, sink));
    }
    const double pct = off_s > 0.0 ? 100.0 * (on_s - off_s) / off_s : 0.0;
    if (pct >= 5.0) within_budget = false;
    self_table.add_row({spec.name, util::TextTable::fixed(off_s * 1e3, 2),
                        util::TextTable::fixed(on_s * 1e3, 2),
                        util::TextTable::fixed(pct, 2) + "%"});
  }
  self_table.print(std::cout);
  std::cout << "\nTelemetry budget (< 5% wall clock): "
            << (within_budget ? "within" : "EXCEEDED") << '\n';
  if (exported) exported->export_final();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
