/// Fig. 3 — Heatmap of workload memory accesses captured by IBS at the 4x
/// sampling rate: time on X, physical address on Y, sample count as
/// temperature.
///
/// Prints an ASCII rendering per workload and writes the full grid to
/// fig3_<workload>.csv. Expected shapes: GUPS/XSBench fill their address
/// range uniformly; Data-Caching/Web-Serving show persistent hot bands;
/// LULESH/Data-Analytics show diagonal sweep stripes.
///
/// Usage: fig3_heatmap_ibs [--workload=<name>] [--scale=F] [--ops=N]
///        [--csv=0|1]

#include <fstream>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "monitors/ibs.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/histogram.hpp"

namespace {

int bench_main(const tmprof::util::ArgParser& args) {
  using namespace tmprof;
  const std::uint64_t ops = args.get_u64("ops", 4'000'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const bool write_csv = args.get_bool("csv", true);
  const std::size_t time_bins = args.get_u64("time-bins", 64);
  const std::size_t addr_bins = args.get_u64("addr-bins", 24);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Fig. 3: access heatmaps from IBS samples (4x rate)\n\n";
  for (const auto& spec : specs) {
    sim::System system(bench::testbed_config(spec.total_bytes));
    tiering::add_spec_processes(system, spec, seed);

    monitors::IbsMonitor ibs(bench::scaled_ibs(4), system.config().cores,
                             seed);
    std::vector<std::pair<util::SimNs, mem::PhysAddr>> samples;
    ibs.set_drain([&](std::span<const monitors::TraceSample> batch) {
      for (const auto& s : batch) {
        if (s.is_store || !mem::is_memory(s.source)) continue;
        samples.emplace_back(s.time, s.paddr);
      }
    });
    system.add_observer(&ibs);
    system.step(ops);
    ibs.drain();

    const util::SimNs duration = system.now() + 1;
    const std::uint64_t addr_hi =
        system.phys().total_frames() << mem::kPageShift;
    util::Heatmap heatmap(duration, time_bins, addr_hi, addr_bins);
    for (const auto& [time, paddr] : samples) heatmap.add(time, paddr);

    std::cout << "== " << spec.name << " (" << samples.size()
              << " beyond-LLC demand-load samples, "
              << duration / util::kMillisecond << " sim-ms) ==\n"
              << heatmap.render_ascii() << '\n';
    if (write_csv) {
      std::ofstream csv("fig3_" + spec.name + ".csv");
      heatmap.write_csv(csv);
    }
  }
  if (write_csv) std::cout << "Full grids written to fig3_<workload>.csv\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
