/// Fig. 4 — Heatmap of workload memory accesses observed through PTE A-bit
/// profiling: each periodic page-table scan contributes one unit of
/// temperature per page found accessed since the previous scan.
///
/// Complementary to Fig. 3: the A-bit view shows the *address-translation*
/// working set (everything TLB misses reach) at page granularity, with no
/// sampling sparsity but also no access-count resolution within a scan.
///
/// Usage: fig4_heatmap_abit [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--csv=0|1]

#include <fstream>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "monitors/abit.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/histogram.hpp"

namespace {

int bench_main(const tmprof::util::ArgParser& args) {
  using namespace tmprof;
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 48));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 100'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const bool write_csv = args.get_bool("csv", true);
  const std::size_t addr_bins = args.get_u64("addr-bins", 24);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Fig. 4: access heatmaps from A-bit scans (one scan per "
            << ops_per_epoch << "-op interval)\n\n";
  for (const auto& spec : specs) {
    sim::System system(bench::testbed_config(spec.total_bytes));
    tiering::add_spec_processes(system, spec, seed);
    monitors::AbitScanner scanner{monitors::AbitConfig{}};

    // One heatmap column per scan interval.
    const std::uint64_t addr_hi =
        system.phys().total_frames() << mem::kPageShift;
    util::Heatmap heatmap(epochs, epochs, addr_hi, addr_bins);
    std::uint64_t observations = 0;
    for (std::uint32_t e = 0; e < epochs; ++e) {
      system.step(ops_per_epoch);
      for (sim::Process* proc : system.processes()) {
        scanner.scan(proc->pid(), proc->page_table(),
                     [&](const monitors::AbitSample& sample) {
                       // Weight huge pages by their 4 KiB span so the two
                       // figures share a color scale.
                       heatmap.add(e, sample.pfn << mem::kPageShift,
                                   mem::pages_in(sample.size));
                       ++observations;
                     });
      }
    }
    std::cout << "== " << spec.name << " (" << observations
              << " page observations over " << epochs << " scans) ==\n"
              << heatmap.render_ascii() << '\n';
    if (write_csv) {
      std::ofstream csv("fig4_" + spec.name + ".csv");
      heatmap.write_csv(csv);
    }
  }
  if (write_csv) std::cout << "Full grids written to fig4_<workload>.csv\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
