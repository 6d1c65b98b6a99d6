/// Ablation — A-bit clearing with vs without TLB shootdowns (DESIGN.md §5,
/// the paper's Section III-B4 optimization 3). Clearing without a
/// shootdown leaves stale TLB entries that hide accesses until natural
/// eviction; issuing shootdowns restores precision at the cost of an IPI
/// burst per cleared PTE. This bench measures both sides: pages observed
/// per scan (visibility) and scan cost (overhead).
///
/// Usage: ablation_shootdown [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N]

#include <iostream>

#include "common.hpp"
#include "core/driver.hpp"
#include "tiering/epoch.hpp"
#include "util/table.hpp"

namespace {

using namespace tmprof;

struct ScanOutcome {
  double pages_per_scan = 0.0;
  util::SimNs cost_ns = 0;
  std::uint64_t ipis = 0;
};

ScanOutcome run(const workloads::WorkloadSpec& spec, bool shootdown,
                std::uint32_t epochs, std::uint64_t ops_per_epoch,
                std::uint64_t seed) {
  sim::System system(bench::testbed_config(spec.total_bytes));
  tiering::add_spec_processes(system, spec, seed);
  core::DriverConfig cfg;
  cfg.abit.shootdown_on_clear = shootdown;
  core::TmpDriver driver(system, cfg);
  driver.set_trace_enabled(false);
  std::vector<mem::Pid> pids;
  for (sim::Process* proc : system.processes()) pids.push_back(proc->pid());

  ScanOutcome outcome;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    system.step(ops_per_epoch);
    const monitors::AbitScanResult r = driver.scan_processes(pids);
    outcome.pages_per_scan += static_cast<double>(r.pages_accessed);
    outcome.cost_ns += r.cost_ns;
    outcome.ipis += r.shootdowns;
    driver.end_epoch();
  }
  outcome.pages_per_scan /= epochs;
  return outcome;
}

int bench_main(const util::ArgParser& args) {
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 6));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 500'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Ablation: A-bit clearing with vs without TLB shootdowns\n\n";
  util::TextTable table({"workload", "pages/scan", "pages/scan(+sd)",
                         "visibility", "cost_us", "cost_us(+sd)",
                         "cost_factor"});

  for (const auto& spec : specs) {
    const ScanOutcome lazy = run(spec, false, epochs, ops_per_epoch, seed);
    const ScanOutcome precise = run(spec, true, epochs, ops_per_epoch, seed);
    const double visibility =
        lazy.pages_per_scan == 0
            ? 0.0
            : precise.pages_per_scan / lazy.pages_per_scan;
    const double cost_factor =
        lazy.cost_ns == 0 ? 0.0
                          : static_cast<double>(precise.cost_ns) /
                                static_cast<double>(lazy.cost_ns);
    table.add_row({spec.name,
                   util::TextTable::fixed(lazy.pages_per_scan, 0),
                   util::TextTable::fixed(precise.pages_per_scan, 0),
                   util::TextTable::fixed(visibility, 2) + "x",
                   util::TextTable::num(lazy.cost_ns / 1000),
                   util::TextTable::num(precise.cost_ns / 1000),
                   util::TextTable::fixed(cost_factor, 1) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nExpected: shootdowns buy a small visibility gain (stale "
               "TLB entries no longer hide re-accesses) at a 10-1000x scan "
               "cost — the trade the paper resolves in favor of lazy "
               "clearing.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
