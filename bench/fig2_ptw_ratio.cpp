/// Fig. 2 — Ratio of PTW events that set the A bit to data-cache-miss
/// events tracked by trace-based methods.
///
/// The paper uses this ratio to justify TMP's simple-sum rank fusion: the
/// sample populations the two methods deliver are the same order of
/// magnitude, so neither source drowns the other in the fused rank.
///
/// The A-bit side only produces events while the profiler periodically
/// clears A bits, so the measurement runs under the TMP daemon (gating off
/// to keep both mechanisms live). Reported per workload:
///  * raw hardware events: PTW A-bit sets vs LLC misses,
///  * profiler samples: A-bit scan observations vs kept trace samples,
///  * the sample observations weighted by page span (a 2 MiB THP A-bit
///    entry summarizes 512 base pages, which is how the fused rank sees it).
///
/// Usage: fig2_ptw_ratio [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N]

#include <iostream>

#include "common.hpp"
#include "core/daemon.hpp"
#include "pmu/events.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/table.hpp"

namespace {

int bench_main(const tmprof::util::ArgParser& args) {
  using namespace tmprof;
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 6));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 500'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Fig. 2: PTW A-bit-set events vs data-cache-miss events\n"
            << "(" << epochs << " epochs x " << ops_per_epoch
            << " ops, A-bit scan each epoch, IBS 4x)\n\n";
  util::TextTable table({"workload", "ptw_abit_set", "llc_miss",
                         "itlb_walk", "abit_samples", "trace_samples", "weighted_abit",
                         "ratio(w)", "comparable"});

  for (const auto& spec : specs) {
    sim::System system(bench::testbed_config(spec.total_bytes));
    tiering::add_spec_processes(system, spec, seed);
    core::DaemonConfig cfg;
    cfg.driver.ibs = bench::scaled_ibs(4);
    cfg.gating_enabled = false;
    cfg.pid_filter_enabled = false;
    core::TmpDaemon daemon(system, cfg);

    std::uint64_t abit_samples = 0;
    std::uint64_t abit_weighted = 0;
    std::uint64_t trace_samples = 0;
    for (std::uint32_t e = 0; e < epochs; ++e) {
      system.step(ops_per_epoch);
      const core::ProfileSnapshot snap = daemon.tick();
      for (const auto& [key, count] : snap.observation.abit) {
        abit_samples += count;
        // Weight by the mapping's span in base pages, as the fused rank of
        // a huge page effectively summarizes that many 4 KiB pages.
        sim::Process& proc = system.process(key.pid);
        const mem::PteRef ref = proc.page_table().resolve(key.page_va);
        abit_weighted += count * (ref ? mem::pages_in(ref.size) : 1);
      }
      for (const auto& [key, count] : snap.observation.trace) {
        trace_samples += count;
      }
    }
    const std::uint64_t abit_sets =
        system.pmu().truth_total(pmu::Event::PtwAbitSet);
    const std::uint64_t llc_miss =
        system.pmu().truth_total(pmu::Event::LlcMiss);
    const double ratio_raw =
        trace_samples == 0 ? 0.0
                           : static_cast<double>(abit_samples) /
                                 static_cast<double>(trace_samples);
    const double ratio_w =
        trace_samples == 0 ? 0.0
                           : static_cast<double>(abit_weighted) /
                                 static_cast<double>(trace_samples);
    // "Same order of magnitude" in the fusion sense: neither source is so
    // large that summing drowns the other. Judge by whichever granularity
    // (raw entries or base-page-weighted) is closer to parity.
    auto within = [](double r) { return r >= 1.0 / 30.0 && r <= 30.0; };
    const bool comparable = within(ratio_raw) || within(ratio_w);
    table.add_row({spec.name, util::TextTable::num(abit_sets),
                   util::TextTable::num(llc_miss),
                   util::TextTable::num(
                       system.pmu().truth_total(pmu::Event::ItlbWalk)),
                   util::TextTable::num(abit_samples),
                   util::TextTable::num(trace_samples),
                   util::TextTable::num(abit_weighted),
                   util::TextTable::fixed(ratio_w, 3),
                   comparable ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "\nPaper claim: the sample populations are the same order of "
               "magnitude, so TMP ranks by the plain sum of A-bit and trace "
               "samples without underestimating either.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
