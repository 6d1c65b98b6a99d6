/// Architecture comparison — the paper's Section I/II argument, measured:
/// software-controlled tiered memory with in-place tier-2 access (TMP +
/// History migration) versus the *page-cache* alternative that exposes
/// tier 2 as a swap device, where "accessing a single cache line via
/// tier 2 swap produces a costly page fault ... followed by the movement
/// of an entire data block". The first-touch tiered machine (no
/// migration, no faults) sits between them as the static reference.
///
/// All three run the same workloads with the same tier-1 capacity.
///
/// Usage: arch_compare [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N]

#include <iostream>

#include "common.hpp"
#include "core/daemon.hpp"
#include "pmu/events.hpp"
#include "tiering/epoch.hpp"
#include "tiering/mover.hpp"
#include "tiering/swap.hpp"
#include "util/table.hpp"

namespace {

using namespace tmprof;

struct ArchResult {
  util::SimNs runtime_ns = 0;
  double t1_hitrate = 0.0;
  std::uint64_t faults = 0;
};

enum class Arch { StaticTiered, TmpTiered, Swap };

ArchResult run(Arch arch, const workloads::WorkloadSpec& spec,
               std::uint32_t epochs, std::uint64_t ops_per_epoch,
               std::uint64_t seed) {
  sim::SimConfig cfg = bench::testbed_config(spec.total_bytes);
  cfg.tier1_frames = (64ULL << 20) >> mem::kPageShift;
  cfg.tier2_frames = (spec.total_bytes >> mem::kPageShift) * 5 / 4 + (1 << 14);
  sim::System system(cfg);
  tiering::add_spec_processes(system, spec, seed);

  std::unique_ptr<core::TmpDaemon> daemon;
  std::unique_ptr<tiering::PageMover> mover;
  std::unique_ptr<tiering::SwapFarMemory> swap;
  if (arch == Arch::TmpTiered) {
    core::DaemonConfig dcfg;
    dcfg.driver.ibs = bench::scaled_ibs(4);
    daemon = std::make_unique<core::TmpDaemon>(system, dcfg);
    tiering::MoverConfig mcfg;
    mcfg.per_page_cost_ns = 2500;
    mcfg.min_rank = 3;
    mover = std::make_unique<tiering::PageMover>(system, mcfg);
  }

  ArchResult result;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    system.step(ops_per_epoch);
    if (arch == Arch::TmpTiered) {
      const core::ProfileSnapshot snap = daemon->tick();
      mover->apply(snap.ranking, {cfg.tier1_frames - 128});
    } else if (arch == Arch::Swap) {
      // Sweep after every epoch: tier-2 spill becomes swap-backed, and
      // pages allocated there since the last sweep join it (kswapd role).
      if (!swap) swap = std::make_unique<tiering::SwapFarMemory>(system);
      swap->seal();
    }
  }
  const std::uint64_t t1 = system.pmu().truth_total(pmu::Event::MemReadTier1);
  const std::uint64_t t2 = system.pmu().truth_total(pmu::Event::MemReadTier2);
  result.t1_hitrate = (t1 + t2) == 0 ? 1.0
                                     : static_cast<double>(t1) /
                                           static_cast<double>(t1 + t2);
  result.faults = swap ? swap->major_faults() : 0;
  result.runtime_ns = system.now();
  if (daemon) result.runtime_ns += daemon->driver().trace_overhead_ns();
  return result;
}

int bench_main(const util::ArgParser& args) {
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 8));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 400'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Architecture comparison: in-place tiering vs swap-style "
               "far memory (64 MiB fast tier)\n\n";
  util::TextTable table({"workload", "static_ms", "tmp_ms", "swap_ms",
                         "swap vs tmp", "swap faults", "t1 hit (tmp)",
                         "t1 hit (swap)"});
  for (const auto& spec : specs) {
    const ArchResult stat =
        run(Arch::StaticTiered, spec, epochs, ops_per_epoch, seed);
    const ArchResult tmp =
        run(Arch::TmpTiered, spec, epochs, ops_per_epoch, seed);
    const ArchResult swp = run(Arch::Swap, spec, epochs, ops_per_epoch, seed);
    table.add_row(
        {spec.name,
         util::TextTable::num(stat.runtime_ns / util::kMillisecond),
         util::TextTable::num(tmp.runtime_ns / util::kMillisecond),
         util::TextTable::num(swp.runtime_ns / util::kMillisecond),
         util::TextTable::fixed(static_cast<double>(swp.runtime_ns) /
                                    static_cast<double>(tmp.runtime_ns),
                                2) + "x",
         util::TextTable::num(swp.faults),
         util::TextTable::percent(tmp.t1_hitrate),
         util::TextTable::percent(swp.t1_hitrate)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: swap pays a major fault per cold-page touch, so "
               "any workload whose working set exceeds the fast tier runs "
               "multiples slower than in-place tiering — the paper's core "
               "architectural argument. Cache-resident workloads tie.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
