/// A web service under TMP-driven tiering: the paper's CloudSuite
/// Web-Serving workload runs with a fast tier far smaller than its
/// content. Two identical machines run side by side — one first-touch,
/// one with the TMP daemon + page mover — and the per-epoch fast-tier
/// hitrates are compared.
///
/// User sessions drift (yesterday's hot profiles cool down), so
/// first-touch placement decays while TMP keeps re-capturing the moving
/// hot set: the gap between the two columns is the profiler's value.
///
/// Build & run:  ./build/examples/caching_tiering

#include <iostream>

#include "core/daemon.hpp"
#include "pmu/events.hpp"
#include "sim/system.hpp"
#include "tiering/mover.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace tmprof;

/// One machine + service + (optional) profiler/mover.
struct Deployment {
  sim::System system;
  std::unique_ptr<core::TmpDaemon> daemon;
  std::unique_ptr<tiering::PageMover> mover;
  std::uint64_t last_t1 = 0;
  std::uint64_t last_total = 0;

  explicit Deployment(const workloads::WorkloadSpec& spec,
                      const sim::SimConfig& config, bool with_tmp)
      : system(config) {
    for (std::uint32_t i = 0; i < spec.processes; ++i) {
      system.add_process(workloads::make_workload(spec, i, /*seed=*/7));
    }
    if (with_tmp) {
      core::DaemonConfig daemon_config;
      daemon_config.driver.ibs = monitors::IbsConfig::with_period(256);
      daemon.reset(new core::TmpDaemon(system, daemon_config));
      tiering::MoverConfig mover_config;
      mover_config.per_page_cost_ns = 2500;
      mover.reset(new tiering::PageMover(system, mover_config));
    }
  }

  /// Run one epoch; returns this epoch's fast-tier hitrate and migrations.
  std::pair<double, std::uint64_t> epoch(std::uint64_t ops,
                                         std::uint64_t capacity_frames) {
    system.step(ops);
    std::uint64_t moves = 0;
    if (daemon) {
      const core::ProfileSnapshot snap = daemon->tick();
      const tiering::MoveStats stats =
          mover->apply(snap.ranking, {capacity_frames});
      moves = stats.promoted + stats.demoted;
    }
    const std::uint64_t t1 =
        system.pmu().truth_total(pmu::Event::MemReadTier1);
    const std::uint64_t t2 =
        system.pmu().truth_total(pmu::Event::MemReadTier2);
    const std::uint64_t total = t1 + t2;
    const double hitrate =
        total == last_total
            ? 1.0
            : static_cast<double>(t1 - last_t1) /
                  static_cast<double>(total - last_total);
    last_t1 = t1;
    last_total = total;
    return {hitrate, moves};
  }
};

}  // namespace

int main() {
  const auto spec = workloads::find_spec("web_serving", 0.5);
  sim::SimConfig config;
  config.llc_bytes = 1ULL << 20;
  // Fast tier: 1/8 of the content. Slow tier: everything else.
  config.tier1_frames = (spec.total_bytes >> mem::kPageShift) / 8;
  config.tier2_frames = (spec.total_bytes >> mem::kPageShift) * 5 / 4;
  std::cout << "web_serving: " << spec.processes << " servers, "
            << (spec.total_bytes >> 20) << " MiB content, "
            << (config.tier1_frames >> 8) << " MiB fast tier, churning "
            << "key popularity\n\n";

  Deployment baseline(spec, config, /*with_tmp=*/false);
  Deployment tmp(spec, config, /*with_tmp=*/true);

  util::TextTable table({"epoch", "hitrate (first-touch)", "hitrate (tmp)",
                         "advantage", "migrations"});
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto [base_hit, base_moves] =
        baseline.epoch(800'000, config.tier1_frames);
    (void)base_moves;
    const auto [tmp_hit, tmp_moves] =
        tmp.epoch(800'000, config.tier1_frames);
    table.add_row({util::TextTable::num(static_cast<std::uint64_t>(epoch)),
                   util::TextTable::percent(base_hit),
                   util::TextTable::percent(tmp_hit),
                   util::TextTable::fixed(100.0 * (tmp_hit - base_hit), 1) +
                       "pp",
                   util::TextTable::num(tmp_moves)});
  }
  table.print(std::cout);
  std::cout << "\nBoth columns drift down as the cold tail grows, but TMP "
               "keeps re-capturing the moving hot set; the advantage column "
               "is the profiler's contribution.\n";
  return 0;
}
