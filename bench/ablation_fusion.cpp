/// Ablation — rank fusion (DESIGN.md §5). The paper argues for a plain sum
/// of A-bit and trace samples because Fig. 2 shows the populations are
/// comparable. This bench sweeps the alternatives (max, weighted at
/// several trace weights) across workloads and reports History-policy
/// hitrate at two capacity ratios, so the "sum is good enough" claim is
/// tested rather than assumed.
///
/// Usage: ablation_fusion [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N]

#include <iostream>

#include "common.hpp"
#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "util/table.hpp"

namespace {

int bench_main(const tmprof::util::ArgParser& args) {
  using namespace tmprof;
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 8));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 600'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::uint32_t threads = bench::selected_threads(args);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Ablation: rank-fusion mode vs History hitrate\n\n";

  struct Mode {
    const char* label;
    core::FusionMode fusion;
    double weight;
  };
  const Mode modes[] = {
      {"sum (paper)", core::FusionMode::Sum, 1.0},
      {"max", core::FusionMode::Max, 1.0},
      {"weighted t=0.25", core::FusionMode::Weighted, 0.25},
      {"weighted t=4", core::FusionMode::Weighted, 4.0},
      {"abit-only", core::FusionMode::AbitOnly, 1.0},
      {"trace-only", core::FusionMode::TraceOnly, 1.0},
  };

  for (const auto& spec : specs) {
    tiering::CollectOptions collect;
    collect.n_epochs = epochs;
    collect.ops_per_epoch = ops_per_epoch;
    collect.seed = seed;
    collect.daemon.driver.ibs = bench::scaled_ibs(4);
    collect.n_threads = threads;
    const tiering::EpochSeries series = tiering::collect_series(
        spec, bench::testbed_config(spec.total_bytes), collect);

    util::TextTable table({"fusion", "hitrate@1/8", "hitrate@1/32"});
    for (const Mode& mode : modes) {
      std::vector<std::string> row{mode.label};
      for (std::uint64_t div : {8ULL, 32ULL}) {
        tiering::HitrateOptions opt;
        opt.capacity_frames =
            std::max<std::uint64_t>(1, series.footprint_frames / div);
        opt.fusion = mode.fusion;
        opt.trace_weight = mode.weight;
        tiering::HistoryPolicy history;
        row.push_back(util::TextTable::percent(
            tiering::evaluate_policy(history, series, opt).overall));
      }
      table.add_row(row);
    }
    std::cout << "== " << spec.name << " ==\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: sum within noise of the best mode on every "
               "workload; single-source modes lose where their blind spot "
               "dominates.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
