/// Fig. 6 — Tier-1 memory hitrate for the Oracle and History policies with
/// tier-1 capacity ratios from 1/8 to 1/128 of each workload's footprint,
/// fed by (a) A-bit profiling alone, (b) IBS trace profiling alone, and
/// (c) TMP's combined ranking. One epoch series is collected per workload
/// (the paper's "results based on the profiling data"), then replayed
/// through every policy/source/ratio combination.
///
/// Expected shapes: combined >= max(single sources) almost everywhere, with
/// the largest gaps (the paper reports up to ~70%) at small ratios on
/// workloads where the two monitors see different page populations;
/// Oracle >= History per source; the truth-Oracle column bounds everything.
///
/// Usage: fig6_hitrate [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--fusion=sum|max|weighted]
///        [--trace-weight=F] [--csv=0|1] [--fault-rate=F] [--fault-seed=N]
///        [--fault-sites=a,b] [--checkpoint-every=N] [--checkpoint-dir=D]
///        [--resume-from=F] [--resume-latest=0|1] [--keep-last=K]
///        [--metrics-out=F] [--trace-out=F] [--telemetry-every=N]
///        [--backend=ibs|pebs] [--threads=N] [--seed=N]

#include <array>
#include <fstream>
#include <iostream>

#include "common.hpp"
#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tmprof;

core::FusionMode combined_mode(const std::string& name) {
  if (name == "sum") return core::FusionMode::Sum;
  if (name == "max") return core::FusionMode::Max;
  if (name == "weighted") return core::FusionMode::Weighted;
  throw std::invalid_argument("unknown --fusion: " + name);
}

double run_case(const tiering::EpochSeries& series, const std::string& policy,
                core::FusionMode fusion, double trace_weight,
                std::uint64_t capacity, bool oracle_observed) {
  tiering::HitrateOptions opt;
  opt.capacity_frames = capacity;
  opt.fusion = fusion;
  opt.trace_weight = trace_weight;
  opt.oracle_from_observed = oracle_observed;
  const auto p = tiering::make_policy(policy);
  return tiering::evaluate_policy(*p, series, opt).overall;
}

int bench_main(const util::ArgParser& args) {
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 10));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 800'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const core::FusionMode combined =
      combined_mode(args.get("fusion", "sum"));
  const double trace_weight = args.get_double("trace-weight", 1.0);
  const bool write_csv = args.get_bool("csv", true);
  const std::uint32_t threads = bench::selected_threads(args);
  const util::FaultConfig fault = bench::fault_from_args(args);
  const bool pebs = args.get("backend", "ibs") == "pebs";
  const util::ckpt::Options checkpoint = bench::checkpoint_from_args(args);
  const std::unique_ptr<telemetry::Telemetry> telemetry =
      bench::telemetry_from_args(args);
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Fig. 6: tier-1 hitrate, Oracle & History x profiling source\n"
            << "(epoch = " << ops_per_epoch << " ops, " << epochs
            << " epochs; combined fusion = " << core::to_string(combined)
            << ")\n\n";

  const std::array<std::uint64_t, 5> divisors{8, 16, 32, 64, 128};
  std::ofstream csv;
  if (write_csv) {
    csv.open("fig6_hitrate.csv");
    csv << "workload,ratio,policy,source,hitrate,trace_dropped,"
           "scans_aborted\n";
  }

  // Collection dominates the wall clock; the replay below is cheap. With
  // --threads=N the workloads (independent Systems) collect concurrently,
  // each on the sharded engine; a single selected workload instead shards
  // its own cores across the pool. Either way the series are identical to
  // a --threads=1 run — output order is fixed by the spec list.
  std::vector<tiering::EpochSeries> collected(specs.size());
  // One telemetry sink cannot be shared by concurrently-collecting
  // Systems, so telemetry forces the (deterministically identical)
  // serial workload loop; --threads still shards each System's cores.
  const bool outer_parallel =
      threads > 1 && specs.size() > 1 && telemetry == nullptr;
  const auto collect_one = [&](std::size_t i) {
    tiering::CollectOptions collect;
    collect.n_epochs = epochs;
    collect.ops_per_epoch = ops_per_epoch;
    collect.seed = seed;
    collect.daemon.driver.ibs = bench::scaled_ibs(4);
    if (pebs) {
      // Intel testbeds use PEBS armed on LLC misses instead of IBS; the
      // driver is backend-agnostic, so Fig. 6 can be regenerated per
      // vendor (sample_after tuned to a comparable sample rate).
      collect.daemon.driver.backend = core::TraceBackend::Pebs;
      collect.daemon.driver.pebs.sample_after = 16;
    }
    collect.daemon.fault = fault;
    collect.n_threads = outer_parallel ? 1 : threads;
    collect.checkpoint = checkpoint;
    collect.checkpoint.basename = specs[i].name + "-collect";
    collect.telemetry = telemetry.get();
    collect.telemetry_label = specs[i].name + "/collect";
    collected[i] = tiering::collect_series(
        specs[i], bench::testbed_config(specs[i].total_bytes), collect);
  };
  if (outer_parallel) {
    util::ThreadPool pool(threads);
    pool.parallel_for(specs.size(), collect_one);
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) collect_one(i);
  }

  double worst_gain = 1e9, best_gain = 0.0;
  for (std::size_t spec_idx = 0; spec_idx < specs.size(); ++spec_idx) {
    const workloads::WorkloadSpec& spec = specs[spec_idx];
    const tiering::EpochSeries& series = collected[spec_idx];

    util::TextTable table({"t1 ratio", "orc-abit", "orc-ibs", "orc-tmp",
                           "hist-abit", "hist-ibs", "hist-tmp", "orc-truth",
                           "first-touch"});
    for (const std::uint64_t div : divisors) {
      const std::uint64_t capacity =
          std::max<std::uint64_t>(1, series.footprint_frames / div);
      struct Case {
        const char* policy;
        const char* source;
        core::FusionMode fusion;
        bool observed;
      };
      const std::array<Case, 8> cases{{
          {"oracle", "abit", core::FusionMode::AbitOnly, true},
          {"oracle", "ibs", core::FusionMode::TraceOnly, true},
          {"oracle", "tmp", combined, true},
          {"history", "abit", core::FusionMode::AbitOnly, false},
          {"history", "ibs", core::FusionMode::TraceOnly, false},
          {"history", "tmp", combined, false},
          {"oracle", "truth", combined, false},
          {"first-touch", "-", combined, false},
      }};
      std::vector<std::string> row{"1/" + std::to_string(div)};
      std::array<double, 8> rates{};
      for (std::size_t c = 0; c < cases.size(); ++c) {
        rates[c] = run_case(series, cases[c].policy, cases[c].fusion,
                            trace_weight, capacity, cases[c].observed);
        row.push_back(util::TextTable::percent(rates[c]));
        if (write_csv) {
          csv << spec.name << ",1/" << div << ',' << cases[c].policy << ','
              << cases[c].source << ',' << rates[c] << ','
              << series.degrade.trace_dropped << ','
              << series.degrade.scans_aborted << '\n';
        }
      }
      table.add_row(row);
      // TMP's gain over the best piecemeal source (History rows).
      const double piecemeal = std::max(rates[3], rates[4]);
      if (piecemeal > 0.0) {
        const double gain = rates[5] / piecemeal;
        best_gain = std::max(best_gain, gain);
        worst_gain = std::min(worst_gain, gain);
      }
    }
    std::cout << "== " << spec.name << " (footprint "
              << (series.footprint_frames >> 8) << " MiB) ==\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "History(TMP) vs best single source: gain range "
            << util::TextTable::fixed(worst_gain, 2) << "x .. "
            << util::TextTable::fixed(best_gain, 2)
            << "x (paper: combined wins by up to ~1.6-1.7x)\n";
  if (write_csv) std::cout << "Series written to fig6_hitrate.csv\n";
  if (telemetry) telemetry->export_final();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
