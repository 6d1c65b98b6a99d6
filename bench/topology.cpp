/// Extension — N-tier topology sweep with device-side hotness monitoring
/// (docs/TOPOLOGY.md). Runs each workload over a ladder of tier chains
/// (DRAM+NVM, DRAM+CXL+NVM, DRAM+CXL+NVM+cold — or one custom chain via
/// --tiers=), each with the device-side hot-page counters off and on, so
/// the table doubles as the DevMon ablation: the "devmon" rows fuse the
/// per-device top-K reports into the ranking (FusionMode::SumDev) while
/// the baseline rows rank from IBS + A-bit alone.
///
/// Usage: topology [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=N]
///        [--tiers=name:frames:read_ns:write_ns[:bw_gbps],...]
///        [--devmon-slots=N] [--devmon-topk=N] [--devmon-weight=F]
///        [--csv-out=F] [--check=1]
///
/// --check=1 exits non-zero unless DevMon improves the three-tier chain:
/// >= +2 pp DRAM-tier hitrate or >= 5% runtime reduction on the first
/// selected workload (the PR's acceptance gate, wired into CI).

#include <iostream>
#include <string>
#include <vector>

#include "topology_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace tmprof;

std::string chain_label(const std::vector<mem::TierSpec>& tiers) {
  std::string label;
  for (const mem::TierSpec& spec : tiers) {
    if (!label.empty()) label += '+';
    label += spec.name;
  }
  return label;
}

std::string fills_label(const bench::ChainRun& run) {
  std::string label;
  for (const std::uint64_t fills : run.tier_fills) {
    if (!label.empty()) label += '/';
    label += util::TextTable::num(fills);
  }
  return label;
}

int bench_main(const util::ArgParser& args) {
  bench::ChainOptions base;
  base.epochs = static_cast<std::uint32_t>(args.get_u64("epochs", 8));
  base.ops_per_epoch = args.get_u64("ops-per-epoch", 500'000);
  base.seed = args.get_u64("seed", 42);
  base.ibs_rate = args.get_u64("ibs-rate", 1);
  const monitors::DevMonConfig devmon_cfg = bench::devmon_from_args(args);
  // Device counters see every fill their tier serves while IBS sees a
  // sparse sample, so the fusion weight scales raw device counts down to
  // the sampled-signal magnitude (docs/TOPOLOGY.md). The default is
  // calibrated for the bench's sparse (paper-default) sampling period;
  // heavier weights let the device signal evict hot-but-weakly-sampled
  // DRAM residents, which the device is blind to.
  const double devmon_weight = args.get_checked_double(
      "devmon-weight", 0.008, 0.0, 1e6);
  const std::vector<mem::TierSpec> custom = bench::tiers_from_args(args);
  const bool check = args.get_bool("check", false);
  const std::string csv_out = args.get("csv-out", "");
  const std::vector<workloads::WorkloadSpec> specs = bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Extension: N-tier topology chains with device-side hotness "
               "monitoring (DevMon)\n\n";
  util::TextTable table({"workload", "chain", "devmon", "runtime_ms",
                         "dram hit", "tier fills", "migrations",
                         "dev reports"});
  std::vector<std::vector<std::string>> csv_rows;

  // The --check gate compares the three-tier chain devmon-off vs -on for
  // the first selected workload.
  double check_off_hit = 0.0, check_on_hit = 0.0;
  util::SimNs check_off_ns = 0, check_on_ns = 0;
  bool check_seen = false;

  for (const auto& spec : specs) {
    std::vector<std::vector<mem::TierSpec>> chains;
    if (!custom.empty()) {
      chains.push_back(custom);
    } else {
      chains.push_back(bench::two_tier_chain(spec));
      chains.push_back(bench::three_tier_chain(spec));
      chains.push_back(bench::four_tier_chain(spec));
    }
    for (const std::vector<mem::TierSpec>& chain : chains) {
      for (const bool with_devmon : {false, true}) {
        bench::ChainOptions opt = base;
        opt.devmon = devmon_cfg;
        opt.devmon.enabled = with_devmon;
        opt.fusion = with_devmon ? core::FusionMode::SumDev
                                 : core::FusionMode::Sum;
        opt.devmon_weight = devmon_weight;
        const bench::ChainRun run = bench::run_chain(spec, chain, opt);
        table.add_row({spec.name, chain_label(chain),
                       with_devmon ? "on" : "off",
                       util::TextTable::num(run.runtime_ns /
                                            util::kMillisecond),
                       util::TextTable::percent(run.dram_hitrate),
                       fills_label(run), util::TextTable::num(run.migrations),
                       util::TextTable::num(run.devmon_reported)});
        csv_rows.push_back(
            {spec.name, chain_label(chain), std::to_string(chain.size()),
             with_devmon ? "1" : "0",
             std::to_string(run.runtime_ns / util::kMillisecond),
             std::to_string(run.dram_hitrate), std::to_string(run.migrations),
             std::to_string(run.promoted), std::to_string(run.demoted),
             std::to_string(run.devmon_reported)});
        if (!check_seen && chain.size() == 3) {
          if (with_devmon) {
            check_on_hit = run.dram_hitrate;
            check_on_ns = run.runtime_ns;
            check_seen = true;
          } else {
            check_off_hit = run.dram_hitrate;
            check_off_ns = run.runtime_ns;
          }
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: deeper chains keep the warm band closer to the "
               "core, and the devmon rows promote hot slow-tier pages the "
               "sparse samplers miss — the device counter sees every fill "
               "its tier serves.\n";

  if (!csv_out.empty()) {
    util::CsvWriter csv(csv_out);
    csv.write_row(bench::topology_csv_header());
    for (const std::vector<std::string>& row : csv_rows) csv.write_row(row);
    std::cout << "\nwrote " << csv.rows_written() << " rows to " << csv_out
              << "\n";
  }

  if (check) {
    if (!check_seen) {
      std::cerr << "check: no three-tier chain in the sweep (drop --tiers= "
                   "or pass a 3-tier chain)\n";
      return 1;
    }
    const double hit_gain = check_on_hit - check_off_hit;
    const double runtime_cut =
        check_off_ns == 0 ? 0.0
                          : 1.0 - static_cast<double>(check_on_ns) /
                                      static_cast<double>(check_off_ns);
    std::cout << "\ncheck: devmon dram-hit gain "
              << util::TextTable::fixed(hit_gain * 100.0, 2)
              << " pp, runtime cut "
              << util::TextTable::fixed(runtime_cut * 100.0, 2) << "%\n";
    if (hit_gain < 0.02 && runtime_cut < 0.05) {
      std::cerr << "check FAILED: DevMon must gain >= 2 pp DRAM hitrate or "
                   "cut runtime by >= 5% on the three-tier chain\n";
      return 1;
    }
    std::cout << "check OK\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
