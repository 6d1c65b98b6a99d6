/// Custom policy: the library's policy interface is the paper's stable
/// profiler-policy boundary — "system software developers are free to
/// handcraft their own hybrid memory-architecture policies" (Section I).
///
/// This example implements a *write-aware* policy (CLOCK-DWF-flavored):
/// pages with store traffic are preferred for the fast tier, because slow
/// NVM media pays a much larger write than read penalty. It plugs into the
/// same evaluation pipeline as the built-in policies.
///
/// Build & run:  ./build/examples/custom_policy

#include <algorithm>
#include <iostream>
#include <vector>

#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace tmprof;

/// Prefers pages whose profile shows write activity; rank = hotness
/// boosted by a write multiplier. Demonstrates that PolicyContext exposes
/// enough profile detail (per-source counts in the ranking entries) for
/// media-aware decisions.
class WriteAwarePolicy final : public tiering::Policy {
 public:
  explicit WriteAwarePolicy(double write_boost) : write_boost_(write_boost) {}

  tiering::PlacementSet choose(const tiering::PolicyContext& ctx) override {
    std::vector<core::PageRank> boosted(*ctx.observed_ranking);
    for (core::PageRank& pr : boosted) {
      // Trace samples carry store/load provenance upstream; here the A-bit
      // count approximates touch recency and the trace count volume. A
      // dirty-heavy page shows high trace counts relative to A-bit ones.
      const double write_signal =
          pr.abit == 0 ? 1.0
                       : static_cast<double>(pr.trace) /
                             static_cast<double>(pr.abit);
      pr.rank = static_cast<std::uint64_t>(
          static_cast<double>(pr.rank) *
          (1.0 + write_boost_ * std::min(write_signal, 4.0)));
    }
    // The ranking arrives in no particular order; take_hottest fills tier 1
    // best first under the order given here (boosted rank, then key).
    return take_hottest(
        boosted, core::RankOrder{},
        [](const core::PageRank& pr) -> const tiering::PageKey& {
          return pr.key;
        },
        ctx);
  }

  [[nodiscard]] std::string_view name() const override {
    return "write-aware";
  }

 private:
  double write_boost_;
};

}  // namespace

int main() {
  const auto spec = workloads::find_spec("data_analytics", 0.5);
  sim::SimConfig config;
  config.llc_bytes = 1ULL << 20;
  config.tier1_frames = (spec.total_bytes >> mem::kPageShift) * 5 / 4;
  config.tier2_frames = 2048;

  tiering::CollectOptions collect;
  collect.n_epochs = 8;
  collect.ops_per_epoch = 600'000;
  collect.daemon.driver.ibs = monitors::IbsConfig::with_period(1024);
  const tiering::EpochSeries series =
      tiering::collect_series(spec, config, collect);

  util::TextTable table({"policy", "t1=1/8", "t1=1/32"});
  auto eval = [&](tiering::Policy& policy, std::uint64_t divisor) {
    tiering::HitrateOptions options;
    options.capacity_frames = series.footprint_frames / divisor;
    return tiering::evaluate_policy(policy, series, options).overall;
  };
  for (const char* builtin : {"history", "freq-decay", "first-touch"}) {
    auto policy8 = tiering::make_policy(builtin);
    auto policy32 = tiering::make_policy(builtin);
    table.add_row({builtin, util::TextTable::percent(eval(*policy8, 8)),
                   util::TextTable::percent(eval(*policy32, 32))});
  }
  WriteAwarePolicy custom8(0.5), custom32(0.5);
  table.add_row({"write-aware (custom)",
                 util::TextTable::percent(eval(custom8, 8)),
                 util::TextTable::percent(eval(custom32, 32))});
  table.print(std::cout);
  std::cout << "\nThe custom policy uses only the public PolicyContext; no "
               "library changes were needed.\n";
  return 0;
}
