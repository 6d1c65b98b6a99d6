/// Golden-value regression for the figure pipeline: a down-scaled
/// fig6_hitrate computation (sharded engine, fixed seed) checked against
/// values captured in this file with zero tolerance. The sharded engine is
/// deterministic by construction, so any drift here means a semantic change
/// to the engine, monitors, fusion, or policies — if the change is
/// intended, regenerate with
///   TMPROF_REGEN_GOLDEN=1 ./tmprof_tests --gtest_filter='GoldenFigures.*'
/// and paste the printed table over kGolden below.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "tiering/epoch.hpp"
#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {
namespace {

EpochSeries golden_series() {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 13;  // collection tier holds the whole footprint
  cfg.tier2_frames = 1 << 14;
  CollectOptions collect;
  collect.n_epochs = 4;
  collect.ops_per_epoch = 100'000;
  collect.seed = 42;
  collect.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  collect.n_threads = 2;  // any n_threads >= 1 yields the identical series
  return collect_series(spec, cfg, collect);
}

struct GoldenCase {
  const char* policy;
  const char* source;
  core::FusionMode fusion;
  bool oracle_observed;
  std::uint64_t divisor;
  double expected;
};

// Captured from a TMPROF_REGEN_GOLDEN run (hex floats: exact bit patterns).
constexpr std::array<GoldenCase, 12> kGolden{{
    {"oracle", "abit", core::FusionMode::AbitOnly, true, 8, 0x1.de50069791ae1p-3},
    {"oracle", "ibs", core::FusionMode::TraceOnly, true, 8, 0x1.81662038f57aap-4},
    {"oracle", "tmp", core::FusionMode::Sum, true, 8, 0x1.123fd61ef917cp-2},
    {"history", "abit", core::FusionMode::AbitOnly, false, 8,
     0x1.1ec6c4e5188a3p-4},
    {"history", "ibs", core::FusionMode::TraceOnly, false, 8,
     0x1.2bf5e8412aabp-5},
    {"history", "tmp", core::FusionMode::Sum, false, 8, 0x1.64670729067f7p-4},
    {"oracle", "truth", core::FusionMode::Sum, false, 32, 0x1.99c90745fa90ep-3},
    {"history", "tmp", core::FusionMode::Sum, false, 32, 0x1.f97a5abe45412p-6},
    {"first-touch", "none", core::FusionMode::Sum, false, 8,
     0x1.7793512b92a37p-3},
    {"history", "tmp", core::FusionMode::Sum, false, 128,
     0x1.daf9361b70a4ep-8},
    {"oracle", "abit", core::FusionMode::AbitOnly, true, 128,
     0x1.bdace787ba231p-7},
    {"oracle", "truth", core::FusionMode::Sum, false, 128,
     0x1.07618dada309bp-4},
}};

TEST(GoldenFigures, Fig6DownscaledHitratesAreBitStable) {
  const EpochSeries series = golden_series();
  ASSERT_GT(series.footprint_frames, 0U);
  const bool regen = std::getenv("TMPROF_REGEN_GOLDEN") != nullptr;
  for (const GoldenCase& c : kGolden) {
    HitrateOptions opt;
    opt.capacity_frames =
        std::max<std::uint64_t>(1, series.footprint_frames / c.divisor);
    opt.fusion = c.fusion;
    opt.oracle_from_observed = c.oracle_observed;
    const auto policy = make_policy(c.policy);
    const double actual = evaluate_policy(*policy, series, opt).overall;
    if (regen) {
      std::printf("    {\"%s\", \"%s\", core::FusionMode::%s, %s, %llu, %a},\n",
                  c.policy, c.source,
                  c.fusion == core::FusionMode::AbitOnly    ? "AbitOnly"
                  : c.fusion == core::FusionMode::TraceOnly ? "TraceOnly"
                                                            : "Sum",
                  c.oracle_observed ? "true" : "false",
                  static_cast<unsigned long long>(c.divisor), actual);
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
              std::bit_cast<std::uint64_t>(c.expected))
        << c.policy << "/" << c.source << " @1/" << c.divisor << ": got "
        << std::hexfloat << actual << ", golden " << c.expected;
  }
}

}  // namespace
}  // namespace tmprof::tiering
