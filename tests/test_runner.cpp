#include "tiering/runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 12;   // 16 MiB fast
  cfg.tier2_frames = 1 << 16;   // 256 MiB slow
  return cfg;
}

RunnerOptions fast_options(const std::string& policy) {
  RunnerOptions opt;
  opt.policy = policy;
  opt.n_epochs = 4;
  opt.ops_per_epoch = 60000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(512);
  return opt;
}

/// Factory for a dataset-load-then-serve process: first-touch fills tier 1
/// with cold initialization pages, which a profile-driven policy reclaims.
WorkloadFactory init_then_serve() {
  return [](std::uint64_t seed) {
    std::vector<workloads::WorkloadPtr> procs;
    procs.push_back(std::make_unique<workloads::InitThenServeWorkload>(
        16 << 20, 8 << 20, 0.9, seed));
    return procs;
  };
}

TEST(Runner, HistoryBeatsFirstTouchOnSkewedWorkload) {
  // Tier 1 must be smaller than the touched footprint or placement is moot.
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  RunnerOptions opt = fast_options("first-touch");
  opt.n_epochs = 6;
  opt.ops_per_epoch = 120000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  const RunnerResult baseline =
      EndToEndRunner::run(init_then_serve(), cfg, opt);
  opt.policy = "history";
  const RunnerResult tmp = EndToEndRunner::run(init_then_serve(), cfg, opt);
  EXPECT_GT(tmp.tier1_hitrate, baseline.tier1_hitrate);
  EXPECT_GT(tmp.migrations, 0U);
  EXPECT_EQ(baseline.migrations, 0U);
}

TEST(Runner, RuntimeAndOverheadArePopulated) {
  const auto spec = workloads::find_spec("web_serving", 0.2);
  const RunnerResult r =
      EndToEndRunner::run(spec, small_config(), fast_options("history"));
  EXPECT_GT(r.runtime_ns, 0U);
  EXPECT_GT(r.profiling_overhead_ns, 0U);
  EXPECT_GE(r.tier1_hitrate, 0.0);
  EXPECT_LE(r.tier1_hitrate, 1.0);
}

TEST(Runner, OraclePrePassWorks) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const RunnerResult oracle =
      EndToEndRunner::run(spec, small_config(), fast_options("oracle"));
  const RunnerResult baseline =
      EndToEndRunner::run(spec, small_config(), fast_options("first-touch"));
  EXPECT_GE(oracle.tier1_hitrate, baseline.tier1_hitrate);
}

TEST(Runner, BadgerTrapEmulationInjectsFaults) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 9;  // force spill so slow pages exist
  RunnerOptions opt = fast_options("history");
  opt.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  const RunnerResult r = EndToEndRunner::run(spec, cfg, opt);
  EXPECT_GT(r.protection_faults, 0U);
}

TEST(Runner, BadgerTrapEmulationPreservesOrdering) {
  // Under the paper's emulation model the TMP-driven run should still beat
  // first-touch on a skewed workload.
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  RunnerOptions hist = fast_options("history");
  hist.n_epochs = 6;
  hist.ops_per_epoch = 120000;
  hist.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  RunnerOptions ft = hist;
  ft.policy = "first-touch";
  hist.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  ft.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  const RunnerResult h = EndToEndRunner::run(init_then_serve(), cfg, hist);
  const RunnerResult f = EndToEndRunner::run(init_then_serve(), cfg, ft);
  EXPECT_GT(h.tier1_hitrate, f.tier1_hitrate);
}

TEST(Runner, DeterministicUnderSeed) {
  const auto spec = workloads::find_spec("gups", 0.05);
  const RunnerResult a =
      EndToEndRunner::run(spec, small_config(), fast_options("history"));
  const RunnerResult b =
      EndToEndRunner::run(spec, small_config(), fast_options("history"));
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.tier1_hitrate, b.tier1_hitrate);
}

// ---------------------------------------------------------------------------
// Tier-chain resolution: the default chain (tier1_frames, tier2_frames) and
// an explicit `tiers` chain with the same names, frames and latencies
// describe one machine, so every slow-memory model must run them bitwise
// alike — the fast-tier capacity and the emulation's equalized latencies
// both come from the resolved chain, not from the frame-count fields.

/// Every RunnerResult field, doubles by bit pattern.
std::vector<std::uint64_t> result_bits(const RunnerResult& r) {
  std::vector<std::uint64_t> out{r.runtime_ns,
                                 std::bit_cast<std::uint64_t>(r.tier1_hitrate),
                                 r.migrations,
                                 r.protection_faults,
                                 r.profiling_overhead_ns};
  const MoveStats& m = r.moves;
  for (const std::uint64_t v :
       {m.promoted, m.demoted, m.retried, m.deferred, m.aborted, m.no_room,
        m.rejected, m.cooled, m.shed, m.moved_bytes, m.cost_ns,
        m.backoff_ns}) {
    out.push_back(v);
  }
  const core::DegradeStats& d = r.degrade;
  for (const std::uint64_t v :
       {d.hwpc_wraps, d.scans_aborted, d.trace_dropped, d.rescaled_epochs,
        d.fallback_epochs, d.pinned_epochs, d.throttled_epochs,
        d.qos_fallback_epochs}) {
    out.push_back(v);
  }
  for (const double h : r.process_hitrates) {
    out.push_back(std::bit_cast<std::uint64_t>(h));
  }
  return out;
}

struct ChainCase {
  SlowMemoryModel model;
};

void PrintTo(const ChainCase& c, std::ostream* os) {
  *os << (c.model == SlowMemoryModel::Native ? "Native" : "BadgerTrap")
      << "TwoTier";
}

class TierChain : public ::testing::TestWithParam<ChainCase> {};

TEST_P(TierChain, ShimAndExplicitChainRunBitwiseAlike) {
  const SlowMemoryModel model = GetParam().model;
  sim::SimConfig defaults = small_config();
  // Far below the default and below the hot set, so the capacity binds.
  defaults.tier1_frames = 1 << 7;
  sim::SimConfig chain;
  chain.cores = defaults.cores;
  chain.llc_bytes = defaults.llc_bytes;
  chain.tiers = sim::tier_specs(defaults);
  ASSERT_NE(chain.tier1_frames, defaults.tier1_frames);

  RunnerOptions opt = fast_options("history");
  opt.n_epochs = 6;  // long enough to leave the init phase and serve
  opt.ops_per_epoch = 120000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  opt.slow_model = model;
  const RunnerResult from_default =
      EndToEndRunner::run(init_then_serve(), defaults, opt);
  const RunnerResult from_chain =
      EndToEndRunner::run(init_then_serve(), chain, opt);
  // The policy acted on the fast-tier capacity: it moved pages or was
  // refused for lack of room.
  EXPECT_GT(from_default.migrations + from_default.moves.no_room, 0U);
  EXPECT_EQ(result_bits(from_default), result_bits(from_chain));
}

INSTANTIATE_TEST_SUITE_P(
    Runner, TierChain,
    ::testing::Values(ChainCase{SlowMemoryModel::Native},
                      ChainCase{SlowMemoryModel::BadgerTrapEmulation}));

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

TEST(Runner, CustomPoliciesRunOnline) {
  // freq-decay and write-history flow through the Policy interface in the
  // online runner; both must run and produce sane results.
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  for (const char* name : {"freq-decay", "write-history"}) {
    RunnerOptions opt = fast_options(name);
    opt.n_epochs = 6;  // long enough to leave the init phase and serve
    opt.ops_per_epoch = 120000;
    opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
    if (std::string(name) == "write-history") {
      opt.daemon.driver.use_pml = true;
    }
    const RunnerResult r =
        EndToEndRunner::run(init_then_serve(), cfg, opt);
    EXPECT_GT(r.runtime_ns, 0U) << name;
    EXPECT_GE(r.tier1_hitrate, 0.0) << name;
    EXPECT_LE(r.tier1_hitrate, 1.0) << name;
    EXPECT_GT(r.migrations, 0U) << name;
  }
}

TEST(Runner, FreqDecayTracksLikeHistory) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  RunnerOptions opt = fast_options("first-touch");
  opt.n_epochs = 6;
  opt.ops_per_epoch = 120000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  const RunnerResult baseline =
      EndToEndRunner::run(init_then_serve(), cfg, opt);
  opt.policy = "freq-decay";
  const RunnerResult decay = EndToEndRunner::run(init_then_serve(), cfg, opt);
  EXPECT_GT(decay.tier1_hitrate, baseline.tier1_hitrate);
}

}  // namespace
}  // namespace tmprof::tiering
