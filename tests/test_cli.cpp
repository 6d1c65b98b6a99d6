#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace tmprof::util {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, KeyValuePairs) {
  const auto p = parse({"--workload=gups", "--epochs=12"});
  EXPECT_EQ(p.get("workload", ""), "gups");
  EXPECT_EQ(p.get_u64("epochs", 0), 12U);
}

TEST(Cli, BareFlagIsTrue) {
  const auto p = parse({"--verbose"});
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_TRUE(p.get_bool("verbose", false));
}

TEST(Cli, FallbacksWhenMissing) {
  const auto p = parse({});
  EXPECT_FALSE(p.has("x"));
  EXPECT_EQ(p.get("x", "dflt"), "dflt");
  EXPECT_EQ(p.get_u64("x", 7), 7U);
  EXPECT_DOUBLE_EQ(p.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(p.get_bool("x", false));
}

TEST(Cli, Positional) {
  const auto p = parse({"first", "--k=v", "second"});
  ASSERT_EQ(p.positional().size(), 2U);
  EXPECT_EQ(p.positional()[0], "first");
  EXPECT_EQ(p.positional()[1], "second");
}

TEST(Cli, BooleanSpellings) {
  const auto p = parse({"--a=yes", "--b=off", "--c=1", "--d=false"});
  EXPECT_TRUE(p.get_bool("a", false));
  EXPECT_FALSE(p.get_bool("b", true));
  EXPECT_TRUE(p.get_bool("c", false));
  EXPECT_FALSE(p.get_bool("d", true));
}

TEST(Cli, BadBooleanThrows) {
  const auto p = parse({"--a=maybe"});
  EXPECT_THROW(p.get_bool("a", false), std::invalid_argument);
}

TEST(Cli, DoubleParsing) {
  const auto p = parse({"--theta=0.99"});
  EXPECT_DOUBLE_EQ(p.get_double("theta", 0.0), 0.99);
}

TEST(Cli, NegativeU64Throws) {
  // std::stoull would silently wrap "-3" to a huge value; the parser must
  // reject it with a message naming the flag.
  const auto p = parse({"--epochs=-3"});
  try {
    (void)p.get_u64("epochs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--epochs"), std::string::npos);
  }
}

TEST(Cli, GarbageU64Throws) {
  const auto p = parse({"--epochs=12abc", "--ops=", "--seed= -3"});
  EXPECT_THROW((void)p.get_u64("epochs", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u64("ops", 0), std::invalid_argument);
  // std::stoull skips the blank and then wraps the sign.
  EXPECT_THROW((void)p.get_u64("seed", 0), std::invalid_argument);
}

TEST(Cli, GarbageDoubleThrows) {
  for (const char* flag : {"--rate=0.5x", "--rate=nan", "--rate=inf",
                           "--rate=-inf"}) {
    EXPECT_THROW((void)parse({flag}).get_double("rate", 0.0),
                 std::invalid_argument)
        << flag;
  }
}

TEST(Cli, RateRejectsOutOfRange) {
  const auto neg = parse({"--fault-rate=-0.1"});
  try {
    (void)neg.get_rate("fault-rate", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--fault-rate"), std::string::npos);
  }
  const auto big = parse({"--fault-rate=1.5"});
  EXPECT_THROW((void)big.get_rate("fault-rate", 0.0), std::invalid_argument);
  // NaN fails both range comparisons, so get_double itself must refuse it.
  const auto nan = parse({"--fault-rate=nan"});
  EXPECT_THROW((void)nan.get_rate("fault-rate", 0.0), std::invalid_argument);
  const auto ok = parse({"--fault-rate=0.25"});
  EXPECT_DOUBLE_EQ(ok.get_rate("fault-rate", 0.0), 0.25);
}

TEST(Cli, CheckedDoubleBounds) {
  const auto p = parse({"--w=2.0"});
  EXPECT_DOUBLE_EQ(p.get_checked_double("w", 0.0, 0.0, 4.0), 2.0);
  EXPECT_THROW((void)p.get_checked_double("w", 0.0, 0.0, 1.0),
               std::invalid_argument);
}

TEST(Cli, RejectUnreadNamesTheFirstUnreadFlag) {
  const auto p = parse({"--workload=lulesh", "--stream=1",
                        "--bogus-flag=1"});
  EXPECT_EQ(p.get("workload", ""), "lulesh");
  try {
    p.reject_unread();
    FAIL() << "unread flags accepted";
  } catch (const std::invalid_argument& err) {
    // Flags are checked in key order: --bogus-flag before --stream.
    EXPECT_STREQ(err.what(), "unknown flag --bogus-flag");
  }
  (void)p.get_u64("bogus-flag", 0);
  try {
    p.reject_unread();
    FAIL() << "unread --stream accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(), "unknown flag --stream");
  }
}

TEST(Cli, EveryAccessorMarksItsFlagRead) {
  const auto p = parse({"--a", "--b=x", "--c=1", "--d=0.5", "--e=0.25",
                        "--f=2.0", "--g=on", "positional"});
  EXPECT_TRUE(p.has("a"));
  EXPECT_EQ(p.get("b", ""), "x");
  EXPECT_EQ(p.get_u64("c", 0), 1U);
  EXPECT_DOUBLE_EQ(p.get_double("d", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(p.get_rate("e", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(p.get_checked_double("f", 0.0, 0.0, 4.0), 2.0);
  EXPECT_TRUE(p.get_bool("g", false));
  // Asking about absent flags and positional arguments is fine.
  EXPECT_FALSE(p.has("absent"));
  EXPECT_NO_THROW(p.reject_unread());
}

}  // namespace
}  // namespace tmprof::util

#include "../bench/common.hpp"
#include "util/fault.hpp"

namespace tmprof::util {
namespace {

TEST(FaultSitesCli, AllAliasExpandsToEverySite) {
  const std::vector<FaultSite> sites = parse_fault_sites("all");
  ASSERT_EQ(sites.size(), kFaultSiteCount);
  for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
    EXPECT_EQ(sites[s], static_cast<FaultSite>(s));
  }
}

TEST(FaultSitesCli, MigrationAliasCoversBothMigrationSites) {
  const std::vector<FaultSite> sites = parse_fault_sites("migration");
  ASSERT_EQ(sites.size(), 2U);
  EXPECT_EQ(sites[0], FaultSite::MigrationBusy);
  EXPECT_EQ(sites[1], FaultSite::MigrationNoMem);
}

TEST(FaultSitesCli, NamedSitesAndEmptyTokensParse) {
  const std::vector<FaultSite> sites =
      parse_fault_sites("trace-overflow,,hwpc-wrap");
  ASSERT_EQ(sites.size(), 2U);
  EXPECT_EQ(sites[0], FaultSite::TraceOverflow);
  EXPECT_EQ(sites[1], FaultSite::HwpcWrap);
}

TEST(FaultSitesCli, UnknownSiteErrorEnumeratesValidNames) {
  // The error message must list every valid site name and the aliases, so
  // a typo on the command line is self-documenting.
  try {
    (void)parse_fault_sites("migration-busy,bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'bogus'"), std::string::npos);
    for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
      const auto name = to_string(static_cast<FaultSite>(s));
      EXPECT_NE(msg.find(std::string(name)), std::string::npos)
          << "message does not list site " << name;
    }
    EXPECT_NE(msg.find("all"), std::string::npos);
    EXPECT_NE(msg.find("migration"), std::string::npos);
  }
}

TEST(FaultSitesCli, EmptyListErrorEnumeratesValidNames) {
  try {
    (void)parse_fault_sites(",,");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
      const auto name = to_string(static_cast<FaultSite>(s));
      EXPECT_NE(msg.find(std::string(name)), std::string::npos);
    }
  }
}

TEST(GoldenSchema, RobustnessCsvHeader) {
  // Golden schema for robustness.csv: downstream plotting scripts key on
  // these column names in this order. Changing the bench output requires
  // updating this test in the same commit — that is the point.
  const std::vector<std::string> want{
      "workload",      "fault_rate", "policy",        "runtime_ms",
      "speedup",       "hitrate",    "migrations",    "retried",
      "deferred",      "aborted",    "no_room",       "trace_dropped",
      "scans_aborted", "hwpc_wraps", "pinned_epochs", "fallback_epochs"};
  EXPECT_EQ(bench::robustness_csv_header(), want);
}

TEST(GoldenSchema, StormCsvHeader) {
  // Golden schema for storm.csv (bench/robustness --storm). The CI storm
  // gate and any plotting script key on these names in this order.
  const std::vector<std::string> want{
      "scenario",         "admission",       "runtime_ms",
      "hitrate",          "migrations",      "moved_mb",
      "rejected",         "cooled",          "shed",
      "throttled_epochs", "bytes_saved_pct", "hitrate_delta"};
  EXPECT_EQ(bench::storm_csv_header(), want);
}

TEST(AdmissionCli, FlagsParseIntoConfig) {
  const auto p =
      parse({"--admission=adaptive", "--mig-bandwidth=200", "--mig-burst=2",
             "--cooldown-epochs=6", "--min-benefit=5", "--min-history=3",
             "--max-moves=128"});
  const tiering::AdmissionConfig adm = bench::admission_from_args(p);
  EXPECT_EQ(adm.mode, tiering::AdmissionMode::Adaptive);
  EXPECT_EQ(adm.bandwidth_bytes_per_sec, 200'000'000U);
  EXPECT_EQ(adm.burst_bytes, 2'000'000U);
  EXPECT_EQ(adm.cooldown_epochs, 6U);
  EXPECT_EQ(adm.min_benefit, 5U);
  EXPECT_EQ(adm.min_history, 3U);
  EXPECT_EQ(adm.max_moves_per_epoch, 128U);
}

TEST(AdmissionCli, DefaultIsOff) {
  const tiering::AdmissionConfig adm = bench::admission_from_args(parse({}));
  EXPECT_EQ(adm.mode, tiering::AdmissionMode::Off);
  EXPECT_EQ(adm.bandwidth_bytes_per_sec, 0U);
}

TEST(AdmissionCli, UnknownModeErrorEnumeratesValidNames) {
  try {
    (void)bench::admission_from_args(parse({"--admission=banana"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("banana"), std::string::npos);
    EXPECT_NE(msg.find("off"), std::string::npos);
    EXPECT_NE(msg.find("static"), std::string::npos);
    EXPECT_NE(msg.find("adaptive"), std::string::npos);
  }
}

TEST(AdmissionCli, NegativeBandwidthRejected) {
  EXPECT_THROW(
      (void)bench::admission_from_args(parse({"--mig-bandwidth=-100"})),
      std::invalid_argument);
  EXPECT_THROW((void)bench::admission_from_args(parse({"--mig-burst=-1"})),
               std::invalid_argument);
}

TEST(AdmissionCli, ZeroCooldownWindowRejected) {
  try {
    (void)bench::admission_from_args(parse({"--cooldown-epochs=0"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cooldown-epochs"),
              std::string::npos);
  }
}

TEST(GoldenSchema, FleetCsvHeader) {
  // Golden schema for fleet.csv (bench/consolidation --fleet). The CI
  // isolation gate and per-tenant plotting scripts key on these names in
  // this order.
  const std::vector<std::string> want{
      "mode",           "tenant",          "qos",
      "hitrate",        "floor_frames",    "grant_frames",
      "occupancy_frames", "quota_shed",    "reclaimed_frames",
      "bandwidth_rejected"};
  EXPECT_EQ(bench::fleet_csv_header(), want);
}

TEST(TenantCli, FleetFlagsParseIntoArgs) {
  const auto p = parse({"--tenants=24", "--qos=batch", "--quota-floor=640",
                        "--churn-rate=0.8", "--fleet"});
  const bench::FleetArgs fleet = bench::fleet_from_args(p);
  EXPECT_EQ(fleet.n_tenants, 24U);
  EXPECT_EQ(fleet.service_qos, tiering::QosClass::Batch);
  EXPECT_EQ(fleet.quota_floor_frames, 640U);
  EXPECT_DOUBLE_EQ(fleet.churn_rate, 0.8);
  EXPECT_FALSE(fleet.isolation_check);
}

TEST(TenantCli, DefaultsWhenUnset) {
  const bench::FleetArgs fleet = bench::fleet_from_args(parse({"--fleet"}));
  EXPECT_EQ(fleet.n_tenants, 12U);
  EXPECT_EQ(fleet.service_qos, tiering::QosClass::Latency);
  EXPECT_EQ(fleet.quota_floor_frames, 0U);  // bench picks its default
  EXPECT_DOUBLE_EQ(fleet.churn_rate, 0.5);
}

TEST(TenantCli, UnknownQosClassErrorEnumeratesValidNames) {
  try {
    (void)bench::fleet_from_args(parse({"--qos=besteffort"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("besteffort"), std::string::npos);
    EXPECT_NE(msg.find("latency"), std::string::npos);
    EXPECT_NE(msg.find("batch"), std::string::npos);
  }
}

TEST(TenantCli, TooFewTenantsRejected) {
  for (const char* flag : {"--tenants=0", "--tenants=1"}) {
    try {
      (void)bench::fleet_from_args(parse({flag}));
      FAIL() << "expected std::invalid_argument for " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--tenants"), std::string::npos);
    }
  }
  // Negative counts die in the integer parser with the flag named.
  EXPECT_THROW((void)bench::fleet_from_args(parse({"--tenants=-4"})),
               std::invalid_argument);
}

TEST(TenantCli, NonPositiveFloorRejected) {
  for (const char* flag : {"--quota-floor=0", "--quota-floor=-128"}) {
    try {
      (void)bench::fleet_from_args(parse({flag}));
      FAIL() << "expected std::invalid_argument for " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--quota-floor"),
                std::string::npos);
    }
  }
}

TEST(TenantCli, ChurnRateMustBeStrictlyBetweenZeroAndOne) {
  for (const char* flag :
       {"--churn-rate=0", "--churn-rate=1", "--churn-rate=-0.5",
        "--churn-rate=1.5"}) {
    try {
      (void)bench::fleet_from_args(parse({flag}));
      FAIL() << "expected std::invalid_argument for " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--churn-rate"),
                std::string::npos);
    }
  }
}

TEST(TenantCli, IsolationCheckRequiresLatencyQos) {
  EXPECT_THROW((void)bench::fleet_from_args(parse({"--isolation-check=1"})),
               std::invalid_argument);
  EXPECT_THROW((void)bench::fleet_from_args(
                   parse({"--isolation-check=1", "--qos=batch"})),
               std::invalid_argument);
  const bench::FleetArgs fleet = bench::fleet_from_args(
      parse({"--isolation-check=1", "--qos=latency"}));
  EXPECT_TRUE(fleet.isolation_check);
}

TEST(GoldenSchema, CheckpointFlagsParseIntoOptions) {
  const auto p = parse({"--checkpoint-every=4", "--checkpoint-dir=/tmp/ck",
                        "--resume-latest", "--keep-last=5"});
  const ckpt::Options ck = bench::checkpoint_from_args(p);
  EXPECT_EQ(ck.every, 4U);
  EXPECT_EQ(ck.dir, "/tmp/ck");
  EXPECT_TRUE(ck.resume_latest);
  EXPECT_EQ(ck.keep_last, 5U);
  EXPECT_TRUE(ck.enabled());
  EXPECT_FALSE(bench::checkpoint_from_args(parse({})).enabled());
}

TEST(TopologyCli, ChainParsesIntoTierSpecs) {
  const auto p = parse(
      {"--tiers=dram:8192:80:80,cxl:16384:150:200:32,nvm:262144:300:600:8"});
  const std::vector<mem::TierSpec> tiers = bench::tiers_from_args(p);
  ASSERT_EQ(tiers.size(), 3U);
  EXPECT_EQ(tiers[0].name, "dram");
  EXPECT_EQ(tiers[0].frames, 8192U);
  EXPECT_EQ(tiers[0].read_latency_ns, 80U);
  EXPECT_EQ(tiers[0].write_latency_ns, 80U);
  EXPECT_EQ(tiers[0].line_transfer_ns, 0U);  // no bandwidth term given
  EXPECT_EQ(tiers[1].name, "cxl");
  EXPECT_EQ(tiers[1].line_transfer_ns, 2U);  // 64 B / 32 GB/s = 2 ns
  EXPECT_EQ(tiers[2].name, "nvm");
  EXPECT_EQ(tiers[2].line_transfer_ns, 8U);  // 64 B / 8 GB/s = 8 ns
}

TEST(TopologyCli, AbsentFlagMeansLegacyShim) {
  EXPECT_TRUE(bench::tiers_from_args(parse({})).empty());
}

TEST(TopologyCli, MalformedSpecsRejectedWithFlagName) {
  for (const char* flag :
       {"--tiers=dram:100:80",                    // too few fields
        "--tiers=dram:100:80:80:8:9",             // too many fields
        "--tiers=dram:x:80:80,nvm:100:300:600",   // non-integer frames
        "--tiers=:100:80:80,nvm:100:300:600",     // empty name
        "--tiers=dram:100:80:80,nvm:100:300:600:0",   // zero bandwidth
        "--tiers=dram:100:80:80,nvm:100:300:600:-4",  // negative bw
        "--tiers=dram:-1:80:80,nvm:100:300:600",      // wraps in stoull
        "--tiers=dram:100:80:80,nvm:100:300:600:nan",   // passes bw <= 0
        "--tiers=dram:100:80:80,nvm:100:300:600:inf"}) {  // 0 ns per line
    try {
      (void)bench::tiers_from_args(parse({flag}));
      FAIL() << "expected std::invalid_argument for " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--tiers"), std::string::npos)
          << flag;
    }
  }
}

TEST(TopologyCli, ZeroFrameTierRejectedByName) {
  try {
    (void)bench::tiers_from_args(
        parse({"--tiers=dram:8192:80:80,cxl:0:150:200"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cxl"), std::string::npos);
    EXPECT_NE(msg.find("zero frames"), std::string::npos);
  }
}

TEST(TopologyCli, DescendingLatencyChainRejected) {
  // The chain must be ordered fastest first; a later tier with a *lower*
  // read latency means the order is wrong, and the message names both
  // offending tiers.
  try {
    (void)bench::tiers_from_args(
        parse({"--tiers=nvm:8192:300:600,dram:8192:80:80"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fastest first"), std::string::npos);
    EXPECT_NE(msg.find("nvm"), std::string::npos);
    EXPECT_NE(msg.find("dram"), std::string::npos);
  }
}

TEST(TopologyCli, ChainLengthBoundsEnforced) {
  EXPECT_THROW((void)bench::tiers_from_args(parse({"--tiers=solo:100:80:80"})),
               std::invalid_argument);
  std::string nine = "--tiers=t0:100:80:80";
  for (int t = 1; t < 9; ++t) {
    nine += ",t" + std::to_string(t) + ":100:80:80";
  }
  EXPECT_THROW((void)bench::tiers_from_args(parse({nine.c_str()})),
               std::invalid_argument);
}

TEST(DevMonCli, FlagsParseIntoConfig) {
  const auto p =
      parse({"--devmon=1", "--devmon-slots=512", "--devmon-topk=32"});
  const monitors::DevMonConfig dm = bench::devmon_from_args(p);
  EXPECT_TRUE(dm.enabled);
  EXPECT_EQ(dm.slots, 512U);
  EXPECT_EQ(dm.top_k, 32U);
  EXPECT_FALSE(bench::devmon_from_args(parse({})).enabled);
}

TEST(DevMonCli, ZeroSlotsRejected) {
  EXPECT_THROW((void)bench::devmon_from_args(parse({"--devmon-slots=0"})),
               std::invalid_argument);
}

TEST(DevMonCli, TopKMustFitTheSlotArray) {
  EXPECT_THROW((void)bench::devmon_from_args(parse({"--devmon-topk=0"})),
               std::invalid_argument);
  EXPECT_THROW((void)bench::devmon_from_args(
                   parse({"--devmon-slots=64", "--devmon-topk=65"})),
               std::invalid_argument);
}

TEST(GoldenSchema, TopologyCsvHeader) {
  // Golden schema for topology.csv (bench/topology). The CI topology smoke
  // job uploads this file; plotting scripts key on these names in order.
  const std::vector<std::string> want{
      "workload", "chain",      "tiers",    "devmon",
      "runtime_ms", "dram_hitrate", "migrations", "promoted",
      "demoted",  "devmon_reported"};
  EXPECT_EQ(bench::topology_csv_header(), want);
}

}  // namespace
}  // namespace tmprof::util
