#pragma once
/// \file common.hpp
/// Shared configuration for the paper-reproduction benches.
///
/// The simulator reproduces the paper's testbed at ~1/64 scale: workload
/// footprints, the LLC, TLB reach and the IBS sampling period all shrink by
/// the same factor, so every capacity *ratio* that drives the paper's
/// results is preserved. See DESIGN.md §2 for the substitution table.

#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "monitors/devmon.hpp"
#include "monitors/ibs.hpp"
#include "sim/config.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/admission.hpp"
#include "tiering/tenant.hpp"
#include "util/ckpt.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"
#include "workloads/registry.hpp"

namespace tmprof::bench {

/// The scaled Ryzen-3600X-like testbed.
inline sim::SimConfig testbed_config(std::uint64_t footprint_bytes) {
  sim::SimConfig cfg;
  cfg.cores = 6;
  // 32 MiB LLC / 64 scale = 512 KiB; keep 1 MiB for headroom.
  cfg.llc_bytes = 1ULL << 20;
  cfg.llc_ways = 16;
  cfg.l2_bytes = 256ULL << 10;
  // Scale the STLB so TLB reach / footprint matches the real machine:
  // L2 holds 256 4K entries (1 MiB reach) and 16 2M entries per core.
  cfg.l2_tlb = mem::TlbLevelConfig{64, 4, 4, 4};
  cfg.instruction_fetch = true;
  // Single profiling tier by default: big enough for the whole footprint.
  cfg.tier1_frames = (footprint_bytes >> mem::kPageShift) * 5 / 4 + 2048;
  cfg.tier2_frames = 2048;
  return cfg;
}

/// The paper's IBS sampling periods, scaled to the simulator. The paper's
/// default (1 tag / 262,144 uops) over a 1-second epoch on a ~4 GHz core
/// yields tens of thousands of samples per epoch — the same order as the
/// per-epoch A-bit page counts (the premise of Fig. 2). Our epochs retire
/// ~4M uops, so the period shrinks to keep that sample-to-page balance:
/// 512 uops default, /4 and /8 for the 4x and 8x rates.
inline constexpr std::uint64_t kScaledDefaultPeriod = 512;

inline monitors::IbsConfig scaled_ibs(std::uint64_t rate_multiplier) {
  return monitors::IbsConfig::with_period(kScaledDefaultPeriod /
                                          rate_multiplier);
}

/// Workload selection: --workload=<name> restricts to one, default all.
inline std::vector<workloads::WorkloadSpec> selected_specs(
    const util::ArgParser& args) {
  const double scale = args.get_double("scale", 1.0);
  if (args.has("workload")) {
    return {workloads::find_spec(args.get("workload", ""), scale)};
  }
  return workloads::table3_specs(scale);
}

/// Engine selection shared by the benches: --threads=0 (default) keeps the
/// legacy serial engine; --threads=N >= 1 switches to the deterministic
/// sharded engine with N workers (results are identical for every N >= 1).
inline std::uint32_t selected_threads(const util::ArgParser& args) {
  return static_cast<std::uint32_t>(args.get_u64("threads", 0));
}

/// Fault-injection selection shared by the benches (docs/ROBUSTNESS.md):
///   --fault-rate=F      probability per fault site in [0, 1] (default 0)
///   --fault-seed=N      schedule seed, independent of the workload seed
///   --fault-sites=a,b   restrict to named sites (e.g. "migration,
///                       trace-overflow"); default all sites at F
/// Rejects negative/out-of-range rates and unknown site names.
inline util::FaultConfig fault_from_args(const util::ArgParser& args) {
  util::FaultConfig fault;
  fault.rate = args.get_rate("fault-rate", 0.0);
  fault.seed = args.get_u64("fault-seed", fault.seed);
  if (args.has("fault-sites")) {
    fault.restrict_to(util::parse_fault_sites(args.get("fault-sites", "")));
  }
  return fault;
}

/// Checkpoint/resume selection shared by the benches (docs/RECOVERY.md):
///   --checkpoint-every=N  write a checkpoint every N epochs (0 = off)
///   --checkpoint-dir=D    checkpoint directory (required to enable)
///   --resume-from=F       resume from an explicit checkpoint file
///   --resume-latest=0|1   resume from the newest checkpoint in the dir
///   --keep-last=K         retention: newest K checkpoints kept (default 3)
/// Benches override `basename` per run so concurrent configurations in one
/// directory never clobber each other.
inline util::ckpt::Options checkpoint_from_args(const util::ArgParser& args) {
  util::ckpt::Options ck;
  ck.every = static_cast<std::uint32_t>(args.get_u64("checkpoint-every", 0));
  ck.dir = args.get("checkpoint-dir", "");
  ck.resume_from = args.get("resume-from", "");
  ck.resume_latest = args.get_bool("resume-latest", false);
  ck.keep_last = static_cast<std::uint32_t>(args.get_u64("keep-last", 3));
  return ck;
}

/// Telemetry selection shared by the benches (docs/OBSERVABILITY.md):
///   --metrics-out=F       Prometheus text exposition output path
///   --trace-out=F         Chrome trace-event JSON output path
///   --telemetry-every=N   re-export every N completed epochs (0 = run end)
/// Returns null (telemetry fully disabled, zero hot-path cost) unless at
/// least one output path is given. One sink serves every run a bench makes,
/// so metrics aggregate across runs and each run gets its own trace track.
inline std::unique_ptr<telemetry::Telemetry> telemetry_from_args(
    const util::ArgParser& args) {
  telemetry::TelemetryConfig cfg;
  cfg.metrics_out = args.get("metrics-out", "");
  cfg.trace_out = args.get("trace-out", "");
  cfg.export_every =
      static_cast<std::uint32_t>(args.get_u64("telemetry-every", 0));
  if (cfg.metrics_out.empty() && cfg.trace_out.empty()) return nullptr;
  return std::make_unique<telemetry::Telemetry>(cfg);
}

/// Admission-control selection shared by the benches (docs/ADMISSION.md):
///   --admission=M         off|static|adaptive (default off)
///   --mig-bandwidth=F     migration bandwidth in MB of simulated transfer
///                         per simulated second (0 = unlimited)
///   --mig-burst=F         token-bucket depth in MB (largest single burst)
///   --cooldown-epochs=N   ping-pong window K; must be >= 1
///   --min-benefit=N       benefit floor (static) / floor to decay to
///   --min-history=N       epochs of ranking evidence required to admit
///   --max-moves=N         storm brake: admitted promotions per epoch
/// Rejects unknown modes (tiering::parse_admission_mode enumerates the
/// valid names), negative bandwidths/bursts and a zero cool-down window.
inline tiering::AdmissionConfig admission_from_args(
    const util::ArgParser& args) {
  tiering::AdmissionConfig adm;
  adm.mode = tiering::parse_admission_mode(args.get("admission", "off"));
  const double bandwidth_mb =
      args.get_checked_double("mig-bandwidth", 0.0, 0.0, 1e9);
  adm.bandwidth_bytes_per_sec =
      static_cast<std::uint64_t>(bandwidth_mb * 1e6);
  const double burst_mb = args.get_checked_double(
      "mig-burst", static_cast<double>(adm.burst_bytes) / 1e6, 1e-6, 1e9);
  adm.burst_bytes = static_cast<std::uint64_t>(burst_mb * 1e6);
  adm.cooldown_epochs = static_cast<std::uint32_t>(
      args.get_u64("cooldown-epochs", adm.cooldown_epochs));
  if (adm.cooldown_epochs == 0) {
    throw std::invalid_argument(
        "--cooldown-epochs: the ping-pong window must be >= 1 epoch");
  }
  adm.min_benefit = args.get_u64("min-benefit", adm.min_benefit);
  adm.min_history = static_cast<std::uint32_t>(
      args.get_u64("min-history", adm.min_history));
  adm.max_moves_per_epoch = args.get_u64("max-moves", adm.max_moves_per_epoch);
  return adm;
}

/// Fleet-consolidation selection (docs/CONSOLIDATION.md), used by
/// bench/consolidation --fleet:
///   --tenants=N          concurrent tenants (>= 2; tenant 0 is the service)
///   --qos=C              QoS class of the service tenant (latency|batch)
///   --quota-floor=N      service tenant's guaranteed fast-tier frames (> 0)
///   --churn-rate=F       fraction of each batch tenant's cycle spent idle,
///                        exclusive (0, 1): 0 would mean no churn at all and
///                        1 a tenant that never runs
///   --isolation-check=1  exit non-zero unless the latency tenant stays
///                        within 5 pp of its solo hitrate (requires
///                        --qos=latency; the guarantee protects latency
///                        tenants only)
/// Unknown QoS class names enumerate the valid ones; zero/negative tenant
/// counts, floors and churn rates are rejected with clear errors.
struct FleetArgs {
  std::uint32_t n_tenants = 12;
  tiering::QosClass service_qos = tiering::QosClass::Latency;
  std::uint64_t quota_floor_frames = 0;  ///< 0 = bench picks its default
  double churn_rate = 0.5;
  bool isolation_check = false;
};

inline FleetArgs fleet_from_args(const util::ArgParser& args) {
  FleetArgs fleet;
  fleet.n_tenants =
      static_cast<std::uint32_t>(args.get_u64("tenants", fleet.n_tenants));
  if (fleet.n_tenants < 2) {
    throw std::invalid_argument(
        "--tenants: a fleet needs at least 2 tenants (one service, one "
        "neighbor)");
  }
  if (args.has("qos")) {
    fleet.service_qos = tiering::parse_qos_class(args.get("qos", ""));
  }
  if (args.has("quota-floor")) {
    const double floor = args.get_double("quota-floor", 0.0);
    if (floor <= 0.0) {
      throw std::invalid_argument(
          "--quota-floor: the guaranteed floor must be a positive number of "
          "frames");
    }
    fleet.quota_floor_frames = static_cast<std::uint64_t>(floor);
  }
  fleet.churn_rate = args.get_double("churn-rate", fleet.churn_rate);
  if (fleet.churn_rate <= 0.0 || fleet.churn_rate >= 1.0) {
    throw std::invalid_argument(
        "--churn-rate: the idle fraction must lie strictly between 0 and 1");
  }
  fleet.isolation_check = args.get_bool("isolation-check", false);
  if (fleet.isolation_check &&
      (!args.has("qos") ||
       fleet.service_qos != tiering::QosClass::Latency)) {
    throw std::invalid_argument(
        "--isolation-check: requires --qos=latency (the isolation guarantee "
        "protects latency tenants)");
  }
  return fleet;
}

/// Tier-chain selection shared by the benches (docs/TOPOLOGY.md):
///   --tiers=name:frames:read_ns:write_ns[:bw_gbps],...   fastest first
/// e.g. --tiers=dram:8192:80:80,cxl:16384:150:200:32,nvm:262144:300:600:8
/// The optional bandwidth term (GB/s) adds a per-cache-line transfer cost
/// of ~64/bw ns to every fill the tier serves. Returns an empty vector
/// when --tiers is absent (the default two-tier chain stays in charge).
/// Rejects malformed specs, empty names, zero-frame tiers, chains shorter
/// than 2 or longer than mem::kMaxTiers tiers, and chains whose read
/// latency descends (the chain must be ordered fastest first).
inline std::vector<mem::TierSpec> tiers_from_args(const util::ArgParser& args) {
  std::vector<mem::TierSpec> tiers;
  if (!args.has("tiers")) return tiers;
  const std::string value = args.get("tiers", "");
  const auto field_u64 = [](const std::string& field,
                            const char* what) -> std::uint64_t {
    if (const std::optional<std::uint64_t> v = util::parse_u64(field)) {
      return *v;
    }
    throw std::invalid_argument(std::string("--tiers: bad ") + what + " '" +
                                field + "' (expected an unsigned integer)");
  };
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string spec_str =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    start = comma == std::string::npos ? value.size() + 1 : comma + 1;
    std::vector<std::string> fields;
    std::size_t f = 0;
    while (f <= spec_str.size()) {
      const std::size_t colon = spec_str.find(':', f);
      fields.push_back(spec_str.substr(
          f, colon == std::string::npos ? std::string::npos : colon - f));
      f = colon == std::string::npos ? spec_str.size() + 1 : colon + 1;
    }
    if (fields.size() < 4 || fields.size() > 5) {
      throw std::invalid_argument(
          "--tiers: each tier is name:frames:read_ns:write_ns[:bw_gbps], "
          "got '" + spec_str + "'");
    }
    mem::TierSpec spec;
    spec.name = fields[0];
    if (spec.name.empty()) {
      throw std::invalid_argument("--tiers: tier names must be non-empty");
    }
    spec.frames = field_u64(fields[1], "frame count");
    if (spec.frames == 0) {
      throw std::invalid_argument("--tiers: tier '" + spec.name +
                                  "' has zero frames; every tier must hold "
                                  "at least one page");
    }
    spec.read_latency_ns = field_u64(fields[2], "read latency");
    spec.write_latency_ns = field_u64(fields[3], "write latency");
    if (fields.size() == 5) {
      const std::optional<double> bw = util::parse_double(fields[4]);
      if (!bw) {
        throw std::invalid_argument("--tiers: bad bandwidth '" + fields[4] +
                                    "' (expected GB/s as a finite number)");
      }
      if (*bw <= 0.0) {
        throw std::invalid_argument(
            "--tiers: bandwidth must be positive (GB/s)");
      }
      spec.line_transfer_ns =
          static_cast<util::SimNs>(64.0 / *bw + 0.5);  // one 64 B line
    }
    tiers.push_back(std::move(spec));
  }
  if (tiers.size() < 2) {
    throw std::invalid_argument(
        "--tiers: a chain needs at least 2 tiers (fast + capacity)");
  }
  if (tiers.size() > mem::kMaxTiers) {
    throw std::invalid_argument("--tiers: at most " +
                                std::to_string(mem::kMaxTiers) +
                                " tiers are supported");
  }
  for (std::size_t t = 1; t < tiers.size(); ++t) {
    if (tiers[t].read_latency_ns < tiers[t - 1].read_latency_ns) {
      throw std::invalid_argument(
          "--tiers: chain must be ordered fastest first, but '" +
          tiers[t].name + "' (read " + std::to_string(tiers[t].read_latency_ns) +
          " ns) is faster than '" + tiers[t - 1].name + "' (read " +
          std::to_string(tiers[t - 1].read_latency_ns) + " ns)");
    }
  }
  return tiers;
}

/// Device-monitor selection shared by the benches (docs/TOPOLOGY.md):
///   --devmon=0|1       enable per-device hot-page counters (default off)
///   --devmon-slots=N   counter slots per device (>= 1)
///   --devmon-topk=N    entries reported per device per epoch (1..slots)
/// Rejects zero slot counts and report sizes outside [1, slots].
inline monitors::DevMonConfig devmon_from_args(const util::ArgParser& args) {
  monitors::DevMonConfig dm;
  dm.enabled = args.get_bool("devmon", false);
  dm.slots =
      static_cast<std::uint32_t>(args.get_u64("devmon-slots", dm.slots));
  if (dm.slots == 0) {
    throw std::invalid_argument(
        "--devmon-slots: a device needs at least 1 counter slot");
  }
  dm.top_k =
      static_cast<std::uint32_t>(args.get_u64("devmon-topk", dm.top_k));
  if (dm.top_k == 0 || dm.top_k > dm.slots) {
    throw std::invalid_argument(
        "--devmon-topk: the per-epoch report size must lie in [1, slots]");
  }
  return dm;
}

/// The topology bench's CSV schema (bench/topology), pinned by the
/// golden-schema test. One row per (workload, chain, devmon setting).
inline const std::vector<std::string>& topology_csv_header() {
  static const std::vector<std::string> header{
      "workload", "chain",      "tiers",    "devmon",
      "runtime_ms", "dram_hitrate", "migrations", "promoted",
      "demoted",  "devmon_reported"};
  return header;
}

/// The fleet bench's CSV schema (bench/consolidation --fleet), pinned by
/// the golden-schema test. One row per (mode, tenant).
inline const std::vector<std::string>& fleet_csv_header() {
  static const std::vector<std::string> header{
      "mode",           "tenant",          "qos",
      "hitrate",        "floor_frames",    "grant_frames",
      "occupancy_frames", "quota_shed",    "reclaimed_frames",
      "bandwidth_rejected"};
  return header;
}

/// The robustness bench's CSV schema, shared with the golden-schema test
/// (tests/test_cli.cpp) so drift breaks the build's test tier, not a
/// downstream plotting script.
inline const std::vector<std::string>& robustness_csv_header() {
  static const std::vector<std::string> header{
      "workload",      "fault_rate",    "policy",       "runtime_ms",
      "speedup",       "hitrate",       "migrations",   "retried",
      "deferred",      "aborted",       "no_room",      "trace_dropped",
      "scans_aborted", "hwpc_wraps",    "pinned_epochs", "fallback_epochs"};
  return header;
}

/// The storm bench's CSV schema (bench/robustness --storm), also pinned by
/// the golden-schema test. One row per (scenario, admission mode).
inline const std::vector<std::string>& storm_csv_header() {
  static const std::vector<std::string> header{
      "scenario",         "admission",       "runtime_ms",
      "hitrate",          "migrations",      "moved_mb",
      "rejected",         "cooled",          "shed",
      "throttled_epochs", "bytes_saved_pct", "hitrate_delta"};
  return header;
}

/// Shared bench entry point: parses the command line and runs `body`. A
/// bad flag or value (std::invalid_argument — an unknown flag from
/// reject_unread, a malformed number, an out-of-range setting) prints
/// "error: <message>" to stderr and exits with status 2, the usage-error
/// convention, instead of escaping main and aborting the process.
inline int run_main(int argc, char** argv,
                    int (*body)(const util::ArgParser& args)) {
  try {
    const util::ArgParser args(argc, argv);
    return body(args);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace tmprof::bench
