#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "util/ckpt.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kMiB = 1ULL << 20;

/// Paper constants are divided by the simulator's 20x shorter epochs
/// (table_speedup's default --time-scale).
constexpr util::SimNs scaled_ns(double paper_us) {
  return static_cast<util::SimNs>(paper_us * 1000.0 / 20.0);
}

}  // namespace

const std::vector<WorkloadDef>& workload_defs() {
  // online-web: the online control plane's heaviest case (4 KiB pages, small
  // hot set) and the only workload that writes and resumes checkpoints.
  // online-gups-2t: uniform RMW over 2 MiB pages, nearly all time in the
  // simulated substrate.
  // profile-caching: the profile-only path; nothing migrates and the policy
  // layer runs offline over the stored series.
  // All three step on a 2-worker pool: simulated results are the same at
  // every thread count, and on a shared machine a 2-worker run's host times
  // swing far less from run to run than an inline run's. The traced probe
  // still times the inline (1-thread) engine.
  static const std::vector<WorkloadDef> defs{
      {"online-web", "web_serving", Kind::Online, 2, 10, 600'000, 2, 6},
      {"online-gups-2t", "gups", Kind::Online, 2, 10, 600'000, 0, 0},
      {"profile-caching", "data_caching", Kind::Profile, 2, 10, 800'000, 0,
       0},
  };
  return defs;
}

const WorkloadDef& find_def(const std::string& name) {
  std::string valid;
  for (const WorkloadDef& def : workload_defs()) {
    if (def.name == name) return def;
    valid += (valid.empty() ? "" : ", ") + def.name;
  }
  throw std::invalid_argument("unknown --workload '" + name +
                              "' (valid: " + valid + ")");
}

workloads::WorkloadSpec spec_of(const WorkloadDef& def) {
  return workloads::find_spec(def.spec, 1.0);
}

sim::SimConfig sim_config(const WorkloadDef& def) {
  const workloads::WorkloadSpec spec = spec_of(def);
  // The benches' scaled testbed (bench/common.hpp testbed_config).
  sim::SimConfig cfg;
  cfg.cores = 6;
  cfg.llc_bytes = 1 * kMiB;
  cfg.llc_ways = 16;
  cfg.l2_bytes = 256ULL << 10;
  cfg.l2_tlb = mem::TlbLevelConfig{64, 4, 4, 4};
  cfg.instruction_fetch = true;
  if (def.kind == Kind::Online) {
    // table_speedup: 64 MiB fast tier, slow tier holds the spilled footprint.
    cfg.tier1_frames = (64 * kMiB) >> mem::kPageShift;
    cfg.tier2_frames = (spec.total_bytes >> mem::kPageShift) * 5 / 4 + (1 << 14);
  } else {
    // fig6_hitrate: one profiling tier large enough for the whole footprint.
    cfg.tier1_frames = (spec.total_bytes >> mem::kPageShift) * 5 / 4 + 2048;
    cfg.tier2_frames = 2048;
  }
  return cfg;
}

tiering::RunnerOptions runner_options(const WorkloadDef& def,
                                      std::uint64_t seed,
                                      const std::string& policy) {
  tiering::RunnerOptions opt;
  opt.policy = policy;
  opt.n_epochs = def.n_epochs;
  opt.ops_per_epoch = def.ops_per_epoch;
  opt.seed = seed;
  opt.slow_model = tiering::SlowMemoryModel::Native;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(512 / 4);  // IBS 4x
  opt.mover.per_page_cost_ns = scaled_ns(50.0);
  opt.mover.min_rank = 3;
  opt.n_threads = def.threads;
  return opt;
}

tiering::CollectOptions collect_options(const WorkloadDef& def,
                                        std::uint64_t seed) {
  tiering::CollectOptions opt;
  opt.n_epochs = def.n_epochs;
  opt.ops_per_epoch = def.ops_per_epoch;
  opt.seed = seed;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(512 / 4);
  opt.n_threads = def.threads;
  return opt;
}

const char* case_label(std::size_t c) {
  static constexpr std::array<const char*, kCases> labels{
      "orc-abit",  "orc-ibs",  "orc-tmp",   "hist-abit",
      "hist-ibs",  "hist-tmp", "orc-truth", "first-touch"};
  return labels[c];
}

double replay_case(const tiering::EpochSeries& series, std::size_t div_index,
                   std::size_t c) {
  struct Case {
    const char* policy;
    core::FusionMode fusion;
    bool observed;
  };
  static constexpr std::array<Case, kCases> cases{{
      {"oracle", core::FusionMode::AbitOnly, true},
      {"oracle", core::FusionMode::TraceOnly, true},
      {"oracle", core::FusionMode::Sum, true},
      {"history", core::FusionMode::AbitOnly, false},
      {"history", core::FusionMode::TraceOnly, false},
      {"history", core::FusionMode::Sum, false},
      {"oracle", core::FusionMode::Sum, false},
      {"first-touch", core::FusionMode::Sum, false},
  }};
  tiering::HitrateOptions opt;
  opt.capacity_frames =
      std::max<std::uint64_t>(1, series.footprint_frames / kDivisors[div_index]);
  opt.fusion = cases[c].fusion;
  opt.oracle_from_observed = cases[c].observed;
  const auto policy = tiering::make_policy(cases[c].policy);
  return tiering::evaluate_policy(*policy, series, opt).overall;
}

namespace {

template <typename T>
void diff_field(std::vector<std::string>& out, const std::string& what,
                const char* field, const T& a, const T& b) {
  if (a == b) return;
  std::ostringstream s;
  s.precision(17);
  s << what << "." << field << ": " << a << " != " << b;
  out.push_back(s.str());
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::vector<std::string> diff_results(const std::string& what,
                                      const tiering::RunnerResult& a,
                                      const tiering::RunnerResult& b) {
  std::vector<std::string> out;
  diff_field(out, what, "runtime_ns", a.runtime_ns, b.runtime_ns);
  if (!same_bits(a.tier1_hitrate, b.tier1_hitrate)) {
    diff_field(out, what, "tier1_hitrate", a.tier1_hitrate, b.tier1_hitrate);
  }
  diff_field(out, what, "migrations", a.migrations, b.migrations);
  diff_field(out, what, "protection_faults", a.protection_faults,
             b.protection_faults);
  diff_field(out, what, "profiling_overhead_ns", a.profiling_overhead_ns,
             b.profiling_overhead_ns);
  const tiering::MoveStats& ma = a.moves;
  const tiering::MoveStats& mb = b.moves;
  diff_field(out, what, "moves.promoted", ma.promoted, mb.promoted);
  diff_field(out, what, "moves.demoted", ma.demoted, mb.demoted);
  diff_field(out, what, "moves.retried", ma.retried, mb.retried);
  diff_field(out, what, "moves.deferred", ma.deferred, mb.deferred);
  diff_field(out, what, "moves.aborted", ma.aborted, mb.aborted);
  diff_field(out, what, "moves.no_room", ma.no_room, mb.no_room);
  diff_field(out, what, "moves.rejected", ma.rejected, mb.rejected);
  diff_field(out, what, "moves.cooled", ma.cooled, mb.cooled);
  diff_field(out, what, "moves.shed", ma.shed, mb.shed);
  diff_field(out, what, "moves.moved_bytes", ma.moved_bytes, mb.moved_bytes);
  diff_field(out, what, "moves.cost_ns", ma.cost_ns, mb.cost_ns);
  diff_field(out, what, "moves.backoff_ns", ma.backoff_ns, mb.backoff_ns);
  const core::DegradeStats& da = a.degrade;
  const core::DegradeStats& db = b.degrade;
  diff_field(out, what, "degrade.hwpc_wraps", da.hwpc_wraps, db.hwpc_wraps);
  diff_field(out, what, "degrade.scans_aborted", da.scans_aborted,
             db.scans_aborted);
  diff_field(out, what, "degrade.trace_dropped", da.trace_dropped,
             db.trace_dropped);
  diff_field(out, what, "degrade.rescaled_epochs", da.rescaled_epochs,
             db.rescaled_epochs);
  diff_field(out, what, "degrade.fallback_epochs", da.fallback_epochs,
             db.fallback_epochs);
  diff_field(out, what, "degrade.pinned_epochs", da.pinned_epochs,
             db.pinned_epochs);
  diff_field(out, what, "degrade.qos_fallback_epochs", da.qos_fallback_epochs,
             db.qos_fallback_epochs);
  diff_field(out, what, "degrade.throttled_epochs", da.throttled_epochs,
             db.throttled_epochs);
  diff_field(out, what, "tenants.size", a.tenants.size(), b.tenants.size());
  diff_field(out, what, "process_hitrates.size", a.process_hitrates.size(),
             b.process_hitrates.size());
  for (std::size_t i = 0;
       i < std::min(a.process_hitrates.size(), b.process_hitrates.size());
       ++i) {
    if (!same_bits(a.process_hitrates[i], b.process_hitrates[i])) {
      diff_field(out, what, "process_hitrates[i]", a.process_hitrates[i],
                 b.process_hitrates[i]);
    }
  }
  return out;
}

std::vector<std::string> diff_outcomes(const SimOutcome& a,
                                       const SimOutcome& b) {
  std::vector<std::string> out =
      diff_results("first_touch", a.first_touch, b.first_touch);
  for (std::string& d : diff_results("history", a.history, b.history)) {
    out.push_back(std::move(d));
  }
  diff_field(out, "series", "hash", a.series_hash, b.series_hash);
  for (std::size_t r = 0; r < kDivisors.size(); ++r) {
    for (std::size_t c = 0; c < kCases; ++c) {
      if (!same_bits(a.replay[r][c], b.replay[r][c])) {
        diff_field(out, "replay", case_label(c), a.replay[r][c],
                   b.replay[r][c]);
      }
    }
  }
  return out;
}

std::vector<std::string> check_outcome(const WorkloadDef& def,
                                       const SimOutcome& o) {
  std::vector<std::string> out;
  const auto in_unit = [&out](const std::string& what, double v) {
    if (!(v >= 0.0 && v <= 1.0)) {
      out.push_back(what + " hitrate " + std::to_string(v) +
                    " outside [0, 1]");
    }
  };
  if (def.kind == Kind::Online) {
    for (const auto* r : {&o.first_touch, &o.history}) {
      const std::string what =
          r == &o.first_touch ? "first-touch" : "history";
      in_unit(what, r->tier1_hitrate);
      for (double h : r->process_hitrates) in_unit(what + " process", h);
      if (r->moves.promoted + r->moves.demoted != r->migrations) {
        out.push_back(what + ": promoted + demoted != migrations");
      }
    }
    if (o.first_touch.migrations != 0) {
      out.push_back("first-touch migrated pages");
    }
    return out;
  }
  for (std::size_t r = 0; r < kDivisors.size(); ++r) {
    for (std::size_t c = 0; c < kCases; ++c) {
      in_unit(std::string("replay ") + case_label(c), o.replay[r][c]);
      if (o.replay[r][c] > o.replay[r][kOracleTruthCase]) {
        out.push_back(std::string("replay 1/") + std::to_string(kDivisors[r]) +
                      ": " + case_label(c) + " beats orc-truth");
      }
    }
  }
  return out;
}

void derive_headline(const WorkloadDef& def, SimOutcome& o) {
  if (def.kind == Kind::Online) {
    o.tier1_hitrate = o.history.tier1_hitrate;
    o.speedup = static_cast<double>(o.first_touch.runtime_ns) /
                static_cast<double>(o.history.runtime_ns);
  } else {
    // Offline there is no runtime: the gain of History over the first-touch
    // baseline is measured in tier-1 hitrate, at the 1/16 capacity ratio.
    o.tier1_hitrate = o.replay[kReplayRow16][kHistoryTmpCase];
    o.speedup = o.replay[kReplayRow16][kHistoryTmpCase] /
                o.replay[kReplayRow16][kFirstTouchCase];
  }
}

std::uint64_t hash_series(const tiering::EpochSeries& series) {
  util::ckpt::Writer w;
  tiering::save_series(w, series);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (std::uint8_t byte : w.finish()) {
    h = (h ^ byte) * 1099511628211ULL;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

/// Splits one public call's wall time into its cold first epoch (set-up)
/// and its steady epochs, from the callers' per-epoch hook.
class EpochClock {
 public:
  EpochClock(HostTimes& host, std::uint64_t ops_per_epoch)
      : host_(host), ops_per_epoch_(ops_per_epoch) {}

  /// Call right before each public entry point; returns its epoch hook.
  std::function<void(std::uint32_t)> begin_call() {
    last_ = wall_now_s();
    first_epoch_ = -1;
    return [this](std::uint32_t e) {
      const double now = wall_now_s();
      if (first_epoch_ < 0) {
        first_epoch_ = static_cast<std::int64_t>(e);
        host_.setup_s.push_back(now - last_);
      } else {
        host_.epoch_s.push_back(now - last_);
        host_.steady_ops += ops_per_epoch_;
      }
      last_ = now;
    };
  }
  /// Epoch index of the current call's first completed epoch (-1 = none).
  [[nodiscard]] std::int64_t first_epoch() const { return first_epoch_; }

 private:
  HostTimes& host_;
  std::uint64_t ops_per_epoch_;
  double last_ = 0.0;
  std::int64_t first_epoch_ = -1;
};

}  // namespace

PassResult run_untraced(const WorkloadDef& def, std::uint64_t seed,
                        const std::string& scratch) {
  PassResult out;
  const workloads::WorkloadSpec spec = spec_of(def);
  const sim::SimConfig cfg = sim_config(def);
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  EpochClock clock(out.host, def.ops_per_epoch);
  const double wall0 = wall_now_s();
  const double cpu0 = process_cpu_s();
  tiering::EpochSeries series;
  if (def.kind == Kind::Online) {
    tiering::RunnerOptions opt = runner_options(def, seed, "first-touch");
    opt.on_epoch = clock.begin_call();
    out.sim.first_touch = tiering::EndToEndRunner::run(spec, cfg, opt);

    opt = runner_options(def, seed, "history");
    opt.checkpoint.every = def.checkpoint_every;
    opt.checkpoint.dir = def.checkpoint_every != 0 ? scratch : "";
    opt.checkpoint.basename = "history";
    opt.on_epoch = clock.begin_call();
    out.sim.history = tiering::EndToEndRunner::run(spec, cfg, opt);

    if (def.checkpoint_every != 0) {
      // Resume the history run from a mid-run checkpoint; it must finish
      // with the uninterrupted run's result. A rejected checkpoint would
      // silently cold-start, so the first epoch run is checked too.
      opt = runner_options(def, seed, "history");
      opt.checkpoint.resume_from = util::ckpt::checkpoint_path(
          scratch, "history", def.resume_epoch);
      opt.on_epoch = clock.begin_call();
      const tiering::RunnerResult resumed =
          tiering::EndToEndRunner::run(spec, cfg, opt);
      if (clock.first_epoch() != static_cast<std::int64_t>(def.resume_epoch)) {
        out.failures.push_back("resume did not start at epoch " +
                               std::to_string(def.resume_epoch));
      }
      for (std::string& d : diff_results("resumed", resumed, out.sim.history)) {
        out.failures.push_back(std::move(d));
      }
    }
  } else {
    tiering::CollectOptions opt = collect_options(def, seed);
    opt.on_epoch = clock.begin_call();
    series = tiering::collect_series(spec, cfg, opt);
    for (std::size_t r = 0; r < kDivisors.size(); ++r) {
      for (std::size_t c = 0; c < kCases; ++c) {
        out.sim.replay[r][c] = replay_case(series, r, c);
      }
    }
  }
  out.host.wall_s = wall_now_s() - wall0;
  out.host.cpu_s = process_cpu_s() - cpu0;

  if (def.kind == Kind::Profile) out.sim.series_hash = hash_series(series);
  derive_headline(def, out.sim);
  for (std::string& f : check_outcome(def, out.sim)) {
    out.failures.push_back(std::move(f));
  }
  return out;
}

}  // namespace perfbench
