#pragma once
/// \file bench.hpp
/// Shared definitions of the end-to-end benchmark: the three workloads and
/// their simulated configurations, the outcome of one pass, the checks every
/// pass must satisfy, and the per-layer ledger of a traced pass.
///
/// Each workload keeps the simulated configuration of the paper bench it
/// comes from (table_speedup or fig6_hitrate), so the repository's recorded
/// reference values still apply; the configurations are copied here rather
/// than included so that the benchmark's inputs stay fixed.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "tiering/epoch.hpp"
#include "tiering/runner.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using namespace tmprof;

/// Online workloads run first-touch then history through the end-to-end
/// runner; the profile workload collects an epoch series and replays it
/// through the Fig. 6 policy cases offline.
enum class Kind : std::uint8_t { Online, Profile };

struct WorkloadDef {
  std::string name;       ///< benchmark workload name
  std::string spec;       ///< Table III workload it runs
  Kind kind = Kind::Online;
  std::uint32_t threads = 1;  ///< sharded engine; 1 = inline, >1 = pool
  std::uint32_t n_epochs = 10;
  std::uint64_t ops_per_epoch = 600'000;
  std::uint32_t checkpoint_every = 0;  ///< 0 = no checkpoints
  std::uint32_t resume_epoch = 0;      ///< checkpoint the resume starts from
};

[[nodiscard]] const std::vector<WorkloadDef>& workload_defs();
/// Throws std::invalid_argument naming the valid workloads.
[[nodiscard]] const WorkloadDef& find_def(const std::string& name);

[[nodiscard]] workloads::WorkloadSpec spec_of(const WorkloadDef& def);
[[nodiscard]] sim::SimConfig sim_config(const WorkloadDef& def);
/// Options of one runner call (threads and checkpoints are set by callers).
[[nodiscard]] tiering::RunnerOptions runner_options(const WorkloadDef& def,
                                                   std::uint64_t seed,
                                                   const std::string& policy);
[[nodiscard]] tiering::CollectOptions collect_options(const WorkloadDef& def,
                                                      std::uint64_t seed);

/// Fig. 6 replay grid: capacity = footprint / divisor, eight policy cases.
inline constexpr std::array<std::uint64_t, 5> kDivisors{8, 16, 32, 64, 128};
inline constexpr std::size_t kCases = 8;
inline constexpr std::size_t kOracleTruthCase = 6;
inline constexpr std::size_t kHistoryTmpCase = 5;
inline constexpr std::size_t kFirstTouchCase = 7;
inline constexpr std::size_t kReplayRow16 = 1;  ///< index of 1/16 in kDivisors
using ReplayGrid = std::array<std::array<double, kCases>, kDivisors.size()>;
[[nodiscard]] const char* case_label(std::size_t c);
/// evaluate_policy for one case; exposed so the traced pass times each call.
[[nodiscard]] double replay_case(const tiering::EpochSeries& series,
                                 std::size_t div_index, std::size_t c);

/// Deterministic (simulated-time) outcome of one pass. Two passes of the same
/// workload and seed, traced or not, must produce equal outcomes.
struct SimOutcome {
  tiering::RunnerResult first_touch;  ///< online only
  tiering::RunnerResult history;      ///< online only
  std::uint64_t series_hash = 0;      ///< profile: hash of save_series image
  ReplayGrid replay{};                ///< profile only
  double tier1_hitrate = 0.0;
  double speedup = 0.0;
};

/// Human-readable differences between two runner results (empty = equal,
/// bit for bit, including every MoveStats and DegradeStats field).
[[nodiscard]] std::vector<std::string> diff_results(
    const std::string& what, const tiering::RunnerResult& a,
    const tiering::RunnerResult& b);
[[nodiscard]] std::vector<std::string> diff_outcomes(const SimOutcome& a,
                                                     const SimOutcome& b);
/// Invariants of one outcome: hitrates in [0, 1], promoted + demoted ==
/// migrations, and oracle-truth >= every other replay case at each ratio.
[[nodiscard]] std::vector<std::string> check_outcome(const WorkloadDef& def,
                                                     const SimOutcome& o);
/// Fill tier1_hitrate and speedup from the results or the replay grid.
void derive_headline(const WorkloadDef& def, SimOutcome& o);
[[nodiscard]] std::uint64_t hash_series(const tiering::EpochSeries& series);

/// Host-time record of one untraced pass.
struct HostTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> setup_s;  ///< call start to end of its first epoch
  std::vector<double> epoch_s;  ///< every later (steady) epoch
  std::uint64_t steady_ops = 0;
};

struct PassResult {
  HostTimes host;
  SimOutcome sim;
  std::vector<std::string> failures;
};

/// One pass through the public entry points (EndToEndRunner::run,
/// collect_series, evaluate_policy) — what the end-to-end metrics measure.
/// `scratch` is a directory for checkpoint files.
[[nodiscard]] PassResult run_untraced(const WorkloadDef& def,
                                      std::uint64_t seed,
                                      const std::string& scratch);

/// Per-layer ledger of one traced pass. Seconds are host wall time spent in
/// calls into each layer, timed from outside the call.
struct Ledger {
  std::map<std::string, double> span_s;  ///< layer -> seconds in the loops
  double loop_s = 0.0;                   ///< wall time of the epoch loops
  double pass_s = 0.0;                   ///< wall time of the whole pass
  double step_cpu_s = 0.0;               ///< process CPU inside sim.step
  double main_step_s = 0.0;              ///< sim.step of the history/collect call
  double replay_s = 0.0;
  std::uint64_t replay_cases = 0;
  std::uint64_t stepped_ops = 0;
  std::uint64_t epochs = 0;
  std::uint64_t ranked_pages = 0;        ///< summed over epochs
  std::uint64_t truth_pages = 0;         ///< summed over epochs
  std::uint64_t abit_scans = 0;
  std::uint64_t trace_epochs = 0;
  std::uint64_t pmu_ops = 0;             ///< ops of the fresh (non-resumed) calls
  std::uint64_t llc_misses = 0;
  std::uint64_t tlb_walks = 0;
  std::uint64_t page_faults = 0;
  double overhead_sim_ns = 0.0;
  double runtime_sim_ns = 0.0;
  double ckpt_save_s = 0.0;              ///< per checkpoint (median)
  double ckpt_resume_s = 0.0;
  double ckpt_bytes = 0.0;
};

struct TracedPass {
  Ledger ledger;
  SimOutcome sim;
  std::vector<std::string> failures;
};

/// Share of the epoch loops' wall time covered by the named layer spans.
[[nodiscard]] double coverage(const Ledger& ledger);

/// The same pass as run_untraced, composed in this benchmark from the public
/// layer calls (System::step_parallel, TmpDaemon::tick_into, PageTable
/// resolve, PageMover::residents, Policy::choose, PageMover::apply_placement,
/// TruthCollector::end_epoch, component save_state/load_state) and timed
/// around each call.
[[nodiscard]] TracedPass run_traced(const WorkloadDef& def, std::uint64_t seed,
                                    const std::string& scratch);

/// Probes run once per traced invocation.
struct Probes {
  double next_ns = 0.0;         ///< generator alone, ns per reference
  double step_scaling = 0.0;    ///< 1-thread step time / 2-thread step time
  std::vector<std::string> failures;
};
[[nodiscard]] Probes run_probes(const WorkloadDef& def, std::uint64_t seed,
                                const TracedPass& traced);

[[nodiscard]] double median(std::vector<double> v);

/// Host clocks.
[[nodiscard]] double wall_now_s();
[[nodiscard]] double process_cpu_s();


}  // namespace perfbench
