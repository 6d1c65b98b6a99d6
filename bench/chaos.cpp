/// Chaos kill-and-resume harness (docs/RECOVERY.md). For every case in the
/// policy x threads x fault-rate matrix it
///   1. runs the configuration uninterrupted (the reference),
///   2. forks a child that checkpoints every --checkpoint-every epochs and
///      _exit(137)s at a seeded-random epoch (the crash),
///   3. resumes in the parent from the newest surviving checkpoint, and
///   4. asserts the resumed result is bitwise identical to the reference
///      (doubles compared through their hex-float rendering).
/// A kill before the first checkpoint exercises the cold-start fallback:
/// resume finds nothing and the run must still match from scratch.
///
/// Exit status is the number of mismatching cases (0 = all identical).
///
/// Usage: chaos [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=S] [--kill-seed=S]
///        [--policies=a,b,...] [--threads-list=a,b] [--rates=a,b]
///        [--model=native|badgertrap] [--checkpoint-every=N] [--dir=D]
///        [--csv=0|1] [--metrics-out=F] [--trace-out=F]
///        [--telemetry-every=N]

#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "tiering/runner.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace tmprof;

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Bitwise-faithful rendering of a RunnerResult: integers in decimal,
/// doubles as hex floats, so string equality == bitwise equality.
std::string fingerprint(const tiering::RunnerResult& r) {
  std::string s;
  const auto u64 = [&s](std::uint64_t v) {
    s += std::to_string(v);
    s += ',';
  };
  const auto f64 = [&s](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a,", v);
    s += buf;
  };
  u64(r.runtime_ns);
  f64(r.tier1_hitrate);
  u64(r.migrations);
  u64(r.protection_faults);
  u64(r.profiling_overhead_ns);
  u64(r.moves.promoted);
  u64(r.moves.demoted);
  u64(r.moves.retried);
  u64(r.moves.deferred);
  u64(r.moves.aborted);
  u64(r.moves.no_room);
  u64(r.moves.rejected);
  u64(r.moves.cooled);
  u64(r.moves.shed);
  u64(r.moves.moved_bytes);
  u64(r.moves.cost_ns);
  u64(r.moves.backoff_ns);
  u64(r.degrade.hwpc_wraps);
  u64(r.degrade.scans_aborted);
  u64(r.degrade.trace_dropped);
  u64(r.degrade.rescaled_epochs);
  u64(r.degrade.fallback_epochs);
  u64(r.degrade.pinned_epochs);
  u64(r.degrade.throttled_epochs);
  u64(r.degrade.qos_fallback_epochs);
  return s;
}

int bench_main(const util::ArgParser& args) {
  const std::string workload = args.get("workload", "gups");
  const double scale = args.get_double("scale", 0.5);
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(args.get_u64("epochs", 8));
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 120'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::uint64_t kill_seed = args.get_u64("kill-seed", 0xdead);
  const std::vector<std::string> policies = split_list(args.get(
      "policies", "first-touch,history,freq-decay,write-history,oracle"));
  const std::vector<std::string> thread_counts =
      split_list(args.get("threads-list", "1,8"));
  const std::vector<std::string> rates = split_list(args.get("rates", "0,0.2"));
  const std::string model = args.get("model", "native");
  const std::uint32_t every =
      static_cast<std::uint32_t>(args.get_u64("checkpoint-every", 2));
  const std::string dir = args.get("dir", "chaos-ckpt");
  const bool write_csv = args.get_bool("csv", true);
  // The telemetry sink rides along on every run: reference, doomed child
  // (it dies before exporting; the checkpoint it leaves carries the
  // telemetry section) and the resumed run, each on its own trace track.
  const std::unique_ptr<telemetry::Telemetry> telemetry =
      bench::telemetry_from_args(args);
  const tiering::AdmissionConfig admission = bench::admission_from_args(args);
  args.reject_unread();

  const workloads::WorkloadSpec spec = workloads::find_spec(workload, scale);
  sim::SimConfig cfg = bench::testbed_config(spec.total_bytes);
  cfg.tier1_frames = std::max<std::uint64_t>(
      1 << 9, (spec.total_bytes >> mem::kPageShift) / 4);
  cfg.tier2_frames =
      (spec.total_bytes >> mem::kPageShift) * 5 / 4 + (1 << 14);

  std::cout << "Chaos kill/resume: " << workload << ", " << epochs
            << " epochs x " << ops_per_epoch << " ops, checkpoint every "
            << every << "\n\n";
  std::unique_ptr<util::CsvWriter> csv;
  if (write_csv) {
    csv = std::make_unique<util::CsvWriter>("chaos.csv");
    csv->write_row({"policy", "threads", "fault_rate", "kill_epoch",
                    "child_status", "resumed_identical"});
  }

  int failures = 0;
  std::uint64_t case_index = 0;
  for (const std::string& policy : policies) {
    for (const std::string& threads_str : thread_counts) {
      for (const std::string& rate_str : rates) {
        const auto n_threads =
            static_cast<std::uint32_t>(std::stoul(threads_str));
        const double rate = std::stod(rate_str);
        ++case_index;

        tiering::RunnerOptions opt;
        opt.policy = policy;
        opt.n_epochs = epochs;
        opt.ops_per_epoch = ops_per_epoch;
        opt.seed = seed;
        opt.slow_model = model == "badgertrap"
                             ? tiering::SlowMemoryModel::BadgerTrapEmulation
                             : tiering::SlowMemoryModel::Native;
        opt.daemon.driver.ibs = bench::scaled_ibs(4);
        opt.n_threads = n_threads;
        opt.mover.admission = admission;
        opt.fault.rate = rate;
        opt.telemetry = telemetry.get();

        const std::string case_tag = "case-" + std::to_string(case_index) +
                                     "/" + policy;

        // Reference: uninterrupted, no checkpointing.
        opt.telemetry_label = case_tag + "/reference";
        const tiering::RunnerResult reference =
            tiering::EndToEndRunner::run(spec, cfg, opt);
        const std::string want = fingerprint(reference);

        // The kill epoch is a pure function of (kill seed, case index), in
        // [1, epochs - 1] so the child always dies mid-run.
        std::uint64_t mix = kill_seed + case_index;
        const std::uint32_t kill_epoch = static_cast<std::uint32_t>(
            1 + util::splitmix64(mix) % (epochs - 1));

        const std::string case_dir =
            dir + "/case-" + std::to_string(case_index);
        std::filesystem::remove_all(case_dir);
        std::filesystem::create_directories(case_dir);

        opt.checkpoint.every = every;
        opt.checkpoint.dir = case_dir;
        opt.checkpoint.basename = policy;

        const pid_t child = fork();
        if (child == 0) {
          tiering::RunnerOptions doomed = opt;
          doomed.telemetry_label = case_tag + "/doomed";
          doomed.on_epoch = [kill_epoch](std::uint32_t e) {
            if (e + 1 == kill_epoch) _exit(137);
          };
          (void)tiering::EndToEndRunner::run(spec, cfg, doomed);
          _exit(0);  // kill epoch never reached: config error
        }
        int status = 0;
        waitpid(child, &status, 0);
        const bool killed_as_planned =
            WIFEXITED(status) && WEXITSTATUS(status) == 137;

        // Resume from whatever the child left behind (possibly nothing,
        // when it died before the first checkpoint — cold-start path).
        opt.checkpoint.resume_latest = true;
        opt.telemetry_label = case_tag + "/resumed";
        const tiering::RunnerResult resumed =
            tiering::EndToEndRunner::run(spec, cfg, opt);
        const std::string got = fingerprint(resumed);

        const bool identical = killed_as_planned && got == want;
        if (!identical) ++failures;
        std::cout << (identical ? "  ok   " : "  FAIL ") << policy
                  << " threads=" << n_threads << " rate=" << rate_str
                  << " kill@" << kill_epoch
                  << (killed_as_planned ? "" : " (child not killed)") << "\n";
        if (!identical && killed_as_planned) {
          std::cout << "       want " << want << "\n       got  " << got
                    << "\n";
        }
        if (csv) {
          csv->write_row({policy, threads_str, rate_str,
                          std::to_string(kill_epoch), std::to_string(status),
                          identical ? "1" : "0"});
        }
      }
    }
  }
  std::cout << "\n"
            << (failures == 0 ? "All resumed runs bitwise identical."
                              : "MISMATCHES FOUND")
            << " (" << failures << " failing cases)\n";
  if (csv) std::cout << "Rows written to chaos.csv\n";
  if (telemetry) telemetry->export_final();
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
