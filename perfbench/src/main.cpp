/// End-to-end benchmark driver.
///
/// Usage: perfbench --workload=<name> [--seed=N] [--seconds=S] [--trace=0|1]
///        [--scratch=DIR]
///
/// Repeats whole passes of one workload until --seconds have elapsed (at
/// least one pass), checks every pass, and prints a report followed by one
/// JSON line:
///   --trace=0  end-to-end metrics, measured on the public entry points;
///   --trace=1  per-layer metrics from a traced pass composed of the public
///              layer calls, checked bit for bit against an untraced pass.
/// Exits 1 if any pass throws or fails a check.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Recorded serial-engine values of the repository. EXPERIMENTS.md section
/// VI-C (web_serving, seed 42) and the data_caching rows of the root
/// fig6_hitrate.csv (seed 42), in kDivisors x case_label order.
constexpr double kWebSpeedup = 1.080;
constexpr double kWebFirstTouchHitrate = 0.803;
constexpr double kWebHistoryHitrate = 0.864;
constexpr double kPaperAverageSpeedup = 1.04;
constexpr ReplayGrid kCachingReplay{{
    {0.43706, 0.291265, 0.554463, 0.309489, 0.169499, 0.438523, 0.73623,
     0.395462},
    {0.219691, 0.291265, 0.403308, 0.156715, 0.169499, 0.324282, 0.596719,
     0.222129},
    {0.152373, 0.291265, 0.300292, 0.131914, 0.169499, 0.181373, 0.478149,
     0.118163},
    {0.0214201, 0.239623, 0.239634, 0.0189348, 0.131171, 0.131171, 0.381483,
     0.0603349},
    {0.0106134, 0.169553, 0.169553, 0.0094441, 0.0798126, 0.0798126,
     0.296028, 0.0295712},
}};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-tmp";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument(arg + ": missing value");
    }
    std::size_t used = 0;
    try {
      if (arg == "--workload") {
        args.workload = value;
        have_workload = true;
        used = value.size();
      } else if (arg == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value, &used);
      } else if (arg == "--trace") {
        args.trace = std::stoi(value, &used) != 0;
      } else if (arg == "--scratch") {
        args.scratch = value;
        used = value.size();
      } else {
        throw std::invalid_argument("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      used = std::string::npos;
    }
    if (used != value.size() || value.empty()) {
      throw std::invalid_argument(arg + ": bad value '" + value + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
      << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
      << "\"}";
  }
  s << "}}";
  std::cout << s.str() << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void report_failures(const std::string& what,
                     const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::cerr << "perfbench: FAIL (" << what << "): " << f << "\n";
  }
}

/// Every sim-time result beside the repository's recorded serial-engine
/// value; the largest hitrate gap is the reference error in pp.
void print_references(const WorkloadDef& def, const SimOutcome& sim) {
  std::printf("reference check (recorded serial-engine values, seed 42):\n");
  if (def.name == "online-web") {
    const double err = 100.0 *
        std::max(std::fabs(sim.first_touch.tier1_hitrate -
                           kWebFirstTouchHitrate),
                 std::fabs(sim.history.tier1_hitrate - kWebHistoryHitrate));
    std::printf("  speedup             %.4f  recorded %.3f\n", sim.speedup,
                kWebSpeedup);
    std::printf("  first-touch hitrate %.4f  recorded %.3f\n",
                sim.first_touch.tier1_hitrate, kWebFirstTouchHitrate);
    std::printf("  history hitrate     %.4f  recorded %.3f\n",
                sim.history.tier1_hitrate, kWebHistoryHitrate);
    std::printf("  migrations          %llu\n",
                static_cast<unsigned long long>(sim.history.migrations));
    std::printf("  ref_err_pp          %.3f\n", err);
  } else if (def.kind == Kind::Online) {
    std::printf("  speedup             %.4f  unvalidated: no recorded value "
                "(paper average %.2fx)\n",
                sim.speedup, kPaperAverageSpeedup);
    std::printf("  first-touch hitrate %.4f  unvalidated\n",
                sim.first_touch.tier1_hitrate);
    std::printf("  history hitrate     %.4f  unvalidated\n",
                sim.history.tier1_hitrate);
    std::printf("  ref_err_pp          unvalidated\n");
  } else {
    double err = 0.0;
    std::printf("  %-8s", "ratio");
    for (std::size_t c = 0; c < kCases; ++c) {
      std::printf(" %18s", case_label(c));
    }
    std::printf("\n");
    for (std::size_t r = 0; r < kDivisors.size(); ++r) {
      std::printf("  1/%-6llu", static_cast<unsigned long long>(kDivisors[r]));
      for (std::size_t c = 0; c < kCases; ++c) {
        err = std::max(err,
                       100.0 * std::fabs(sim.replay[r][c] - kCachingReplay[r][c]));
        std::printf("  %6.1f%% (rec %5.1f%%)", 100.0 * sim.replay[r][c],
                    100.0 * kCachingReplay[r][c]);
      }
      std::printf("\n");
    }
    std::printf("  ref_err_pp          %.3f\n", err);
  }
}

int run_end_to_end(const WorkloadDef& def, const Args& args,
                   const std::string& scratch) {
  std::vector<PassResult> passes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Start a pass only if it should end within --seconds, judged by the
  // previous pass; the first pass always runs.
  const double start = wall_now_s();
  double last_s = 0.0;
  while (attempted == 0 || wall_now_s() - start + last_s <= args.seconds) {
    ++attempted;
    const double pass_start = wall_now_s();
    try {
      PassResult pass = run_untraced(def, args.seed, scratch);
      if (!passes.empty()) {
        for (std::string& d : diff_outcomes(pass.sim, passes.front().sim)) {
          pass.failures.push_back("pass differs from the first: " + d);
        }
      }
      if (!pass.failures.empty()) {
        ++failed;
        report_failures("pass " + std::to_string(attempted), pass.failures);
      }
      passes.push_back(std::move(pass));
    } catch (const std::exception& err) {
      ++failed;
      report_failures("pass " + std::to_string(attempted), {err.what()});
    }
    last_s = wall_now_s() - pass_start;
  }
  if (passes.empty()) {
    print_result(false, attempted, failed, {});
    return 1;
  }

  std::vector<double> epochs, setups, walls, cpus;
  double steady_s = 0.0;
  std::uint64_t steady_ops = 0;
  for (const PassResult& p : passes) {
    epochs.insert(epochs.end(), p.host.epoch_s.begin(), p.host.epoch_s.end());
    setups.insert(setups.end(), p.host.setup_s.begin(), p.host.setup_s.end());
    walls.push_back(p.host.wall_s);
    cpus.push_back(p.host.cpu_s);
    steady_s += std::accumulate(p.host.epoch_s.begin(), p.host.epoch_s.end(),
                                0.0);
    steady_ops += p.host.steady_ops;
  }
  const SimOutcome& sim = passes.front().sim;
  const std::vector<Metric> metrics{
      {"sim_ops_per_s", static_cast<double>(steady_ops) / steady_s, "1/s"},
      {"epoch_ms_p50", 1e3 * median(epochs), "ms"},
      {"wall_s", median(walls), "s"},
      {"cpu_s", median(cpus), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"tier1_hitrate", sim.tier1_hitrate, "ratio"},
      {"speedup", sim.speedup, "x"},
  };

  std::printf("perfbench %s seed=%llu: %llu passes, %llu failed, %zu steady "
              "epochs, %zu set-ups\n",
              def.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), epochs.size(),
              setups.size());
  std::sort(epochs.begin(), epochs.end());
  const std::size_t p90 = epochs.size() * 9 / 10;
  if (epochs.size() - p90 >= 10) {
    std::printf("  epoch_ms_p90 %.3f ms (%zu samples beyond)\n",
                1e3 * epochs[p90], epochs.size() - p90);
  } else {
    std::printf("  epoch_ms_p90 not reported: %zu samples beyond it, "
                "10 needed\n",
                epochs.size() - p90);
  }
  std::printf("  pass wall s:");
  for (double w : walls) std::printf(" %.3f", w);
  std::printf("\n");
  print_references(def, sim);
  std::printf("end-to-end metrics (host: sim_ops_per_s .. peak_rss_mb; "
              "sim: tier1_hitrate, speedup):\n");
  print_metrics(metrics);
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

std::vector<Metric> layer_metrics(const WorkloadDef& def, const TracedPass& t,
                                  double untraced_wall_s,
                                  const Probes& probes) {
  const Ledger& l = t.ledger;
  const auto span = [&l](const char* layer) {
    const auto it = l.span_s.find(layer);
    return it == l.span_s.end() ? 0.0 : it->second;
  };
  const auto share = [&](const char* layer) {
    return 100.0 * span(layer) / l.loop_s;
  };
  const double step = span("sim.step");
  const double ops = static_cast<double>(l.stepped_ops);
  const double epochs = static_cast<double>(l.epochs);
  const double pmu_kops = static_cast<double>(l.pmu_ops) / 1000.0;
  tiering::MoveStats moves;
  if (def.kind == Kind::Online) moves = t.sim.history.moves;
  const double done = static_cast<double>(moves.promoted + moves.demoted);
  const double tried = done + static_cast<double>(
      moves.deferred + moves.no_room + moves.aborted + moves.rejected +
      moves.cooled + moves.shed);
  const double control = share("tiering.resolve") +
                         share("tiering.residents") +
                         share("tiering.choose") + share("tiering.apply");
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"workloads.next_ns", probes.next_ns, "ns"},
      {"workloads.gen_share", 100.0 * probes.next_ns * 1e-9 * ops / step, "%"},
      {"sim.step_ms", 1e3 * step, "ms"},
      {"sim.step_ns_per_op", 1e9 * step / ops, "ns"},
      {"sim.step_share", share("sim.step"), "%"},
      {"sim.step_cpu_ms", 1e3 * l.step_cpu_s, "ms"},
      {"sim.step_scaling", probes.step_scaling, "x"},
      {"sim.ops", ops, "count"},
      {"sim.llc_miss_per_kop", count(l.llc_misses) / pmu_kops, "1/kop"},
      {"sim.tlb_walk_per_kop", count(l.tlb_walks) / pmu_kops, "1/kop"},
      {"sim.page_faults", count(l.page_faults), "count"},
      {"core.tick_ms", 1e3 * span("core.tick"), "ms"},
      {"core.tick_share", share("core.tick"), "%"},
      {"core.ranked_pages", count(l.ranked_pages) / epochs, "count"},
      {"core.abit_scans", count(l.abit_scans), "count"},
      {"core.trace_epochs", count(l.trace_epochs), "count"},
      {"core.overhead_pct", 100.0 * l.overhead_sim_ns / l.runtime_sim_ns, "%"},
      {"tiering.resolve_share", share("tiering.resolve"), "%"},
      {"tiering.residents_share", share("tiering.residents"), "%"},
      {"tiering.choose_share", share("tiering.choose"), "%"},
      {"tiering.apply_share", share("tiering.apply"), "%"},
      {"tiering.control_share", control, "%"},
      {"tiering.promoted", count(moves.promoted), "count"},
      {"tiering.demoted", count(moves.demoted), "count"},
      {"tiering.deferred", count(moves.deferred), "count"},
      {"tiering.no_room", count(moves.no_room), "count"},
      {"tiering.aborted", count(moves.aborted), "count"},
      {"tiering.moved_mb", count(moves.moved_bytes) / (1 << 20), "MiB"},
      {"tiering.move_yield", tried > 0.0 ? done / tried : 0.0, "ratio"},
      {"tiering.truth_share", share("tiering.truth"), "%"},
      {"tiering.truth_pages", count(l.truth_pages) / epochs, "count"},
      {"tiering.replay_share", 100.0 * l.replay_s / l.pass_s, "%"},
      {"tiering.replay_cases", count(l.replay_cases), "count"},
      {"ckpt.save_ms", 1e3 * l.ckpt_save_s, "ms"},
      {"ckpt.save_share", share("ckpt.save"), "%"},
      {"ckpt.mb", l.ckpt_bytes / (1 << 20), "MiB"},
      {"ckpt.resume_ms", 1e3 * l.ckpt_resume_s, "ms"},
      {"trace.loop_ms", 1e3 * l.loop_s, "ms"},
      {"trace.coverage_pct", 100.0 * coverage(l), "%"},
      {"trace.overhead_pct",
       100.0 * (l.pass_s - untraced_wall_s) / untraced_wall_s, "%"},
  };
}

int run_layers(const WorkloadDef& def, const Args& args,
               const std::string& scratch) {
  struct Round {
    TracedPass traced;
    double untraced_wall_s;
  };
  std::vector<Round> rounds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const double start = wall_now_s();
  double last_s = 0.0;
  while (attempted == 0 || wall_now_s() - start + last_s <= args.seconds) {
    ++attempted;
    const double round_start = wall_now_s();
    try {
      // Alternate which pass runs first so that process warm-up does not
      // bias the tracing overhead.
      PassResult untraced;
      TracedPass traced;
      if (attempted % 2 == 1) {
        untraced = run_untraced(def, args.seed, scratch);
        traced = run_traced(def, args.seed, scratch);
      } else {
        traced = run_traced(def, args.seed, scratch);
        untraced = run_untraced(def, args.seed, scratch);
      }
      std::printf("  round %llu: untraced %.3f s, traced %.3f s\n",
                  static_cast<unsigned long long>(attempted),
                  untraced.host.wall_s, traced.ledger.pass_s);
      std::vector<std::string> failures = untraced.failures;
      failures.insert(failures.end(), traced.failures.begin(),
                      traced.failures.end());
      for (std::string& d : diff_outcomes(traced.sim, untraced.sim)) {
        failures.push_back("traced differs from untraced: " + d);
      }
      if (coverage(traced.ledger) < 0.95) {
        failures.push_back("layer spans cover under 95% of the loop");
      }
      if (!failures.empty()) {
        ++failed;
        report_failures("round " + std::to_string(attempted), failures);
      }
      rounds.push_back({std::move(traced), untraced.host.wall_s});
    } catch (const std::exception& err) {
      ++failed;
      report_failures("round " + std::to_string(attempted), {err.what()});
    }
    last_s = wall_now_s() - round_start;
  }
  if (rounds.empty()) {
    print_result(false, attempted, failed, {});
    return 1;
  }

  // Probes: generator-only pass and the main call at the other thread count.
  ++attempted;
  Probes probes;
  try {
    probes = run_probes(def, args.seed, rounds.back().traced);
  } catch (const std::exception& err) {
    probes.failures.push_back(err.what());
  }
  if (!probes.failures.empty()) {
    ++failed;
    report_failures("probes", probes.failures);
  }

  // Host-time values are medians over the rounds; counts repeat exactly.
  std::map<std::string, std::vector<double>> values;
  std::vector<Metric> metrics;
  for (const Round& r : rounds) {
    metrics = layer_metrics(def, r.traced, r.untraced_wall_s, probes);
    for (const Metric& m : metrics) values[m.name].push_back(m.value);
  }
  for (Metric& m : metrics) m.value = median(values[m.name]);

  std::printf("perfbench %s seed=%llu traced: %zu rounds, %llu failed\n",
              def.name.c_str(), static_cast<unsigned long long>(args.seed),
              rounds.size(), static_cast<unsigned long long>(failed));
  print_references(def, rounds.front().traced.sim);
  std::printf("per-layer metrics (traced pass, medians over rounds):\n");
  print_metrics(metrics);
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  const WorkloadDef* def = nullptr;
  try {
    args = parse_args(argc, argv);
    def = &find_def(args.workload);
  } catch (const std::exception& err) {
    std::cerr << "perfbench: " << err.what() << "\n";
    return 2;
  }
  const std::string scratch = args.scratch + "/" + def->name + "-" +
                              std::to_string(::getpid());
  int status = 1;
  try {
    status = args.trace ? run_layers(*def, args, scratch)
                        : run_end_to_end(*def, args, scratch);
  } catch (const std::exception& err) {
    std::cerr << "perfbench: " << err.what() << "\n";
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  return status;
}
