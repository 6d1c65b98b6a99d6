/// Hot-path microbenchmark — the tracked performance baseline for the
/// allocation-free epoch loop (docs/PERFORMANCE.md).
///
/// Three sections, each reported as ops/sec at several page footprints:
///  * collector_merge — insert-or-increment a page-counter map with a
///    skewed key stream and close the epoch (the TruthCollector /
///    EpochObservation accumulation pattern),
///  * ranking_full — build the ranking policies consume each epoch (flat
///    merge + fuse + full sort, the daemon's path),
///  * step_parallel — end-to-end simulator steps with a TruthCollector
///    attached.
///
/// Every section runs on the open-addressing util::FlatHashMap the hot
/// path uses. Results go to stdout (human table) and BENCH_hotpath.json
/// ({section, pages, ops, seconds, ops_per_sec} rows).
///
/// Usage: micro_hotpath [--epochs=N] [--touches-per-page=N] [--step-ops=N]
///        [--out=BENCH_hotpath.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ranking.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace tmprof;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string section;
  std::uint64_t pages = 0;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Skewed key stream over `pages` distinct pages: a hot head is touched
/// every round, the tail with stride mixing — roughly the shape an epoch
/// of trace + A-bit evidence produces.
std::vector<core::PageKey> make_key_stream(std::uint64_t pages,
                                           std::uint64_t touches_per_page) {
  util::Rng rng(pages * 2654435761ULL + 13);
  std::vector<core::PageKey> keys;
  keys.reserve(pages * touches_per_page);
  const std::uint64_t hot = std::max<std::uint64_t>(1, pages / 8);
  for (std::uint64_t t = 0; t < touches_per_page; ++t) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      // Half the touches go to the hot head, half sweep the full range.
      const std::uint64_t page =
          (p % 2 == 0) ? rng.below(hot) : rng.below(pages);
      keys.push_back(core::PageKey{1 + static_cast<mem::Pid>(page % 4),
                                   page * mem::kPageSize});
    }
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Section 1: collector merge (insert-or-increment + epoch close).

Row run_collector_merge(std::uint64_t pages, std::uint64_t epochs,
                        const std::vector<core::PageKey>& keys) {
  core::PageCountMap current;
  core::PageCountMap closed;
  // Untimed warmup epoch: measure steady state, not first-touch growth.
  for (const core::PageKey& key : keys) current[key] += 1;
  closed.swap(current);
  current.clear();
  const auto start = Clock::now();
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (const core::PageKey& key : keys) current[key] += 1;
    // Epoch close: swap-and-clear, same protocol as TmpDriver/TruthCollector.
    closed.swap(current);
    current.clear();
  }
  Row row{"collector_merge", pages, epochs * keys.size(), 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  if (closed.size() == 0) std::cerr << "collector_merge: empty epoch?\n";
  return row;
}

// ---------------------------------------------------------------------------
// Section 2: ranking build (merge + fuse + sort each epoch).

void fill_observation(core::EpochObservation& obs,
                      const std::vector<core::PageKey>& keys) {
  obs.clear();
  std::uint64_t i = 0;
  for (const core::PageKey& key : keys) {
    if (i % 3 != 0) obs.trace[key] += 1;  // trace-heavy, like IBS epochs
    if (i % 3 == 0) obs.abit[key] += 1;
    if (i % 16 == 0) obs.writes[key] += 1;
    ++i;
  }
}

/// `ranking_full` is the daemon's path: flat merge + fuse + full sort, so
/// ops is ranked entries produced.
Row run_ranking_full(std::uint64_t pages, std::uint64_t epochs,
                     const std::vector<core::PageKey>& keys) {
  core::EpochObservation obs;
  fill_observation(obs, keys);
  std::vector<core::PageRank> out;
  std::uint64_t checksum = 0;
  core::RankingScratch scratch;
  auto build = [&] {
    core::build_ranking_into(obs, core::FusionMode::Sum, 1.0, scratch, out);
  };
  build();  // untimed warmup: size every reused buffer first
  const auto start = Clock::now();
  for (std::uint64_t e = 0; e < epochs; ++e) {
    build();
    checksum += out.empty() ? 0 : out.front().rank;
  }
  const double elapsed = seconds_since(start);
  Row row{"ranking_full", pages, epochs * out.size(), 0.0, 0.0};
  row.seconds = elapsed;
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  if (checksum == 0) std::cerr << "ranking_full: zero checksum?\n";
  return row;
}

// ---------------------------------------------------------------------------
// Section 3: end-to-end simulator steps with a live collector.

Row run_step_parallel(std::uint64_t footprint_pages, std::uint64_t step_ops) {
  const std::uint64_t footprint = footprint_pages * mem::kPageSize;
  sim::System system(bench::testbed_config(footprint));
  system.add_process(
      std::make_unique<workloads::ZipfWorkload>(footprint, 4096, 0.99, 0.1, 7));
  tiering::TruthCollector collector(system);
  system.add_observer(&collector);
  core::TruthMap truth;
  std::vector<core::PageKey> new_pages;
  // Warm the caches, page tables and collector buffers.
  system.step(step_ops / 4);
  collector.end_epoch(truth, new_pages);
  const auto start = Clock::now();
  for (int e = 0; e < 4; ++e) {
    system.step(step_ops / 4);
    collector.end_epoch(truth, new_pages);
  }
  Row row{"step_parallel", footprint_pages, step_ops, 0.0, 0.0};
  row.seconds = seconds_since(start);
  row.ops_per_sec = static_cast<double>(row.ops) / row.seconds;
  system.remove_observer(&collector);
  return row;
}

// ---------------------------------------------------------------------------

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "micro_hotpath: cannot open " << path << "\n";
    std::exit(1);
  }
  os << "{\n  \"bench\": \"micro_hotpath\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"section\": \"" << r.section << "\", \"pages\": " << r.pages
       << ", \"ops\": " << r.ops
       << ", \"seconds\": " << r.seconds
       << ", \"ops_per_sec\": " << r.ops_per_sec << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int bench_main(const util::ArgParser& args) {
  const std::uint64_t epochs = args.get_u64("epochs", 8);
  const std::uint64_t touches = args.get_u64("touches-per-page", 4);
  const std::uint64_t step_ops = args.get_u64("step-ops", 2'000'000);
  const std::string out_path = args.get("out", "BENCH_hotpath.json");
  args.reject_unread();

  const std::uint64_t footprints[] = {4096, 16384, 65536};
  std::vector<Row> rows;

  std::cout << "micro_hotpath: epoch hot-path ops/sec (" << epochs << " epochs, " << touches
            << " touches/page)\n\n";

  for (const std::uint64_t pages : footprints) {
    const std::vector<core::PageKey> keys = make_key_stream(pages, touches);
    rows.push_back(run_collector_merge(pages, epochs, keys));
    rows.push_back(run_ranking_full(pages, epochs, keys));
  }
  // One end-to-end datapoint at the middle footprint.
  rows.push_back(run_step_parallel(16384, step_ops));

  util::TextTable table({"section", "pages", "ops", "Mops/s"});
  for (const Row& r : rows) {
    table.add_row({r.section, std::to_string(r.pages), std::to_string(r.ops),
                   std::to_string(r.ops_per_sec / 1e6)});
  }
  std::cout << table.to_string() << "\n";

  write_json(out_path, rows);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
