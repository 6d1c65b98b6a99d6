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
/// A fourth section sweeps the sketch-mode hotness store (docs/SKETCH.md)
/// over a memory-vs-accuracy grid: width/depth x footprint on a Zipf
/// stream, reporting top-64 overlap against the exact store, Spearman rank
/// correlation over the exact top-256, and bytes per tracked page. Rows go
/// into the JSON as a separate `sketch_accuracy` array; the headline
/// acceptance point is >= 95% top-64 overlap at <= 1/8 of the exact
/// store's bytes.
///
/// Usage: micro_hotpath [--epochs=N] [--touches-per-page=N] [--step-ops=N] [--sketch-sweep=0|1]
///        [--out=BENCH_hotpath.json]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "core/hotness.hpp"
#include "core/ranking.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/zipf.hpp"
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
// Section 4: sketch-mode memory-vs-accuracy sweep.

struct AccuracyRow {
  std::uint64_t pages = 0;
  std::uint32_t width = 0;
  std::uint32_t depth = 0;
  std::uint32_t candidates = 0;
  std::uint64_t ops = 0;
  double top64_overlap = 0.0;
  double rank_corr_top256 = 0.0;
  std::uint64_t exact_bytes = 0;
  std::uint64_t sketch_bytes = 0;
  double bytes_ratio = 0.0;      ///< sketch / exact
  double bytes_per_page = 0.0;   ///< sketch bytes / distinct pages tracked
};

/// Average ranks (ties share their mean rank) — the Spearman prerequisite.
std::vector<double> average_ranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double mean_rank = (static_cast<double>(i + j) / 2.0) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mean_rank;
    i = j + 1;
  }
  return ranks;
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  const std::vector<double> ra = average_ranks(a);
  const std::vector<double> rb = average_ranks(b);
  const double n = static_cast<double>(ra.size());
  double sa = 0, sb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    sa += ra[i];
    sb += rb[i];
  }
  const double ma = sa / n, mb = sb / n;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

AccuracyRow run_sketch_accuracy(std::uint64_t pages, std::uint32_t width,
                                std::uint32_t depth,
                                std::uint32_t candidates) {
  core::HotnessConfig config;
  config.mode = core::HotnessMode::Sketch;
  config.sketch.width = width;
  config.sketch.depth = depth;
  config.candidates = candidates;

  core::HotnessCounts exact_store;
  core::HotnessCounts sketch_store(config);
  util::Rng rng(pages * 0x9e3779b9ULL + width + depth);
  util::ZipfDistribution zipf(pages, 0.99);
  const std::uint64_t ops = pages * 4;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t page = zipf(rng);
    const core::PageKey key{1 + static_cast<mem::Pid>(page % 4),
                            page * mem::kPageSize};
    exact_store.add(key);
    sketch_store.add(key);
  }

  AccuracyRow row;
  row.pages = pages;
  row.width = width;
  row.depth = depth;
  row.candidates = candidates;
  row.ops = ops;
  row.exact_bytes = exact_store.memory_bytes();
  row.sketch_bytes = sketch_store.memory_bytes();
  row.bytes_ratio = static_cast<double>(row.sketch_bytes) /
                    static_cast<double>(row.exact_bytes);

  core::PageCountMap exact_counts;
  core::PageCountMap sketch_counts;
  (void)exact_store.end_epoch_into(exact_counts);
  (void)sketch_store.end_epoch_into(sketch_counts);
  row.bytes_per_page = static_cast<double>(row.sketch_bytes) /
                       static_cast<double>(exact_counts.size());

  // Exact ranking, (count desc, key asc) — the profiler's total order.
  std::vector<std::pair<std::uint32_t, core::PageKey>> exact_order;
  exact_order.reserve(exact_counts.size());
  for (const auto& [key, count] : exact_counts) {
    exact_order.emplace_back(count, key);
  }
  std::sort(exact_order.begin(), exact_order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return b.second < a.second;
            });
  std::vector<std::pair<std::uint32_t, core::PageKey>> sketch_order;
  sketch_order.reserve(sketch_counts.size());
  for (const auto& [key, count] : sketch_counts) {
    sketch_order.emplace_back(count, key);
  }
  std::sort(sketch_order.begin(), sketch_order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return b.second < a.second;
            });

  const std::size_t k = std::min<std::size_t>(64, exact_order.size());
  std::unordered_set<std::uint64_t> sketch_top;
  for (std::size_t i = 0; i < k && i < sketch_order.size(); ++i) {
    sketch_top.insert(sketch_order[i].second.page_va);
  }
  std::size_t overlap = 0;
  for (std::size_t i = 0; i < k; ++i) {
    overlap += sketch_top.count(exact_order[i].second.page_va);
  }
  row.top64_overlap =
      k == 0 ? 0.0 : static_cast<double>(overlap) / static_cast<double>(k);

  // Spearman over the exact top-256: exact count vs sketch estimate
  // (absent candidates score 0, punishing dropped hot pages).
  const std::size_t top = std::min<std::size_t>(256, exact_order.size());
  std::vector<double> exact_vals;
  std::vector<double> sketch_vals;
  exact_vals.reserve(top);
  sketch_vals.reserve(top);
  for (std::size_t i = 0; i < top; ++i) {
    exact_vals.push_back(static_cast<double>(exact_order[i].first));
    const auto it = sketch_counts.find(exact_order[i].second);
    sketch_vals.push_back(
        it == sketch_counts.end() ? 0.0 : static_cast<double>(it->second));
  }
  row.rank_corr_top256 = spearman(exact_vals, sketch_vals);
  return row;
}

// ---------------------------------------------------------------------------

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<AccuracyRow>& accuracy) {
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
  os << "  ],\n  \"sketch_accuracy\": [\n";
  for (std::size_t i = 0; i < accuracy.size(); ++i) {
    const AccuracyRow& a = accuracy[i];
    os << "    {\"pages\": " << a.pages << ", \"width\": " << a.width
       << ", \"depth\": " << a.depth << ", \"candidates\": " << a.candidates
       << ", \"ops\": " << a.ops << ", \"top64_overlap\": " << a.top64_overlap
       << ", \"rank_corr_top256\": " << a.rank_corr_top256
       << ", \"exact_bytes\": " << a.exact_bytes
       << ", \"sketch_bytes\": " << a.sketch_bytes
       << ", \"bytes_ratio\": " << a.bytes_ratio
       << ", \"bytes_per_page\": " << a.bytes_per_page << "}"
       << (i + 1 < accuracy.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::uint64_t epochs = args.get_u64("epochs", 8);
  const std::uint64_t touches = args.get_u64("touches-per-page", 4);
  const std::uint64_t step_ops = args.get_u64("step-ops", 2'000'000);
  const bool sketch_sweep = args.get_bool("sketch-sweep", true);
  const std::string out_path = args.get("out", "BENCH_hotpath.json");

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

  std::vector<AccuracyRow> accuracy;
  if (sketch_sweep) {
    // Width/depth x footprint grid; candidate cap fixed at the driver's
    // default. The last row is the headline acceptance point: >= 0.95
    // top-64 overlap at <= 1/8 of the exact store's bytes.
    const std::pair<std::uint32_t, std::uint32_t> grid[] = {
        {1u << 12, 2}, {1u << 12, 4}, {1u << 14, 4}};
    for (const std::uint64_t pages : {65536ULL, 262144ULL}) {
      for (const auto& [width, depth] : grid) {
        accuracy.push_back(
            run_sketch_accuracy(pages, width, depth, 1u << 13));
      }
    }
    util::TextTable acc_table({"pages", "width", "depth", "top64_overlap",
                               "rank_corr", "bytes_ratio", "B/page"});
    for (const AccuracyRow& a : accuracy) {
      acc_table.add_row({std::to_string(a.pages), std::to_string(a.width),
                         std::to_string(a.depth),
                         std::to_string(a.top64_overlap),
                         std::to_string(a.rank_corr_top256),
                         std::to_string(a.bytes_ratio),
                         std::to_string(a.bytes_per_page)});
    }
    std::cout << "sketch accuracy sweep (zipf 0.99, candidates="
              << (1u << 13) << "):\n"
              << acc_table.to_string() << "\n";
    const AccuracyRow& headline = accuracy.back();
    std::cout << "headline: top-64 overlap " << headline.top64_overlap
              << " at " << headline.bytes_ratio
              << "x exact bytes (accept: >= 0.95 at <= 0.125)\n";
  }

  write_json(out_path, rows, accuracy);
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
