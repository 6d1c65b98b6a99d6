#pragma once
/// \file epoch.hpp
/// Epoch-series collection: run a workload under the TMP daemon for N
/// epochs, recording both the ground-truth per-page memory-access counts
/// (what the Oracle policy and the hitrate metric need) and the profiler's
/// per-source observations (what History consumes). Fig. 6 and the
/// speedup study replay these series through the policies offline, exactly
/// as the paper computes policy results "based on the profiling data".

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/daemon.hpp"
#include "core/hotness.hpp"
#include "monitors/event.hpp"
#include "sim/system.hpp"
#include "tiering/policy.hpp"
#include "util/cache_line.hpp"
#include "util/ckpt.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {

/// Ground-truth observer: counts beyond-LLC accesses per page and records
/// first-touch order (the order pages would be allocated).
///
/// Under the sharded engine the collector shards natively: each core gets a
/// private sub-collector (pages are pid-owned and pids are core-affine, so
/// the key spaces are disjoint) whose state folds into the global view at
/// the epoch barrier in ascending core order.
class TruthCollector final : public monitors::AccessObserver {
 public:
  /// `hotness` carries no settings (counting is always exact); the
  /// parameter stays because the perfbench driver passes it.
  explicit TruthCollector(sim::System& system,
                          const core::HotnessConfig& hotness = {});

  void on_mem_op(const monitors::MemOpEvent& event) override;

  monitors::AccessObserver* shard_sink(std::uint32_t core) override;
  void merge_shards() override;

  /// Swap out this epoch's truth counts and newly-seen pages. The swapped
  /// buffers come back (cleared, capacity retained) next call, so a caller
  /// that reuses one EpochData keeps the epoch loop allocation-free.
  /// Returns the epoch's total of beyond-LLC accesses.
  std::uint64_t end_epoch(core::TruthMap& truth_out,
                          std::vector<PageKey>& new_pages_out);

  [[nodiscard]] const PageSizeMap& page_sizes() const noexcept {
    return page_sizes_;
  }

  /// Checkpoint hooks: the cross-epoch `seen` sets (global and per-shard)
  /// and the page-size map. Shard count must match on load.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  /// Written by its core's worker on every op, so each shard starts its
  /// own host cache line.
  struct alignas(util::kCacheLine) Shard final : monitors::AccessObserver {
    void on_mem_op(const monitors::MemOpEvent& event) override;

    core::HotnessTruth truth;
    core::PageHotnessSet seen;  ///< persists across epochs
    std::vector<std::pair<PageKey, mem::PageSize>> new_pages;
  };
  static_assert(alignof(Shard) == util::kCacheLine);

  sim::System& system_;
  core::HotnessTruth truth_;
  core::PageHotnessSet seen_;
  std::vector<PageKey> new_pages_;
  PageSizeMap page_sizes_;
  std::vector<Shard> shards_;  ///< one per core when the engine is sharded
};

/// One epoch's record.
struct EpochData {
  std::uint32_t epoch = 0;
  /// Per-page beyond-LLC access counts (ground truth).
  core::TruthMap truth;
  std::uint64_t truth_total = 0;
  /// The profiler's observations (A-bit / trace maps).
  core::EpochObservation observed;
  /// Pages first touched during this epoch, in order.
  std::vector<PageKey> new_pages;
};

struct EpochSeries {
  std::vector<EpochData> epochs;
  PageSizeMap page_sizes;
  std::uint64_t footprint_frames = 0;  ///< frames of all pages ever seen
  /// Daemon degradation tallies over the collection run (all zero unless
  /// CollectOptions::daemon.fault enabled sites).
  core::DegradeStats degrade{};
};

struct CollectOptions {
  std::uint32_t n_epochs = 12;
  std::uint64_t ops_per_epoch = 1'000'000;
  std::uint64_t seed = 42;
  core::DaemonConfig daemon;
  /// 0 (default) = legacy serial engine, bit-exact historical behavior.
  /// >= 1 = deterministic sharded engine; 1 runs the shards inline, > 1
  /// uses a worker pool. All values >= 1 produce identical results.
  std::uint32_t n_threads = 0;
  /// Periodic checkpointing and resume (docs/RECOVERY.md). A rejected
  /// resume file logs the bad section and falls back to the next-older
  /// retained checkpoint (with resume_latest), then to a cold start.
  util::ckpt::Options checkpoint{};
  /// Called after each completed epoch (chaos harness kill hook).
  std::function<void(std::uint32_t)> on_epoch;
  /// Telemetry sink for the collection run (docs/OBSERVABILITY.md); null
  /// (default) disables telemetry at zero hot-path cost. Not owned. Do not
  /// share one sink across concurrently-collecting Systems.
  telemetry::Telemetry* telemetry = nullptr;
  /// Chrome-trace process label ("" = "collect").
  std::string telemetry_label;
};

/// Produces the processes' workload generators for one run. Must be
/// deterministic: the Oracle pre-pass and the measured run each invoke it
/// and rely on getting identical streams.
using WorkloadFactory =
    std::function<std::vector<workloads::WorkloadPtr>(std::uint64_t seed)>;

/// Factory for a Table III spec (make_workload per process).
[[nodiscard]] WorkloadFactory spec_factory(const workloads::WorkloadSpec& spec);

// ---------------------------------------------------------------------------
// The checkpointed epoch loop shared by collect_series and
// EndToEndRunner::run. A kind of run builds its layers, then hands the loop
// its per-epoch stage and its section table. The loop owns the engine
// choice, the worker pool, the step dispatch, the epoch telemetry, the
// periodic checkpoint, the on_epoch hook and resume selection; save and
// load are both generated from the one table, in one order. It reads
// n_epochs, ops_per_epoch, n_threads, checkpoint, on_epoch, telemetry and
// telemetry_label from its CollectOptions.

/// One identity field of the `meta` section; a resume whose value differs
/// is rejected with "<name> mismatch". A string value must outlive the run.
struct MetaField {
  const char* name;
  std::variant<std::uint8_t, std::uint32_t, std::uint64_t, bool,
               std::string_view>
      value;
};

/// One checkpoint section: its name and the two halves of its payload.
struct Section {
  std::string name;
  std::function<void(util::ckpt::Writer&)> save;
  std::function<void(util::ckpt::Reader&)> load;
};

/// A section led by a presence flag. On resume a flag that differs from
/// `present` throws CkptError(name, "<what> mismatch"); otherwise the body
/// runs, present or not.
[[nodiscard]] Section flagged_section(
    std::string name, bool present, std::string what,
    std::function<void(util::ckpt::Writer&)> save,
    std::function<void(util::ckpt::Reader&)> load);

/// A section holding `layer`'s save_state/load_state.
template <class Layer>
[[nodiscard]] Section layer_section(std::string name, Layer& layer) {
  return {std::move(name),
          [&layer](util::ckpt::Writer& w) { layer.save_state(w); },
          [&layer](util::ckpt::Reader& r) { layer.load_state(r); }};
}

/// A flagged section for an optional layer (null = absent).
template <class Layer>
[[nodiscard]] Section optional_layer_section(std::string name, Layer* layer,
                                             std::string what) {
  return flagged_section(
      std::move(name), layer != nullptr, std::move(what),
      [layer](util::ckpt::Writer& w) {
        if (layer != nullptr) layer->save_state(w);
      },
      [layer](util::ckpt::Reader& r) {
        if (layer != nullptr) layer->load_state(r);
      });
}

/// What one kind of run hands the epoch loop.
struct EpochPlan {
  /// "runner" | "collect": the meta tag and default telemetry label.
  const char* kind = "";
  /// Identity fields; the loop adds the kind tag before them and the
  /// engine mode after them.
  std::vector<MetaField> meta;
  /// The kind's sections; the loop frames them with `system` and `daemon`
  /// before and `telemetry` after. This table is the one place a section
  /// is added (docs/RECOVERY.md).
  std::vector<Section> sections;
  /// Per-epoch work after the daemon tick.
  std::function<void(std::uint32_t epoch, core::ProfileSnapshot& snapshot)>
      stage;
  /// Runs before epoch 0 of a run that did not resume.
  std::function<void()> cold_start;
  /// First epoch to run; set from `meta` before the sections load.
  std::uint32_t start_epoch = 0;
};

/// Load `resume_path` (if non-empty) into the run, then step, tick, stage,
/// record and checkpoint every remaining epoch.
void run_epochs(const CollectOptions& options, const std::string& resume_path,
                sim::System& system, core::TmpDaemon& daemon,
                EpochPlan& plan);

/// Pick the engine, then call `attempt(config, path)` per resume candidate
/// until one loads: `resume_from`, or with `resume_latest` every retained
/// checkpoint, newest first. Each rejected file logs a warning naming its
/// bad section; when none loads, `attempt(config, "")` starts cold.
/// `attempt` builds its run from scratch and passes `path` to run_epochs.
void resume_or_cold(
    std::string_view kind, const CollectOptions& options,
    sim::SimConfig config,
    const std::function<void(const sim::SimConfig&, const std::string&)>&
        attempt);

/// Run workloads under the TMP daemon and collect their epoch series.
[[nodiscard]] EpochSeries collect_series(const WorkloadFactory& factory,
                                         const sim::SimConfig& sim_config,
                                         const CollectOptions& options);
[[nodiscard]] EpochSeries collect_series(const workloads::WorkloadSpec& spec,
                                         const sim::SimConfig& sim_config,
                                         const CollectOptions& options);

/// Build a System populated with the spec's processes (shared by benches).
void add_spec_processes(sim::System& system,
                        const workloads::WorkloadSpec& spec,
                        std::uint64_t seed);

/// Checkpoint serialization of collected epoch records (maps are written in
/// ascending key order; see core::save_page_counts).
void save_epoch_data(util::ckpt::Writer& w, const EpochData& data);
void load_epoch_data(util::ckpt::Reader& r, EpochData& data);
void save_series(util::ckpt::Writer& w, const EpochSeries& series);
void load_series(util::ckpt::Reader& r, EpochSeries& series);

}  // namespace tmprof::tiering
