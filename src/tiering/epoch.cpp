#include "tiering/epoch.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace tmprof::tiering {

namespace {

void save_keys(util::ckpt::Writer& w, const std::vector<PageKey>& keys) {
  w.put_u64(keys.size());
  for (const PageKey& key : keys) core::PageKeyCodec::save(w, key);
}

void load_keys(util::ckpt::Reader& r, std::vector<PageKey>& keys) {
  keys.resize(r.get_count(core::PageKeyCodec::kBytes));
  for (PageKey& key : keys) key = core::PageKeyCodec::load(r);
}

void save_truth_map(util::ckpt::Writer& w, const core::TruthMap& map) {
  w.put_u64(map.size());
  map.fold_sorted([&w](const PageKey& key, std::uint64_t count) {
    core::PageKeyCodec::save(w, key);
    w.put_u64(count);
  });
}

void load_truth_map(util::ckpt::Reader& r, core::TruthMap& map) {
  map.clear();
  const std::uint64_t count = r.get_count(core::PageKeyCodec::kBytes + 8);
  map.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageKey key = core::PageKeyCodec::load(r);
    map[key] = r.get_u64();
  }
}

void save_size_map(util::ckpt::Writer& w, const PageSizeMap& map) {
  std::vector<PageKey> keys;
  keys.reserve(map.size());
  for (const auto& [key, size] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.put_u64(keys.size());
  for (const PageKey& key : keys) {
    core::PageKeyCodec::save(w, key);
    w.put_u8(static_cast<std::uint8_t>(map.at(key)));
  }
}

void load_size_map(util::ckpt::Reader& r, PageSizeMap& map) {
  map.clear();
  const std::uint64_t count = r.get_count(core::PageKeyCodec::kBytes + 1);
  map.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageKey key = core::PageKeyCodec::load(r);
    map.emplace(key, static_cast<mem::PageSize>(r.get_u8()));
  }
}

/// The DegradeStats fields a series checkpoints, in order.
constexpr std::uint64_t core::DegradeStats::*kSeriesDegradeFields[] = {
    &core::DegradeStats::hwpc_wraps,      &core::DegradeStats::scans_aborted,
    &core::DegradeStats::trace_dropped,   &core::DegradeStats::rescaled_epochs,
    &core::DegradeStats::fallback_epochs, &core::DegradeStats::pinned_epochs};

}  // namespace

TruthCollector::TruthCollector(sim::System& system,
                               const core::HotnessConfig& /*hotness*/)
    : system_(system) {
  if (system.config().sharded_engine) shards_.resize(system.config().cores);
}

void TruthCollector::on_mem_op(const monitors::MemOpEvent& event) {
  const mem::VirtAddr page_va = mem::page_base(event.vaddr, event.page_size);
  const PageKey key{event.pid, page_va};
  if (seen_.insert(key)) {
    new_pages_.push_back(key);
    page_sizes_[key] = event.page_size;
  }
  if (mem::is_memory(event.source)) {
    truth_.add(key);
  }
}

void TruthCollector::Shard::on_mem_op(const monitors::MemOpEvent& event) {
  const mem::VirtAddr page_va = mem::page_base(event.vaddr, event.page_size);
  const PageKey key{event.pid, page_va};
  if (seen.insert(key)) {
    new_pages.emplace_back(key, event.page_size);
  }
  if (mem::is_memory(event.source)) {
    truth.add(key);
  }
}

monitors::AccessObserver* TruthCollector::shard_sink(std::uint32_t core) {
  if (shards_.empty()) return nullptr;
  TMPROF_ASSERT(core < shards_.size());
  return &shards_[core];
}

void TruthCollector::merge_shards() {
  // Shards hold disjoint key spaces (a page belongs to one pid, a pid to
  // one core); folding them in ascending core order makes the merged maps'
  // contents — and their insertion-driven iteration order — a pure function
  // of the simulation, not of thread timing.
  for (Shard& shard : shards_) {
    for (const auto& [key, size] : shard.new_pages) {
      new_pages_.push_back(key);
      page_sizes_[key] = size;
    }
    shard.new_pages.clear();
    truth_.merge_from(shard.truth);  // clears the shard
  }
}

void TruthCollector::save_state(util::ckpt::Writer& w) const {
  truth_.save_state(w);
  seen_.save_state(w);
  save_keys(w, new_pages_);
  save_size_map(w, page_sizes_);
  w.put_u64(shards_.size());
  for (const Shard& shard : shards_) {
    shard.truth.save_state(w);
    shard.seen.save_state(w);
    w.put_u64(shard.new_pages.size());
    for (const auto& [key, size] : shard.new_pages) {
      core::PageKeyCodec::save(w, key);
      w.put_u8(static_cast<std::uint8_t>(size));
    }
  }
}

void TruthCollector::load_state(util::ckpt::Reader& r) {
  truth_.load_state(r, "truth");
  seen_.load_state(r, "truth");
  load_keys(r, new_pages_);
  load_size_map(r, page_sizes_);
  const std::uint64_t n_shards = r.get_u64();
  if (n_shards != shards_.size()) {
    throw util::ckpt::CkptError("truth", "shard count mismatch");
  }
  for (Shard& shard : shards_) {
    shard.truth.load_state(r, "truth");
    shard.seen.load_state(r, "truth");
    shard.new_pages.clear();
    const std::uint64_t n_shard_new =
        r.get_count(core::PageKeyCodec::kBytes + 1);
    shard.new_pages.reserve(n_shard_new);
    for (std::uint64_t i = 0; i < n_shard_new; ++i) {
      const PageKey key = core::PageKeyCodec::load(r);
      shard.new_pages.emplace_back(key,
                                   static_cast<mem::PageSize>(r.get_u8()));
    }
  }
}

std::uint64_t TruthCollector::end_epoch(core::TruthMap& truth_out,
                                        std::vector<PageKey>& new_pages_out) {
  // Swaps rather than moves: the caller's previous buffers become next
  // epoch's accumulators, keeping their slot arrays.
  const std::uint64_t total = truth_.end_epoch_into(truth_out);
  std::swap(new_pages_out, new_pages_);
  new_pages_.clear();
  return total;
}

void add_spec_processes(sim::System& system,
                        const workloads::WorkloadSpec& spec,
                        std::uint64_t seed) {
  for (std::uint32_t i = 0; i < spec.processes; ++i) {
    system.add_process(workloads::make_workload(spec, i, seed));
  }
}

WorkloadFactory spec_factory(const workloads::WorkloadSpec& spec) {
  return [spec](std::uint64_t seed) {
    std::vector<workloads::WorkloadPtr> generators;
    generators.reserve(spec.processes);
    for (std::uint32_t i = 0; i < spec.processes; ++i) {
      generators.push_back(workloads::make_workload(spec, i, seed));
    }
    return generators;
  };
}

EpochSeries collect_series(const workloads::WorkloadSpec& spec,
                           const sim::SimConfig& sim_config,
                           const CollectOptions& options) {
  return collect_series(spec_factory(spec), sim_config, options);
}

void save_epoch_data(util::ckpt::Writer& w, const EpochData& data) {
  w.put_u32(data.epoch);
  save_truth_map(w, data.truth);
  w.put_u64(data.truth_total);
  core::save_observation(w, data.observed);
  save_keys(w, data.new_pages);
}

void load_epoch_data(util::ckpt::Reader& r, EpochData& data) {
  data.epoch = r.get_u32();
  load_truth_map(r, data.truth);
  data.truth_total = r.get_u64();
  core::load_observation(r, data.observed);
  load_keys(r, data.new_pages);
}

void save_series(util::ckpt::Writer& w, const EpochSeries& series) {
  w.put_u64(series.epochs.size());
  for (const EpochData& data : series.epochs) save_epoch_data(w, data);
  save_size_map(w, series.page_sizes);
  w.put_u64(series.footprint_frames);
  for (const auto field : kSeriesDegradeFields) {
    w.put_u64(series.degrade.*field);
  }
}

void load_series(util::ckpt::Reader& r, EpochSeries& series) {
  series.epochs.clear();
  // An epoch record with empty maps and key lists is 64 bytes.
  const std::uint64_t n_epochs = r.get_count(64);
  series.epochs.reserve(n_epochs);
  for (std::uint64_t i = 0; i < n_epochs; ++i) {
    EpochData data;
    load_epoch_data(r, data);
    series.epochs.push_back(std::move(data));
  }
  load_size_map(r, series.page_sizes);
  series.footprint_frames = r.get_u64();
  for (const auto field : kSeriesDegradeFields) {
    series.degrade.*field = r.get_u64();
  }
}

namespace {

/// A resume file that failed to load. Distinct from CkptError so a failed
/// save inside the epoch loop is never mistaken for a bad resume file.
struct Rejected {
  util::ckpt::CkptError error;
};

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};

void put_meta(util::ckpt::Writer& w, const MetaField& field) {
  std::visit(Overloaded{[&w](std::uint8_t v) { w.put_u8(v); },
                        [&w](std::uint32_t v) { w.put_u32(v); },
                        [&w](std::uint64_t v) { w.put_u64(v); },
                        [&w](bool v) { w.put_bool(v); },
                        [&w](std::string_view v) { w.put_str(v); }},
             field.value);
}

void check_meta(util::ckpt::Reader& r, const MetaField& field) {
  const bool same = std::visit(
      Overloaded{[&r](std::uint8_t v) { return r.get_u8() == v; },
                 [&r](std::uint32_t v) { return r.get_u32() == v; },
                 [&r](std::uint64_t v) { return r.get_u64() == v; },
                 [&r](bool v) { return r.get_bool() == v; },
                 [&r](std::string_view v) { return r.get_str() == v; }},
      field.value);
  if (!same) {
    throw util::ckpt::CkptError("meta", std::string(field.name) + " mismatch");
  }
}

EpochSeries collect_series_impl(const WorkloadFactory& factory,
                                const sim::SimConfig& config,
                                const CollectOptions& options,
                                const std::string& resume_path) {
  sim::System system(config);
  for (auto& generator : factory(options.seed)) {
    system.add_process(std::move(generator));
  }
  TruthCollector truth(system, options.daemon.driver.hotness);
  system.add_observer(&truth);
  core::TmpDaemon daemon(system, options.daemon);

  EpochSeries series;
  series.epochs.reserve(options.n_epochs);
  EpochPlan plan;
  plan.kind = "collect";
  plan.meta = {{"seed", options.seed},
               {"epoch count", options.n_epochs},
               {"ops-per-epoch", options.ops_per_epoch}};
  plan.sections = {
      layer_section("truth", truth),
      {"series", [&](util::ckpt::Writer& w) { save_series(w, series); },
       [&](util::ckpt::Reader& r) {
         load_series(r, series);
         if (series.epochs.size() != plan.start_epoch) {
           throw util::ckpt::CkptError("series",
                                       "epoch record count mismatch");
         }
       }},
  };
  plan.stage = [&](std::uint32_t e, core::ProfileSnapshot& snapshot) {
    EpochData data;
    data.epoch = e;
    data.truth_total = truth.end_epoch(data.truth, data.new_pages);
    data.observed = std::move(snapshot.observation);
    series.epochs.push_back(std::move(data));
  };
  run_epochs(options, resume_path, system, daemon, plan);

  series.page_sizes = truth.page_sizes();
  series.footprint_frames = 0;
  for (const auto& [key, size] : series.page_sizes) {
    series.footprint_frames += mem::pages_in(size);
  }
  series.degrade = daemon.degrade_stats();
  return series;
}

}  // namespace

Section flagged_section(std::string name, bool present, std::string what,
                        std::function<void(util::ckpt::Writer&)> save,
                        std::function<void(util::ckpt::Reader&)> load) {
  Section section{std::move(name), nullptr, nullptr};
  section.save = [present, save = std::move(save)](util::ckpt::Writer& w) {
    w.put_bool(present);
    save(w);
  };
  section.load = [present, name = section.name, what = std::move(what),
                  load = std::move(load)](util::ckpt::Reader& r) {
    if (r.get_bool() != present) {
      throw util::ckpt::CkptError(name, what + " mismatch");
    }
    load(r);
  };
  return section;
}

void run_epochs(const CollectOptions& options, const std::string& resume_path,
                sim::System& system, core::TmpDaemon& daemon,
                EpochPlan& plan) {
  telemetry::Telemetry* const telemetry = options.telemetry;
  telemetry::Counter epochs_counter;
  if (telemetry != nullptr) {
    telemetry->begin_run(options.telemetry_label.empty()
                             ? plan.kind
                             : options.telemetry_label);
    system.set_telemetry(telemetry);
    daemon.set_telemetry(telemetry);
    epochs_counter = telemetry->metrics().counter("runner_epochs_total");
  }
  std::vector<Section> table = {layer_section("system", system),
                                layer_section("daemon", daemon)};
  table.insert(table.end(), plan.sections.begin(), plan.sections.end());
  table.push_back(optional_layer_section("telemetry", telemetry,
                                         "telemetry presence"));
  // `meta`: the kind tag, the kind's identity fields and the engine mode,
  // then the epoch the checkpoint resumes at.
  std::vector<MetaField> meta = {
      {"checkpoint kind", std::string_view(plan.kind)}};
  meta.insert(meta.end(), plan.meta.begin(), plan.meta.end());
  meta.push_back({"engine mode", system.config().sharded_engine});

  plan.start_epoch = 0;
  if (!resume_path.empty()) {
    try {
      util::ckpt::Reader r = util::ckpt::Reader::from_file(resume_path);
      r.enter_section("meta");
      for (const MetaField& field : meta) check_meta(r, field);
      plan.start_epoch = r.get_u32();
      if (plan.start_epoch == 0 || plan.start_epoch >= options.n_epochs) {
        throw util::ckpt::CkptError("meta", "resume epoch out of range");
      }
      r.end_section();
      for (const Section& section : table) {
        r.enter_section(section.name);
        section.load(r);
        r.end_section();
      }
    } catch (const util::ckpt::CkptError& err) {
      throw Rejected{err};
    }
  } else if (plan.cold_start) {
    plan.cold_start();
  }

  std::unique_ptr<util::ThreadPool> pool;
  if (options.n_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.n_threads);
  }
  // Reused across epochs: the snapshot's observation maps and ranking
  // vector are recycled rather than reallocated.
  core::ProfileSnapshot snapshot;
  const util::ckpt::Options& ck = options.checkpoint;
  for (std::uint32_t e = plan.start_epoch; e < options.n_epochs; ++e) {
    const util::SimNs epoch_begin = system.now();
    if (system.config().sharded_engine) {
      system.step_parallel(options.ops_per_epoch, pool.get());
    } else {
      system.step(options.ops_per_epoch);
    }
    daemon.tick_into(snapshot);
    plan.stage(e, snapshot);
    // Record the epoch's telemetry before the checkpoint below, so the
    // saved span ring and counters include this epoch — a resumed run
    // replays the remaining epochs and exports identical artifacts.
    epochs_counter.inc();
    if (telemetry != nullptr) {
      telemetry->span("runner.epoch", epoch_begin, system.now(),
                      telemetry::kTidRunner);
      telemetry->maybe_export(e + 1);
    }
    if (ck.enabled() && (e + 1) % ck.every == 0) {
      util::ckpt::Writer w;
      w.begin_section("meta");
      for (const MetaField& field : meta) put_meta(w, field);
      w.put_u32(e + 1);
      w.end_section();
      for (const Section& section : table) {
        w.begin_section(section.name);
        section.save(w);
        w.end_section();
      }
      util::ckpt::Writer::save_atomic(
          util::ckpt::checkpoint_path(ck.dir, ck.basename, e + 1),
          w.finish());
      util::ckpt::prune(ck.dir, ck.basename, ck.keep_last);
    }
    if (options.on_epoch) options.on_epoch(e);
  }
}

void resume_or_cold(
    std::string_view kind, const CollectOptions& options,
    sim::SimConfig config,
    const std::function<void(const sim::SimConfig&, const std::string&)>&
        attempt) {
  const util::ckpt::Options& ck = options.checkpoint;
  if (ck.enabled()) {
    // Best-effort mkdir -p; a dir that still can't be written to surfaces
    // as a CkptError("<io>") from the first save_atomic.
    std::error_code ec;
    std::filesystem::create_directories(ck.dir, ec);
  }
  if (options.n_threads >= 1) config.sharded_engine = true;

  std::vector<std::string> candidates;
  if (!ck.resume_from.empty()) {
    candidates.push_back(ck.resume_from);
  } else if (ck.resume_latest && !ck.dir.empty()) {
    candidates = util::ckpt::checkpoints_in(ck.dir, ck.basename);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    try {
      attempt(config, candidates[i]);
      return;
    } catch (const Rejected& rejected) {
      TMPROF_LOG_WARN << kind << ": checkpoint '" << candidates[i]
                      << "' rejected in section '" << rejected.error.section()
                      << "': " << rejected.error.what()
                      << (i + 1 < candidates.size()
                              ? "; trying the next older checkpoint"
                              : "; starting cold");
    }
  }
  attempt(config, "");
}

EpochSeries collect_series(const WorkloadFactory& factory,
                           const sim::SimConfig& sim_config,
                           const CollectOptions& options) {
  TMPROF_EXPECTS(options.n_epochs >= 1);
  EpochSeries series;
  resume_or_cold("collect", options, sim_config,
                 [&](const sim::SimConfig& config, const std::string& path) {
                   series = collect_series_impl(factory, config, options, path);
                 });
  return series;
}

}  // namespace tmprof::tiering
