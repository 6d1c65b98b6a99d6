#include <time.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "core/daemon.hpp"
#include "pmu/events.hpp"
#include "tiering/mover.hpp"
#include "tiering/policies.hpp"
#include "util/ckpt.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

/// Adds the wall time of its scope to one layer's total.
class Span {
 public:
  Span(Ledger& ledger, const char* layer)
      : total_(ledger.span_s[layer]), start_(wall_now_s()) {}
  ~Span() { total_ += wall_now_s() - start_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& total_;
  double start_;
};

double thread_group_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void save_moves(util::ckpt::Writer& w, const tiering::MoveStats& m) {
  for (std::uint64_t v : {m.promoted, m.demoted, m.retried, m.deferred,
                          m.aborted, m.no_room, m.rejected, m.cooled, m.shed,
                          m.moved_bytes, m.cost_ns, m.backoff_ns}) {
    w.put_u64(v);
  }
}

void load_moves(util::ckpt::Reader& r, tiering::MoveStats& m) {
  for (std::uint64_t* v : {&m.promoted, &m.demoted, &m.retried, &m.deferred,
                           &m.aborted, &m.no_room, &m.rejected, &m.cooled,
                           &m.shed, &m.moved_bytes, &m.cost_ns,
                           &m.backoff_ns}) {
    *v = r.get_u64();
  }
}

sim::SimConfig sharded_config(const WorkloadDef& def) {
  sim::SimConfig cfg = sim_config(def);
  cfg.sharded_engine = true;
  return cfg;
}

/// Shared by both loops: the simulated substrate and the profiling daemon.
struct Machine {
  Machine(const WorkloadDef& def, std::uint64_t seed, std::uint32_t threads)
      : config(sharded_config(def)),
        system(std::make_unique<sim::System>(config)),
        ops_per_epoch(def.ops_per_epoch) {
    for (auto& generator : tiering::spec_factory(spec_of(def))(seed)) {
      system->add_process(std::move(generator));
    }
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  }

  void step(Ledger& ledger) {
    const double cpu0 = thread_group_cpu_s();
    {
      Span span(ledger, "sim.step");
      system->step_parallel(ops_per_epoch, pool.get());
    }
    ledger.step_cpu_s += thread_group_cpu_s() - cpu0;
    ledger.stepped_ops += ops_per_epoch;
    ++ledger.epochs;
  }

  void tick(Ledger& ledger) {
    {
      Span span(ledger, "core.tick");
      daemon->tick_into(snapshot);
    }
    ledger.ranked_pages += snapshot.ranking.size();
    ledger.abit_scans += snapshot.abit_ran ? 1 : 0;
    ledger.trace_epochs += snapshot.trace_ran ? 1 : 0;
  }

  /// Substrate counters of a call that ran from epoch 0.
  void add_counters(Ledger& ledger) {
    const pmu::Pmu& pmu = system->pmu();
    ledger.pmu_ops += system->total_ops();
    ledger.llc_misses += pmu.truth_total(pmu::Event::LlcMiss);
    ledger.tlb_walks += pmu.truth_total(pmu::Event::DtlbWalk) +
                        pmu.truth_total(pmu::Event::ItlbWalk);
    ledger.page_faults += pmu.truth_total(pmu::Event::PageFault);
  }

  sim::SimConfig config;
  std::unique_ptr<sim::System> system;
  std::unique_ptr<core::TmpDaemon> daemon;
  std::unique_ptr<util::ThreadPool> pool;
  core::ProfileSnapshot snapshot;
  std::uint64_t ops_per_epoch;
};

/// EndToEndRunner's epoch loop (native slow memory, no tenants, no faults),
/// composed from the public layer calls.
class OnlineLoop {
 public:
  OnlineLoop(const WorkloadDef& def, std::uint64_t seed,
             const std::string& policy, std::uint32_t threads)
      : opt_(runner_options(def, seed, policy)), m_(def, seed, threads) {
    core::DaemonConfig daemon = opt_.daemon;
    daemon.fusion = opt_.fusion;
    daemon.charge_overhead = true;
    m_.daemon = std::make_unique<core::TmpDaemon>(*m_.system, daemon);
    mover_ = std::make_unique<tiering::PageMover>(*m_.system, opt_.mover);
    if (policy != "first-touch") policy_ = tiering::make_policy(policy);
  }

  void epoch(Ledger& ledger) {
    m_.step(ledger);
    m_.tick(ledger);
    if (!policy_) return;
    {
      Span span(ledger, "tiering.resolve");
      filtered_.clear();
      filtered_.reserve(m_.snapshot.ranking.size());
      sizes_.clear();
      for (const core::PageRank& pr : m_.snapshot.ranking) {
        if (pr.rank < opt_.mover.min_rank) break;  // descending
        sim::Process& proc = m_.system->process(pr.key.pid);
        const mem::PteRef ref = proc.page_table().resolve(pr.key.page_va);
        if (!ref) continue;
        filtered_.push_back(pr);
        sizes_[pr.key] = ref.size;
      }
    }
    {
      Span span(ledger, "tiering.residents");
      current_.clear();
      for (const auto& [key, size] : mover_->residents(0)) {
        current_.insert(key);
      }
    }
    tiering::PlacementSet next;
    {
      Span span(ledger, "tiering.choose");
      tiering::PolicyContext ctx;
      ctx.capacity_frames = m_.config.tier1_frames;
      ctx.current = &current_;
      ctx.observed_ranking = &filtered_;
      ctx.page_sizes = &sizes_;
      next = policy_->choose(ctx);
    }
    {
      Span span(ledger, "tiering.apply");
      const tiering::MoveStats moved = mover_->apply_placement(next, filtered_);
      migrations_ += moved.promoted + moved.demoted;
      moves_.merge(moved);
      tiering::PlacementSet().swap(next);
    }
  }

  [[nodiscard]] tiering::RunnerResult result() const {
    sim::System& system = *m_.system;
    tiering::RunnerResult r;
    const std::uint64_t t1 = system.pmu().truth_total(pmu::Event::MemReadTier1);
    const std::uint64_t t2 = system.pmu().truth_total(pmu::Event::MemReadTier2);
    r.tier1_hitrate = (t1 + t2) == 0 ? 1.0
                                     : static_cast<double>(t1) /
                                           static_cast<double>(t1 + t2);
    r.migrations = migrations_;
    r.moves = moves_;
    r.profiling_overhead_ns = m_.daemon->driver().overhead_ns();
    r.degrade = m_.daemon->degrade_stats();
    r.degrade.throttled_epochs = mover_->admission().throttled_epochs();
    for (const sim::Process* p : system.processes()) {
      r.process_hitrates.push_back(p->tier0_hitrate());
    }
    r.runtime_ns = system.now() + m_.daemon->driver().trace_overhead_ns();
    return r;
  }

  void save(util::ckpt::Writer& w) const {
    w.begin_section("system");
    m_.system->save_state(w);
    w.end_section();
    w.begin_section("daemon");
    m_.daemon->save_state(w);
    m_.daemon->driver().save_devmon_state(w);
    m_.daemon->driver().save_stream_state(w);
    w.end_section();
    w.begin_section("mover");
    mover_->save_state(w);
    w.end_section();
    w.begin_section("policy");
    if (policy_) policy_->save_state(w);
    w.end_section();
    w.begin_section("totals");
    w.put_u64(migrations_);
    save_moves(w, moves_);
    w.end_section();
  }

  void load(util::ckpt::Reader& r) {
    r.enter_section("system");
    m_.system->load_state(r);
    r.end_section();
    r.enter_section("daemon");
    m_.daemon->load_state(r);
    m_.daemon->driver().load_devmon_state(r);
    m_.daemon->driver().load_stream_state(r);
    r.end_section();
    r.enter_section("mover");
    mover_->load_state(r);
    r.end_section();
    r.enter_section("policy");
    if (policy_) policy_->load_state(r);
    r.end_section();
    r.enter_section("totals");
    migrations_ = r.get_u64();
    load_moves(r, moves_);
    r.end_section();
  }

  [[nodiscard]] Machine& machine() { return m_; }

 private:
  tiering::RunnerOptions opt_;
  Machine m_;
  std::unique_ptr<tiering::PageMover> mover_;
  std::unique_ptr<tiering::Policy> policy_;
  std::vector<core::PageRank> filtered_;
  tiering::PageSizeMap sizes_;
  tiering::PlacementSet current_;
  std::uint64_t migrations_ = 0;
  tiering::MoveStats moves_;
};

/// collect_series's epoch loop, composed from the public layer calls.
class CollectLoop {
 public:
  CollectLoop(const WorkloadDef& def, std::uint64_t seed, std::uint32_t threads)
      : opt_(collect_options(def, seed)), m_(def, seed, threads) {
    truth_ = std::make_unique<tiering::TruthCollector>(
        *m_.system, opt_.daemon.driver.hotness);
    m_.system->add_observer(truth_.get());
    m_.daemon = std::make_unique<core::TmpDaemon>(*m_.system, opt_.daemon);
  }

  void epoch(Ledger& ledger) {
    m_.step(ledger);
    m_.tick(ledger);
    Span span(ledger, "tiering.truth");
    tiering::EpochData data;
    data.epoch = static_cast<std::uint32_t>(series_.epochs.size());
    data.truth_total = truth_->end_epoch(data.truth, data.new_pages);
    data.observed = std::move(m_.snapshot.observation);
    ledger.truth_pages += data.truth.size();
    series_.epochs.push_back(std::move(data));
  }

  [[nodiscard]] tiering::EpochSeries finish() {
    series_.page_sizes = truth_->page_sizes();
    series_.footprint_frames = 0;
    for (const auto& [key, size] : series_.page_sizes) {
      series_.footprint_frames += mem::pages_in(size);
    }
    series_.degrade = m_.daemon->degrade_stats();
    return std::move(series_);
  }

  void save(util::ckpt::Writer& w) const {
    w.begin_section("system");
    m_.system->save_state(w);
    w.end_section();
    w.begin_section("daemon");
    m_.daemon->save_state(w);
    w.end_section();
    w.begin_section("truth");
    truth_->save_state(w);
    w.end_section();
    w.begin_section("series");
    tiering::save_series(w, series_);
    w.end_section();
  }

  void load(util::ckpt::Reader& r) {
    r.enter_section("system");
    m_.system->load_state(r);
    r.end_section();
    r.enter_section("daemon");
    m_.daemon->load_state(r);
    r.end_section();
    r.enter_section("truth");
    truth_->load_state(r);
    r.end_section();
    r.enter_section("series");
    tiering::load_series(r, series_);
    r.end_section();
  }

  [[nodiscard]] Machine& machine() { return m_; }

 private:
  tiering::CollectOptions opt_;
  Machine m_;
  std::unique_ptr<tiering::TruthCollector> truth_;
  tiering::EpochSeries series_;
};

/// Runs epochs [from, to) and adds their wall time to the ledger's loop
/// time; `after(e)` runs inside the loop after epoch e (checkpoints).
template <typename Loop, typename After = void (*)(std::uint32_t)>
void run_epochs(Loop& loop, Ledger& ledger, std::uint32_t from,
                std::uint32_t to, After after = [](std::uint32_t) {}) {
  const double start = wall_now_s();
  for (std::uint32_t e = from; e < to; ++e) {
    loop.epoch(ledger);
    after(e);
  }
  ledger.loop_s += wall_now_s() - start;
}

/// Timed checkpoint write: every public save_state call plus the file write.
template <typename Loop>
std::vector<std::uint8_t> save_checkpoint(const Loop& loop,
                                          const std::string& path,
                                          Ledger& ledger,
                                          std::vector<double>& save_s) {
  const double start = wall_now_s();
  std::vector<std::uint8_t> image;
  {
    Span span(ledger, "ckpt.save");
    util::ckpt::Writer w;
    loop.save(w);
    image = w.finish();
    util::ckpt::Writer::save_atomic(path, image);
  }
  save_s.push_back(wall_now_s() - start);
  ledger.ckpt_bytes = static_cast<double>(image.size());
  return image;
}

/// Timed checkpoint read into a freshly built loop.
template <typename Loop>
void load_checkpoint(Loop& loop, const std::string& path, Ledger& ledger) {
  const double start = wall_now_s();
  util::ckpt::Reader r = util::ckpt::Reader::from_file(path);
  loop.load(r);
  ledger.ckpt_resume_s = wall_now_s() - start;
}

/// Checkpoint probe for workloads that do not checkpoint: save the final
/// state, load it into a fresh loop, and require that saving the fresh
/// loop gives the same image. Returns the seconds it took.
template <typename Loop, typename Make>
double round_trip(const Loop& loop, Make make_fresh, const std::string& path,
                  Ledger& ledger, std::vector<std::string>& failures) {
  const double start = wall_now_s();
  Ledger probe;
  std::vector<double> save_s;
  const std::vector<std::uint8_t> image =
      save_checkpoint(loop, path, probe, save_s);
  ledger.ckpt_save_s = save_s.front();
  ledger.ckpt_bytes = probe.ckpt_bytes;
  auto fresh = make_fresh();
  load_checkpoint(*fresh, path, ledger);
  util::ckpt::Writer again;
  fresh->save(again);
  if (again.finish() != image) {
    failures.push_back("checkpoint round trip changed the saved image");
  }
  return wall_now_s() - start;
}

}  // namespace

double coverage(const Ledger& ledger) {
  double covered = 0.0;
  for (const auto& [layer, seconds] : ledger.span_s) covered += seconds;
  return covered / ledger.loop_s;
}

TracedPass run_traced(const WorkloadDef& def, std::uint64_t seed,
                      const std::string& scratch) {
  TracedPass out;
  Ledger& ledger = out.ledger;
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const auto ckpt_path = [&](std::uint32_t epoch) {
    return util::ckpt::checkpoint_path(scratch, "traced", epoch);
  };

  const double pass_start = wall_now_s();
  double probe_s = 0.0;
  tiering::EpochSeries series;
  if (def.kind == Kind::Online) {
    {
      OnlineLoop first_touch(def, seed, "first-touch", def.threads);
      run_epochs(first_touch, ledger, 0, def.n_epochs);
      out.sim.first_touch = first_touch.result();
      first_touch.machine().add_counters(ledger);
    }
    {
      const double step_before = ledger.span_s["sim.step"];
      OnlineLoop history(def, seed, "history", def.threads);
      std::vector<double> save_s;
      run_epochs(history, ledger, 0, def.n_epochs, [&](std::uint32_t e) {
        if (def.checkpoint_every != 0 && (e + 1) % def.checkpoint_every == 0) {
          save_checkpoint(history, ckpt_path(e + 1), ledger, save_s);
        }
      });
      ledger.main_step_s = ledger.span_s["sim.step"] - step_before;
      ledger.ckpt_save_s = median(save_s);
      out.sim.history = history.result();
      history.machine().add_counters(ledger);
      if (def.checkpoint_every == 0) {
        probe_s += round_trip(
            history,
            [&] {
              return std::make_unique<OnlineLoop>(def, seed, "history",
                                                  def.threads);
            },
            ckpt_path(def.n_epochs), ledger, out.failures);
      }
    }
    if (def.checkpoint_every != 0) {
      OnlineLoop resumed(def, seed, "history", def.threads);
      load_checkpoint(resumed, ckpt_path(def.resume_epoch), ledger);
      run_epochs(resumed, ledger, def.resume_epoch, def.n_epochs);
      for (std::string& d : diff_results("traced resume", resumed.result(),
                                         out.sim.history)) {
        out.failures.push_back(std::move(d));
      }
    }
    for (const tiering::RunnerResult* r : {&out.sim.first_touch,
                                           &out.sim.history}) {
      ledger.overhead_sim_ns += static_cast<double>(r->profiling_overhead_ns);
      ledger.runtime_sim_ns += static_cast<double>(r->runtime_ns);
    }
  } else {
    {
      CollectLoop collect(def, seed, def.threads);
      run_epochs(collect, ledger, 0, def.n_epochs);
      ledger.main_step_s = ledger.span_s["sim.step"];
      collect.machine().add_counters(ledger);
      ledger.overhead_sim_ns = static_cast<double>(
          collect.machine().daemon->driver().overhead_ns());
      ledger.runtime_sim_ns =
          static_cast<double>(collect.machine().system->now());
      probe_s += round_trip(
          collect,
          [&] { return std::make_unique<CollectLoop>(def, seed, def.threads); },
          ckpt_path(def.n_epochs), ledger, out.failures);
      series = collect.finish();
    }
    const double replay_start = wall_now_s();
    for (std::size_t r = 0; r < kDivisors.size(); ++r) {
      for (std::size_t c = 0; c < kCases; ++c) {
        out.sim.replay[r][c] = replay_case(series, r, c);
      }
    }
    ledger.replay_s = wall_now_s() - replay_start;
    ledger.replay_cases = kDivisors.size() * kCases;
  }
  ledger.pass_s = wall_now_s() - pass_start - probe_s;

  if (def.kind == Kind::Profile) out.sim.series_hash = hash_series(series);
  derive_headline(def, out.sim);
  for (std::string& f : check_outcome(def, out.sim)) {
    out.failures.push_back(std::move(f));
  }
  return out;
}

Probes run_probes(const WorkloadDef& def, std::uint64_t seed,
                  const TracedPass& traced) {
  Probes out;
  // Generator alone: the same number of references the history (or
  // collect) call steps, drawn round-robin from the same generators.
  {
    auto generators = tiering::spec_factory(spec_of(def))(seed);
    const std::uint64_t n = def.ops_per_epoch * def.n_epochs;
    std::uint64_t sink = 0;
    const double start = wall_now_s();
    for (std::uint64_t i = 0; i < n; ++i) {
      sink += generators[i % generators.size()]->next().offset;
    }
    const double elapsed = wall_now_s() - start;
    asm volatile("" : : "r"(sink) : "memory");
    out.next_ns = elapsed * 1e9 / static_cast<double>(n);
  }
  // The main call again at the other thread count (1 <-> 2 workers); the
  // sharded engine must give identical results at both.
  const std::uint32_t other = def.threads > 1 ? 1 : 2;
  Ledger probe;
  if (def.kind == Kind::Online) {
    OnlineLoop history(def, seed, "history", other);
    run_epochs(history, probe, 0, def.n_epochs);
    for (std::string& d : diff_results("threads=" + std::to_string(other),
                                       history.result(), traced.sim.history)) {
      out.failures.push_back(std::move(d));
    }
  } else {
    CollectLoop collect(def, seed, other);
    run_epochs(collect, probe, 0, def.n_epochs);
    if (hash_series(collect.finish()) != traced.sim.series_hash) {
      out.failures.push_back("series differs at threads=" +
                             std::to_string(other));
    }
  }
  const double other_step = probe.span_s["sim.step"];
  const double main_step = traced.ledger.main_step_s;
  out.step_scaling =
      def.threads > 1 ? other_step / main_step : main_step / other_step;
  return out;
}

}  // namespace perfbench
