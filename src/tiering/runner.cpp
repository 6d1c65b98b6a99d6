#include "tiering/runner.hpp"

#include <algorithm>
#include <memory>

#include "pmu/events.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/epoch.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::tiering {

namespace {

/// Re-establish fault delivery for every tier-2 page: poison new tier-2
/// residents (hot if the profiler ranked them), unpoison promoted pages.
void sync_poison(sim::System& system, monitors::BadgerTrap& trap,
                 const PlacementSet& hot_pages) {
  for (sim::Process* proc : system.processes()) {
    const mem::Pid pid = proc->pid();
    const std::uint32_t core = pid % system.config().cores;
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize size, mem::Pte& pte) {
          (void)size;
          const bool in_t2 = system.phys().tier_of(pte.pfn()) != 0;
          const bool poisoned = trap.is_poisoned(pid, page_va);
          if (in_t2) {
            const bool hot = hot_pages.count(PageKey{pid, page_va}) != 0;
            trap.poison(pid, proc->page_table(), system.tlb(core), page_va,
                        hot);
          } else if (poisoned) {
            trap.unpoison(pid, proc->page_table(), page_va);
          }
        });
  }
}

/// MoveStats fields in checkpoint order.
constexpr std::uint64_t MoveStats::*kMoveStatFields[] = {
    &MoveStats::promoted,    &MoveStats::demoted,  &MoveStats::retried,
    &MoveStats::deferred,    &MoveStats::aborted,  &MoveStats::no_room,
    &MoveStats::rejected,    &MoveStats::cooled,   &MoveStats::shed,
    &MoveStats::moved_bytes, &MoveStats::cost_ns,  &MoveStats::backoff_ns};

/// The profiling loop under the run: what the oracle's shadow collection
/// repeats and what run_epochs reads.
CollectOptions collect_options(const RunnerOptions& options) {
  CollectOptions collect;
  collect.n_epochs = options.n_epochs;
  collect.ops_per_epoch = options.ops_per_epoch;
  collect.seed = options.seed;
  collect.daemon = options.daemon;
  collect.daemon.fault = options.fault;
  collect.n_threads = options.n_threads;
  return collect;
}

RunnerResult run_impl(const WorkloadFactory& factory,
                      const sim::SimConfig& config,
                      const RunnerOptions& options,
                      const CollectOptions& loop,
                      const std::string& resume_path) {
  sim::System system(config);
  // Tier-0 capacity, as the System sized it.
  const std::uint64_t fast_frames = sim::tier_specs(config).front().frames;
  {
    std::size_t i = 0;
    for (auto& generator : factory(options.seed)) {
      const double weight = i < options.process_weights.size()
                                ? options.process_weights[i]
                                : 1.0;
      system.add_process(std::move(generator), weight);
      ++i;
    }
  }

  const bool emulation =
      options.slow_model == SlowMemoryModel::BadgerTrapEmulation;
  monitors::BadgerTrap trap(options.badgertrap);
  if (emulation) system.set_badgertrap(&trap);

  core::DaemonConfig daemon_config = options.daemon;
  daemon_config.fusion = options.fusion;
  daemon_config.charge_overhead = true;
  daemon_config.fault = options.fault;
  core::TmpDaemon daemon(system, daemon_config);
  MoverConfig mover_config = options.mover;
  mover_config.fault = options.fault;
  PageMover mover(system, mover_config);

  // Fleet consolidation (docs/CONSOLIDATION.md): tenants[i] owns the i-th
  // process. Registration order is the factory's yield order, so tenant
  // indices — and everything arbitrated from them — are reproducible.
  TenantArbiter arbiter;
  if (!options.tenants.empty()) {
    TMPROF_EXPECTS(options.tenants.size() <= system.processes().size());
    arbiter.set_capacity(fast_frames);
    std::vector<mem::Pid> pinned;
    for (std::size_t i = 0; i < options.tenants.size(); ++i) {
      const mem::Pid pid = system.processes()[i]->pid();
      arbiter.register_tenant(pid, options.tenants[i]);
      if (options.tenants[i].qos == QosClass::Latency) pinned.push_back(pid);
    }
    mover.set_tenant_arbiter(&arbiter);
    daemon.set_qos_lookup(
        [&arbiter](mem::Pid pid) { return arbiter.is_batch(pid); });
    daemon.set_pinned_pids(std::move(pinned));
  }

  // Telemetry attaches before any resume load: handles resolve registry
  // cells in place, and load_state later overwrites those same cells, so
  // resolution order never affects restored values.
  telemetry::Telemetry* const telemetry = options.telemetry;
  // Per-tier occupancy / fill gauges, named from the chain's tier names
  // sanitized to the registry charset ("tier1-dram" -> tier_tier1_dram_*).
  // Updated once per epoch from deterministic epoch-barrier state, so the
  // exported values are byte-identical across thread counts and resumes.
  std::vector<telemetry::Gauge> tier_occupied_gauges;
  std::vector<telemetry::Gauge> tier_fill_gauges;
  if (telemetry != nullptr) {
    mover.set_telemetry(telemetry);
    arbiter.set_telemetry(telemetry);
    for (const mem::TierSpec& spec : sim::tier_specs(config)) {
      std::string name = spec.name;
      for (char& c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        if (!ok) c = '_';
      }
      tier_occupied_gauges.push_back(
          telemetry->metrics().gauge("tier_" + name + "_occupied_frames"));
      tier_fill_gauges.push_back(
          telemetry->metrics().gauge("tier_" + name + "_fills"));
    }
  }

  const bool migrate = options.policy != "first-touch";
  const bool oracle = options.policy == "oracle";
  std::unique_ptr<Policy> policy;
  if (migrate && !oracle) policy = make_policy(options.policy);

  std::vector<std::vector<core::PageRank>> oracle_rankings;
  RunnerResult result;

  // Epoch-stage scratch, hoisted so steady-state iterations recycle the
  // policy-side buffers instead of reallocating them every epoch.
  std::vector<core::PageRank> filtered;
  PageSizeMap sizes;
  PlacementSet current;
  PlacementSet hot;

  EpochPlan plan;
  plan.kind = "runner";
  plan.meta = {{"seed", options.seed},
               {"policy", std::string_view(options.policy)},
               {"fusion mode", static_cast<std::uint8_t>(options.fusion)},
               {"epoch count", options.n_epochs},
               {"ops-per-epoch", options.ops_per_epoch},
               {"slow-memory model",
                static_cast<std::uint8_t>(options.slow_model)}};
  AdmissionController& admission = mover.admission();
  plan.sections = {
      {"devmon",
       [&](util::ckpt::Writer& w) { daemon.driver().save_devmon_state(w); },
       [&](util::ckpt::Reader& r) { daemon.driver().load_devmon_state(r); }},
      {"stream",
       [&](util::ckpt::Writer& w) { daemon.driver().save_stream_state(w); },
       [&](util::ckpt::Reader& r) { daemon.driver().load_stream_state(r); }},
      layer_section("mover", mover),
      flagged_section(
          "admission", admission.enabled(), "admission presence",
          [&](util::ckpt::Writer& w) {
            w.put_u8(static_cast<std::uint8_t>(admission.config().mode));
            if (admission.enabled()) admission.save_state(w);
          },
          [&](util::ckpt::Reader& r) {
            if (r.get_u8() !=
                static_cast<std::uint8_t>(admission.config().mode)) {
              throw util::ckpt::CkptError("admission",
                                          "admission mode mismatch");
            }
            if (admission.enabled()) admission.load_state(r);
          }),
      optional_layer_section("tenant", arbiter.enabled() ? &arbiter : nullptr,
                             "tenant arbitration presence"),
      optional_layer_section("policy", policy.get(), "policy presence"),
      optional_layer_section("trap", emulation ? &trap : nullptr,
                             "emulation mode"),
      // The oracle's rankings ride along, so a resumed oracle run skips
      // the shadow pre-pass.
      flagged_section(
          "oracle", oracle, "oracle mode",
          [&](util::ckpt::Writer& w) {
            if (!oracle) return;
            w.put_u64(oracle_rankings.size());
            for (const auto& ranking : oracle_rankings) {
              core::save_ranking(w, ranking);
            }
          },
          [&](util::ckpt::Reader& r) {
            if (!oracle) return;
            oracle_rankings.resize(r.get_count(8));  // per-ranking count
            for (auto& ranking : oracle_rankings) {
              core::load_ranking(r, ranking);
            }
          }),
      {"runner",
       [&](util::ckpt::Writer& w) {
         w.put_u64(result.migrations);
         for (const auto field : kMoveStatFields) {
           w.put_u64(result.moves.*field);
         }
       },
       [&](util::ckpt::Reader& r) {
         result.migrations = r.get_u64();
         for (const auto field : kMoveStatFields) {
           result.moves.*field = r.get_u64();
         }
       }},
  };

  // Oracle pre-pass: record each epoch's true hottest pages on an identical
  // shadow run (workload streams are deterministic, so the shadow sees the
  // same references the main run will).
  plan.cold_start = [&] {
    if (!oracle) return;
    const EpochSeries series =
        collect_series(factory, config, collect_options(options));
    for (const EpochData& data : series.epochs) {
      std::vector<core::PageRank> ranking;
      ranking.reserve(data.truth.size());
      for (const auto& [key, count] : data.truth) {
        core::PageRank pr;
        pr.key = key;
        pr.rank = count;
        ranking.push_back(pr);
      }
      std::sort(ranking.begin(), ranking.end(), core::RankOrder{});
      oracle_rankings.push_back(std::move(ranking));
    }
  };

  plan.stage = [&](std::uint32_t e, core::ProfileSnapshot& snapshot) {
    if (migrate && oracle) {
      // Oracle places for the *coming* epoch using its truth.
      const std::size_t next = e + 1;
      const std::vector<core::PageRank>* ranking =
          next < oracle_rankings.size() ? &oracle_rankings[next]
                                        : &snapshot.ranking;
      const MoveStats moved = mover.apply(*ranking, {fast_frames});
      result.migrations += moved.promoted + moved.demoted;
      result.moves.merge(moved);
    } else if (migrate) {
      // Every other policy decides through the Policy interface, seeing
      // the epoch that just ended above the mover's noise floor (rank ties
      // from single A-bit observations are not worth migrations).
      filtered.clear();
      filtered.reserve(snapshot.ranking.size());
      sizes.clear();
      for (const core::PageRank& pr : snapshot.ranking) {
        if (pr.rank < options.mover.min_rank) break;  // descending
        sim::Process& proc = system.process(pr.key.pid);
        const mem::PteRef ref = proc.page_table().resolve(pr.key.page_va);
        if (!ref) continue;
        filtered.push_back(pr);
        sizes[pr.key] = ref.size;
      }
      current.clear();
      for (const auto& [key, size] : mover.residents(0)) {
        current.insert(key);
      }
      PolicyContext ctx;
      ctx.capacity_frames = fast_frames;
      ctx.current = &current;
      ctx.observed_ranking = &filtered;
      ctx.page_sizes = &sizes;
      const PlacementSet next = policy->choose(ctx);
      const MoveStats moved = mover.apply_placement(next, filtered);
      result.migrations += moved.promoted + moved.demoted;
      result.moves.merge(moved);
    }
    if (emulation) {
      // The emulation framework refreshes protection each period. Hot =
      // profiler-ranked pages stuck in slow memory.
      hot.clear();
      for (const core::PageRank& pr : snapshot.ranking) hot.insert(pr.key);
      sync_poison(system, trap, hot);
    }
    if (arbiter.enabled()) {
      // Feed per-tenant hitrates back before the epoch's checkpoint, so
      // the arbiter's saved image — and its exported telemetry — includes
      // this epoch on a resume.
      for (std::uint32_t t = 0; t < arbiter.size(); ++t) {
        arbiter.note_hitrate_bp(
            t, static_cast<std::uint64_t>(
                   system.processes()[t]->tier0_hitrate() * 10000.0));
      }
      arbiter.publish_telemetry();
    }
    for (std::size_t t = 0; t < tier_occupied_gauges.size(); ++t) {
      tier_occupied_gauges[t].set(
          system.phys().used_frames(static_cast<mem::TierId>(t)));
      std::uint64_t fills = 0;
      for (const sim::Process* p : system.processes()) {
        fills += p->tier_fills(static_cast<mem::TierId>(t));
      }
      tier_fill_gauges[t].set(fills);
    }
  };

  run_epochs(loop, resume_path, system, daemon, plan);

  const std::uint64_t t1 = system.pmu().truth_total(pmu::Event::MemReadTier1);
  const std::uint64_t t2 = system.pmu().truth_total(pmu::Event::MemReadTier2);
  result.tier1_hitrate =
      (t1 + t2) == 0 ? 1.0
                     : static_cast<double>(t1) / static_cast<double>(t1 + t2);
  result.protection_faults = trap.total_faults();
  result.profiling_overhead_ns = daemon.driver().overhead_ns();
  result.degrade = daemon.degrade_stats();
  // The admission gate lives in the mover, not the daemon; fold its
  // throttle tally into the degradation report here.
  result.degrade.throttled_epochs = admission.throttled_epochs();
  result.process_hitrates.reserve(system.processes().size());
  for (const sim::Process* p : system.processes()) {
    result.process_hitrates.push_back(p->tier0_hitrate());
  }
  if (arbiter.enabled()) {
    result.tenants = arbiter.snapshot_outcomes();
    for (std::size_t t = 0; t < result.tenants.size(); ++t) {
      result.tenants[t].hitrate = system.processes()[t]->tier0_hitrate();
    }
  }
  // Trace-side overhead is not charged inline by the daemon (the driver's
  // interrupt handlers run on the profiled cores); add it here.
  result.runtime_ns = system.now() + daemon.driver().trace_overhead_ns();
  return result;
}

}  // namespace

RunnerResult EndToEndRunner::run(const WorkloadFactory& factory,
                                 const sim::SimConfig& sim_config,
                                 const RunnerOptions& options) {
  // Resolve the chain once (default or explicit tiers) so every later
  // reader — the System, the capacity sites in run_impl — sees one chain.
  sim::SimConfig config = sim_config;
  config.tiers = sim::tier_specs(config);
  if (options.slow_model == SlowMemoryModel::BadgerTrapEmulation) {
    // All tiers are physically DRAM; slowness comes from injected faults.
    const mem::TierSpec fastest = config.tiers.front();
    for (mem::TierSpec& spec : config.tiers) {
      spec.read_latency_ns = fastest.read_latency_ns;
      spec.write_latency_ns = fastest.write_latency_ns;
      spec.line_transfer_ns = fastest.line_transfer_ns;
    }
  }
  CollectOptions loop = collect_options(options);
  loop.checkpoint = options.checkpoint;
  loop.on_epoch = options.on_epoch;
  loop.telemetry = options.telemetry;
  loop.telemetry_label = options.telemetry_label.empty()
                             ? options.policy
                             : options.telemetry_label;
  RunnerResult result;
  resume_or_cold("runner", loop, config,
                 [&](const sim::SimConfig& engine_config,
                     const std::string& path) {
                   result = run_impl(factory, engine_config, options, loop,
                                     path);
                 });
  return result;
}

RunnerResult EndToEndRunner::run(const workloads::WorkloadSpec& spec,
                                 const sim::SimConfig& sim_config,
                                 const RunnerOptions& options) {
  return run(spec_factory(spec), sim_config, options);
}

}  // namespace tmprof::tiering
