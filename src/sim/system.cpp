#include "sim/system.hpp"

#include "util/ckpt.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "mem/ptw.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tmprof::sim {

using pmu::Event;

std::vector<mem::TierSpec> tier_specs(const SimConfig& config) {
  if (!config.tiers.empty()) {
    TMPROF_EXPECTS(config.tiers.size() <= mem::kMaxTiers);
    return config.tiers;
  }
  // The default machine: DRAM over Optane-class NVM. Telemetry metric
  // names and the golden outputs depend on these tier names.
  constexpr util::SimNs kDramNs = 80;
  constexpr util::SimNs kNvmReadNs = 300;
  constexpr util::SimNs kNvmWriteNs = 600;
  return {mem::TierSpec{"tier1-dram", config.tier1_frames, kDramNs, kDramNs},
          mem::TierSpec{"tier2-nvm", config.tier2_frames, kNvmReadNs,
                        kNvmWriteNs}};
}

namespace {
std::uint64_t pow2_floor(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

// Access-latency histogram geometry: 64 ns buckets up to 4 µs covers every
// modeled latency short of a major fault; the rest lands in overflow.
constexpr std::uint64_t kLatencyHistHi = 4096;
constexpr std::size_t kLatencyHistBuckets = 64;

// Ops a worker runs on one core of a sharded step before it may switch
// cores: about half a millisecond of host time, short enough to even out a
// step's end across workers, long enough that claiming a core is noise.
constexpr std::uint64_t kStepChunkOps = 4096;
}  // namespace

System::System(const SimConfig& config)
    : config_(config),
      phys_(tier_specs(config), config.sharded_engine ? config.cores : 1),
      pmu_(config.cores, config.pmu_registers),
      // With the sharded engine the LLC lives in per-core slices; keep the
      // shared-LLC member at its minimum legal geometry (one set) so it
      // costs nothing.
      llc_(config.sharded_engine
               ? mem::kLineSize * config.llc_ways
               : config.llc_bytes,
           config.llc_ways) {
  TMPROF_EXPECTS(config.cores >= 1);
  if (config.sharded_engine) {
    // Slice the LLC: same associativity, a power-of-two fraction of the
    // sets per core (CacheLevel indexes with a mask). Rounding down keeps
    // the slice a valid geometry; the few percent of capacity lost to
    // rounding is a modeling choice, not an error.
    const std::uint64_t total_sets =
        config.llc_bytes /
        (static_cast<std::uint64_t>(config.llc_ways) * mem::kLineSize);
    const std::uint64_t slice_sets =
        pow2_floor(std::max<std::uint64_t>(1, total_sets / config.cores));
    const std::uint64_t slice_bytes =
        slice_sets * config.llc_ways * mem::kLineSize;
    llc_slices_.reserve(config.cores);
    for (std::uint32_t c = 0; c < config.cores; ++c) {
      llc_slices_.push_back(
          std::make_unique<mem::CacheLevel>(slice_bytes, config.llc_ways));
    }
  }
  cores_.reserve(config.cores);
  for (std::uint32_t c = 0; c < config.cores; ++c) {
    mem::CacheLevel* llc =
        config.sharded_engine ? llc_slices_[c].get() : &llc_;
    cores_.push_back(Core{
        mem::Tlb(config.l1_tlb, config.l2_tlb),
        mem::CacheHierarchy(config.l1_bytes, config.l1_ways, config.l2_bytes,
                            config.l2_ways, llc, config.prefetch)});
  }
}

mem::Tlb& System::tlb(std::uint32_t core) {
  TMPROF_EXPECTS(core < cores_.size());
  return cores_[core].tlb;
}

std::uint64_t System::llc_occupancy_lines(std::uint32_t owner) const {
  if (llc_slices_.empty()) return llc_.occupancy_lines(owner);
  std::uint64_t total = 0;
  for (const auto& slice : llc_slices_) total += slice->occupancy_lines(owner);
  return total;
}

std::uint64_t System::llc_size_bytes() const noexcept {
  if (llc_slices_.empty()) return llc_.size_bytes();
  std::uint64_t total = 0;
  for (const auto& slice : llc_slices_) total += slice->size_bytes();
  return total;
}

void System::advance_time(util::SimNs delta) noexcept { now_ += delta; }

mem::Pid System::add_process(workloads::WorkloadPtr workload, double weight) {
  const mem::Pid pid = next_pid_++;
  processes_.push_back(std::make_unique<Process>(pid, std::move(workload),
                                                 weight));
  rebuild_schedule();
  if (phys_.arenas() > 1) {
    // Re-carve the per-core arenas to match the processes each core will
    // actually serve: an equal split starves workloads whose processes
    // cluster on few cores (a single process would get 1/cores of every
    // tier). The weights depend only on the process list, never on thread
    // count, so the carve — and thus every PFN — stays deterministic.
    // Once allocation has begun rebalance_arenas refuses and we keep the
    // carve processes have been faulting into.
    std::vector<std::uint64_t> per_core(config_.cores, 0);
    for (const auto& proc : processes_) {
      ++per_core[static_cast<std::uint32_t>(proc->pid()) % config_.cores];
    }
    phys_.rebalance_arenas(per_core);
  }
  return pid;
}

std::vector<Process*> System::processes() {
  std::vector<Process*> procs;
  procs.reserve(processes_.size());
  for (auto& p : processes_) procs.push_back(p.get());
  return procs;
}

Process& System::process(mem::Pid pid) {
  for (auto& p : processes_) {
    if (p->pid() == pid) return *p;
  }
  TMPROF_ASSERT(false);
  return *processes_.front();
}

void System::add_observer(monitors::AccessObserver* observer) {
  TMPROF_EXPECTS(observer != nullptr);
  observers_.push_back(observer);
}

void System::remove_observer(monitors::AccessObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void System::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  shard_ops_.clear();
  shard_latency_.clear();
  if (telemetry == nullptr) {
    ops_counter_ = {};
    migrations_ = {};
    shootdown_ipis_ = {};
    access_latency_ = {};
    pmu_.set_telemetry_counter({});
    return;
  }
  telemetry::MetricsRegistry& m = telemetry->metrics();
  ops_counter_ = m.counter("system_ops_total");
  migrations_ = m.counter("system_migrations_total");
  shootdown_ipis_ = m.counter("system_shootdown_ipis_total");
  access_latency_ = m.histogram("system_access_latency_ns", 0, kLatencyHistHi,
                                kLatencyHistBuckets);
  pmu_.set_telemetry_counter(m.counter("pmu_reads_total"));
  // One shard per simulated core (never per worker thread): the shard → core
  // decomposition is fixed by the config, so merged values are bitwise
  // thread-count-invariant.
  m.ensure_shards(config_.cores);
  shard_ops_.reserve(config_.cores);
  shard_latency_.reserve(config_.cores);
  for (std::uint32_t c = 0; c < config_.cores; ++c) {
    shard_ops_.push_back(m.shard_counter(c, "system_ops_total"));
    shard_latency_.push_back(m.shard_histogram(
        c, "system_access_latency_ns", 0, kLatencyHistHi, kLatencyHistBuckets));
  }
}

void System::rebuild_schedule() {
  // Each process appears round(weight * 8) times (>= 1) in the rotation.
  schedule_.clear();
  double min_weight = 1e9;
  for (const auto& p : processes_) min_weight = std::min(min_weight, p->weight());
  for (std::uint32_t i = 0; i < processes_.size(); ++i) {
    const double w = processes_[i]->weight() / min_weight;
    const auto slots = static_cast<std::uint32_t>(std::lround(w * 1.0));
    for (std::uint32_t s = 0; s < std::max(1U, slots); ++s) {
      schedule_.push_back(i);
    }
  }
  // Interleave: sort by (slot index within process, process index) so the
  // rotation spreads each process's slots out rather than clustering them.
  std::vector<std::uint32_t> interleaved;
  interleaved.reserve(schedule_.size());
  std::vector<std::uint32_t> remaining(processes_.size(), 0);
  for (std::uint32_t idx : schedule_) remaining[idx] += 1;
  bool any = true;
  while (any) {
    any = false;
    for (std::uint32_t i = 0; i < remaining.size(); ++i) {
      if (remaining[i] > 0) {
        interleaved.push_back(i);
        --remaining[i];
        any = true;
      }
    }
  }
  schedule_ = std::move(interleaved);
  schedule_cursor_ = 0;
  core_slots_.assign(config_.cores, {});
  for (std::uint32_t pos = 0; pos < schedule_.size(); ++pos) {
    const mem::Pid pid = processes_[schedule_[pos]]->pid();
    core_slots_[static_cast<std::uint32_t>(pid) % config_.cores].push_back(pos);
  }
}

util::SimNs System::step(std::uint64_t ops) {
  TMPROF_EXPECTS(!processes_.empty());
  const util::SimNs start = now_;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint32_t proc_idx = schedule_[schedule_cursor_];
    schedule_cursor_ = (schedule_cursor_ + 1) % schedule_.size();
    Process& proc = *processes_[proc_idx];
    const workloads::MemRef ref = proc.workload().next();
    access(proc, proc.vaddr_of(ref.offset), ref.is_store, ref.ip);
  }
  return now_ - start;
}

util::SimNs System::step_parallel(std::uint64_t ops, util::ThreadPool* pool) {
  TMPROF_EXPECTS(config_.sharded_engine);
  TMPROF_EXPECTS(!processes_.empty());
  // Hook-based managers (swap-style, AutoNUMA emulation) mutate cross-shard
  // state inside the access path; they need the serial engine.
  TMPROF_EXPECTS(!fault_hook_);
  const util::SimNs start = now_;
  const std::uint32_t n_cores = config_.cores;

  // Resolve every observer once per core: either it hands back a sink whose
  // callbacks are safe on that core's worker thread, or the engine buffers
  // the core's events and replays them at the barrier below.
  std::vector<std::vector<monitors::AccessObserver*>> direct(n_cores);
  std::vector<monitors::AccessObserver*> buffered;
  for (monitors::AccessObserver* obs : observers_) {
    bool needs_buffering = false;
    for (std::uint32_t c = 0; c < n_cores; ++c) {
      if (monitors::AccessObserver* sink = obs->shard_sink(c)) {
        direct[c].push_back(sink);
      } else {
        needs_buffering = true;
      }
    }
    if (needs_buffering) buffered.push_back(obs);
  }

  // One core's work for this step. The step covers schedule positions
  // [cursor, cursor + ops) (mod len); a core walks only its own slots among
  // them, in position order, so its reference stream — and every output —
  // is the same as a walk of every position that skips the other cores'
  // slots. It depends only on the schedule, never on thread timing or on
  // which worker runs which chunk. `remaining` is the one field another
  // worker reads without holding `busy`; it only steers the choice of work.
  // Each shard starts its own host cache line.
  struct alignas(util::kCacheLine) Shard {
    ExecContext ctx;
    std::size_t next = 0;  ///< index into the core's slots
    std::uint64_t executed = 0;
    std::vector<std::pair<monitors::MemOpEvent, bool>> log;
    std::atomic<std::uint64_t> remaining{0};
    std::atomic<bool> busy{false};
  };
  static_assert(alignof(Shard) == util::kCacheLine);
  std::vector<Shard> shards(n_cores);
  const std::size_t len = schedule_.size();
  const std::size_t cursor = schedule_cursor_;
  const std::uint64_t laps = ops / len;
  const std::size_t tail = static_cast<std::size_t>(ops % len);
  for (std::uint32_t s = 0; s < n_cores; ++s) {
    Shard& shard = shards[s];
    const std::vector<std::uint32_t>& slots = core_slots_[s];
    const auto first_at_or_after = [&slots](std::size_t pos) {
      return static_cast<std::size_t>(
          std::lower_bound(slots.begin(), slots.end(), pos) - slots.begin());
    };
    const std::size_t first = first_at_or_after(cursor);
    const std::size_t tail_slots =
        cursor + tail <= len
            ? first_at_or_after(cursor + tail) - first
            : slots.size() - first + first_at_or_after(cursor + tail - len);
    shard.remaining.store(laps * slots.size() + tail_slots,
                          std::memory_order_relaxed);
    shard.next = first == slots.size() ? 0 : first;

    ExecContext& ctx = shard.ctx;
    ctx.core_idx = s;
    ctx.core = &cores_[s];
    ctx.pmu = &pmu_.core(s);
    ctx.now = start;
    ctx.arena = s;
    ctx.total_ops = &shard.executed;
    ctx.direct = &direct[s];
    ctx.log = buffered.empty() ? nullptr : &shard.log;
    if (!shard_ops_.empty()) {
      ctx.ops = shard_ops_[s];
      ctx.latency = shard_latency_[s];
    }
  }

  // Run the next `n` ops of core `s`.
  const auto run_ops = [&](std::uint32_t s, std::uint64_t n) {
    Shard& shard = shards[s];
    const std::vector<std::uint32_t>& slots = core_slots_[s];
    std::size_t next = shard.next;
    for (std::uint64_t i = 0; i < n; ++i) {
      Process& proc = *processes_[schedule_[slots[next]]];
      next = next + 1 == slots.size() ? 0 : next + 1;
      const workloads::MemRef ref = proc.workload().next();
      access_impl(proc, proc.vaddr_of(ref.offset), ref.is_store, ref.ip,
                  shard.ctx);
    }
    shard.next = next;
  };

  if (pool != nullptr) {
    // Workers hand cores to each other in chunks: a worker claims a free
    // core, runs one chunk of its ops, and releases it. It prefers its own
    // cores (core % workers), and among those the one with the most ops
    // left, so its cores advance together; when none of its own is free it
    // helps with another worker's. A core's chunks still run one at a time
    // and in order, so outputs are unchanged, but the step no longer waits
    // on whichever worker got the larger share of cores or the slower host
    // CPU. The releasing worker always rescans, so no core is left behind.
    const std::uint32_t n_workers = pool->size();
    const auto work = [&](std::uint32_t w) {
      for (;;) {
        std::uint32_t pick = n_cores;
        bool pick_own = false;
        std::uint64_t pick_left = 0;
        for (std::uint32_t s = 0; s < n_cores; ++s) {
          const Shard& shard = shards[s];
          const std::uint64_t left =
              shard.remaining.load(std::memory_order_relaxed);
          if (left == 0 || shard.busy.load(std::memory_order_relaxed)) {
            continue;
          }
          const bool own = s % n_workers == w;
          if (pick == n_cores || (own && !pick_own) ||
              (own == pick_own && left > pick_left)) {
            pick = s;
            pick_own = own;
            pick_left = left;
          }
        }
        if (pick == n_cores) return;
        Shard& shard = shards[pick];
        if (shard.busy.exchange(true, std::memory_order_acquire)) continue;
        const std::uint64_t left =
            shard.remaining.load(std::memory_order_relaxed);
        const std::uint64_t n = std::min(left, kStepChunkOps);
        run_ops(pick, n);
        shard.remaining.store(left - n, std::memory_order_relaxed);
        shard.busy.store(false, std::memory_order_release);
      }
    };
    for (std::uint32_t w = 0; w < n_workers; ++w) {
      pool->submit(w, [&work, w] { work(w); });
    }
    pool->wait_idle();
  } else {
    for (std::uint32_t s = 0; s < n_cores; ++s) {
      run_ops(s, shards[s].remaining.load(std::memory_order_relaxed));
    }
  }

  // ---- epoch barrier: merge shard state in ascending core order ----------
  for (const Shard& shard : shards) {
    for (const auto& [event, dirty] : shard.log) {
      for (monitors::AccessObserver* obs : buffered) {
        obs->on_retire(event.core, config_.uops_per_op, event.time);
        obs->on_mem_op(event);
        if (dirty) obs->on_dirty_set(event);
      }
    }
  }
  for (monitors::AccessObserver* obs : observers_) obs->merge_shards();
  if (telemetry_ != nullptr) {
    telemetry_->metrics().merge_shards();
    for (std::uint32_t s = 0; s < n_cores; ++s) {
      telemetry_->span("shard.step", start, shards[s].ctx.now,
                       telemetry::kTidShardBase + s);
    }
  }

  util::SimNs max_elapsed = 0;
  for (const Shard& shard : shards) {
    max_elapsed = std::max(max_elapsed, shard.ctx.now - start);
    total_ops_ += shard.executed;
  }
  schedule_cursor_ = (schedule_cursor_ + ops) % len;
  // Cores ran concurrently: wall-clock advances by the slowest shard. Each
  // core's event stream stays monotone because its next epoch starts at or
  // after its own elapsed time.
  now_ = start + max_elapsed;
  return max_elapsed;
}

util::SimNs System::instruction_fetch(Process& proc, std::uint32_t ip,
                                      ExecContext& ctx) {
  // Map the workload's synthetic code location (its phase id) to a spot in
  // the process's code region; distinct phases land on distinct pages.
  std::uint64_t mix = ip;
  const mem::VirtAddr code_va =
      kCodeBase + (util::splitmix64(mix) % config_.code_bytes_per_process);
  if (ctx.core->tlb.lookup(proc.pid(), code_va).level != mem::TlbHit::Miss) {
    return 0;  // fetch translation cached: free
  }
  ctx.pmu->record(Event::ItlbWalk, ctx.now);
  util::SimNs latency = 0;
  mem::WalkResult walk =
      mem::PageTableWalker::walk(proc.page_table(), code_va, false);
  if (walk.status == mem::WalkResult::Status::NotPresent) {
    // Demand-map the code page (text is always 4 KiB-mapped).
    const mem::VirtAddr page_va = mem::page_base(code_va, mem::PageSize::k4K);
    const auto pfn = phys_.alloc(first_touch_tier_, proc.pid(), page_va,
                                 mem::PageSize::k4K, ctx.arena);
    TMPROF_ASSERT(pfn.has_value());
    proc.page_table().map(page_va, *pfn, mem::PageSize::k4K);
    proc.note_mapped_page(mem::PageSize::k4K);
    ctx.pmu->record(Event::PageFault, ctx.now);
    latency += config_.page_fault_ns;
    walk = mem::PageTableWalker::walk(proc.page_table(), code_va, false);
  } else if (walk.status == mem::WalkResult::Status::Poisoned) {
    // Code pages can be poisoned too (AutoNUMA-style protection covers
    // every VMA); the fetch takes the same protection fault as a load.
    ctx.pmu->record(Event::ProtectionFault, ctx.now);
    if (fault_hook_) {
      latency += fault_hook_(proc, code_va, false);
    } else {
      TMPROF_ASSERT(badgertrap_ != nullptr);
      latency += badgertrap_->handle_fault(proc.pid(), proc.page_table(),
                                           ctx.core->tlb, code_va, false);
    }
    walk = mem::PageTableWalker::walk(proc.page_table(), code_va, false,
                                      /*honor_poison=*/false);
  }
  TMPROF_ASSERT(walk.status == mem::WalkResult::Status::Ok);
  if (walk.set_accessed) ctx.pmu->record(Event::PtwAbitSet, ctx.now);
  ctx.core->tlb.fill(proc.pid(), walk.page_va, walk.size, walk.pte,
                     walk.pte->dirty());
  latency += walk.levels * config_.walk_level_ns;
  return latency;
}

Process& System::handle_page_fault(Process& proc, mem::VirtAddr vaddr,
                                   std::uint32_t arena) {
  const mem::PageSize size = proc.workload().page_size();
  const mem::VirtAddr page_va = mem::page_base(vaddr, size);
  const auto pfn =
      phys_.alloc(first_touch_tier_, proc.pid(), page_va, size, arena);
  TMPROF_ASSERT(pfn.has_value());  // experiments size tiers to fit
  proc.page_table().map(page_va, *pfn, size);
  proc.note_mapped_page(size);
  return proc;
}

AccessResult System::access(Process& proc, mem::VirtAddr vaddr, bool is_store,
                            std::uint32_t ip) {
  const std::uint32_t core_idx =
      static_cast<std::uint32_t>(proc.pid()) % config_.cores;
  ExecContext ctx;
  ctx.core_idx = core_idx;
  ctx.core = &cores_[core_idx];
  ctx.pmu = &pmu_.core(core_idx);
  ctx.now = now_;
  // With per-core arenas (sharded config), single accesses allocate from
  // the same arena a parallel step would — the two paths stay bit-equal.
  ctx.arena = phys_.arenas() > 1 ? core_idx : 0;
  ctx.total_ops = &total_ops_;
  ctx.direct = &observers_;
  ctx.ops = ops_counter_;
  ctx.latency = access_latency_;
  const AccessResult result = access_impl(proc, vaddr, is_store, ip, ctx);
  now_ = ctx.now;
  return result;
}

AccessResult System::access_impl(Process& proc, mem::VirtAddr vaddr,
                                 bool is_store, std::uint32_t ip,
                                 ExecContext& ctx) {
  Core& core = *ctx.core;
  pmu::PmuCore& pmu_core = *ctx.pmu;
  AccessResult result;
  util::SimNs latency = config_.base_op_ns;

  proc.charge_ops(1);
  ++*ctx.total_ops;
  pmu_core.record(Event::RetiredUops, ctx.now, config_.uops_per_op);
  pmu_core.record(is_store ? Event::RetiredStores : Event::RetiredLoads,
                  ctx.now);

  if (config_.instruction_fetch) {
    latency += instruction_fetch(proc, ip, ctx);
  }

  // ---- address translation -------------------------------------------------
  mem::Pte* pte = nullptr;
  mem::PageSize page_size = mem::PageSize::k4K;
  mem::VirtAddr page_va = 0;
  bool dirty_transition = false;

  mem::Tlb::LookupResult hit = core.tlb.lookup(proc.pid(), vaddr);
  if (hit.level != mem::TlbHit::Miss) {
    result.tlb = hit.level;
    if (hit.level == mem::TlbHit::L2) {
      pmu_core.record(Event::DtlbL1Miss, ctx.now);
    }
    pte = hit.entry->pte;
    page_size = hit.size;
    page_va = mem::page_base(vaddr, page_size);
    // D bits are correctness-critical: a store through a clean TLB entry
    // still updates the PTE (PTW assist), TLB hit or not (Section II-B).
    if (is_store && !hit.entry->dirty_cached) {
      hit.entry->dirty_cached = true;
      if (!pte->dirty()) {
        pte->set_dirty(true);
        dirty_transition = true;
        pmu_core.record(Event::PtwDbitSet, ctx.now);
      }
    }
  } else {
    result.tlb = mem::TlbHit::Miss;
    pmu_core.record(Event::DtlbL1Miss, ctx.now);
    pmu_core.record(Event::DtlbWalk, ctx.now);
    mem::WalkResult walk =
        mem::PageTableWalker::walk(proc.page_table(), vaddr, is_store);
    if (walk.status == mem::WalkResult::Status::NotPresent) {
      // First touch: allocate and map, then redo the walk.
      result.page_fault = true;
      pmu_core.record(Event::PageFault, ctx.now);
      latency += config_.page_fault_ns;
      handle_page_fault(proc, vaddr, ctx.arena);
      walk = mem::PageTableWalker::walk(proc.page_table(), vaddr, is_store);
      TMPROF_ASSERT(walk.status == mem::WalkResult::Status::Ok);
    } else if (walk.status == mem::WalkResult::Status::Poisoned) {
      result.protection_fault = true;
      pmu_core.record(Event::ProtectionFault, ctx.now);
      if (fault_hook_) {
        latency += fault_hook_(proc, vaddr, is_store);
      } else {
        TMPROF_ASSERT(badgertrap_ != nullptr);
        latency += badgertrap_->handle_fault(proc.pid(), proc.page_table(),
                                             core.tlb, vaddr, is_store);
      }
      // The handler installed or restored the translation; re-walk the
      // unpoisoned view.
      walk = mem::PageTableWalker::walk(proc.page_table(), vaddr, is_store,
                                        /*honor_poison=*/false);
      TMPROF_ASSERT(walk.status == mem::WalkResult::Status::Ok);
    }
    latency += walk.levels * config_.walk_level_ns;
    if (walk.set_accessed) pmu_core.record(Event::PtwAbitSet, ctx.now);
    if (walk.set_dirty) {
      dirty_transition = true;
      pmu_core.record(Event::PtwDbitSet, ctx.now);
    }
    pte = walk.pte;
    page_size = walk.size;
    page_va = walk.page_va;
    if (!result.protection_fault) {
      core.tlb.fill(proc.pid(), page_va, page_size, pte, pte->dirty());
    }
  }

  // ---- physical access through the cache hierarchy ----------------------
  const mem::PhysAddr paddr =
      (pte->pfn() << mem::kPageShift) + (vaddr - page_va);
  result.paddr = paddr;
  mem::CacheAccess cache = core.caches.access(paddr, is_store, proc.pid());
  result.source = cache.source;
  switch (cache.source) {
    case mem::DataSource::L1:
      latency += config_.l1_hit_ns;
      break;
    case mem::DataSource::L2:
      latency += config_.l2_hit_ns;
      pmu_core.record(Event::L1DMiss, ctx.now);
      break;
    case mem::DataSource::LLC:
      latency += config_.llc_hit_ns;
      pmu_core.record(Event::L1DMiss, ctx.now);
      pmu_core.record(Event::L2Miss, ctx.now);
      pmu_core.record(Event::LlcAccess, ctx.now);
      break;
    default: {
      pmu_core.record(Event::L1DMiss, ctx.now);
      pmu_core.record(Event::L2Miss, ctx.now);
      pmu_core.record(Event::LlcAccess, ctx.now);
      pmu_core.record(Event::LlcMiss, ctx.now);
      const mem::TierId tier = phys_.tier_of(mem::pfn_of(paddr));
      const mem::TierSpec& spec = phys_.tier(tier);
      latency += is_store ? spec.write_latency_ns : spec.read_latency_ns;
      latency += spec.line_transfer_ns;
      proc.note_mem_fill(tier);
      if (tier == 0) {
        result.source = mem::DataSource::MemTier1;
        pmu_core.record(Event::MemReadTier1, ctx.now);
      } else {
        result.source = mem::DataSource::MemTier2;
        pmu_core.record(Event::MemReadTier2, ctx.now);
      }
      if (cache.prefetch_issued) pmu_core.record(Event::PrefetchFill, ctx.now);
      break;
    }
  }

  ctx.now += latency;
  result.latency_ns = latency;
  ctx.ops.inc();
  ctx.latency.observe(latency);

  // ---- publish hardware events to monitors ------------------------------
  monitors::MemOpEvent event;
  event.time = ctx.now;
  event.core = ctx.core_idx;
  event.pid = proc.pid();
  event.ip = ip;
  event.vaddr = vaddr;
  event.paddr = paddr;
  event.is_store = is_store;
  event.source = result.source;
  event.tlb = result.tlb;
  event.page_size = page_size;
  for (monitors::AccessObserver* obs : *ctx.direct) {
    obs->on_retire(ctx.core_idx, config_.uops_per_op, ctx.now);
    obs->on_mem_op(event);
    if (dirty_transition) obs->on_dirty_set(event);
  }
  if (ctx.log != nullptr) ctx.log->emplace_back(event, dirty_transition);
  return result;
}

std::uint64_t System::shootdown(mem::Pid pid, mem::VirtAddr page_va,
                                mem::PageSize size) {
  for (Core& core : cores_) {
    core.tlb.invalidate_page(pid, page_va, size);
  }
  const std::uint64_t ipis = config_.cores - 1;
  pmu_.core(0).record(Event::TlbShootdownIpi, now_, ipis);
  shootdown_ipis_.add(ipis);
  return ipis;
}

bool System::migrate_page(mem::Pid pid, mem::VirtAddr page_va,
                          mem::TierId target) {
  Process& proc = process(pid);
  mem::PteRef ref = proc.page_table().resolve(page_va);
  TMPROF_EXPECTS(ref && ref.page_va == page_va);
  const mem::Pfn old_pfn = ref.pte->pfn();
  if (phys_.tier_of(old_pfn) == target) return true;  // already there
  // The owner's arena is only a preference here: migrations run at the
  // single-threaded epoch barrier, so when it is full the other arenas are
  // tried in ascending index order (deterministic at any thread count).
  // Otherwise frames freed by demotions in other arenas stay out of reach
  // while the tier as a whole has room.
  const std::uint32_t arenas = phys_.arenas();
  const std::uint32_t home = static_cast<std::uint32_t>(pid % arenas);
  auto new_pfn = phys_.alloc_exact(target, pid, page_va, ref.size, home);
  for (std::uint32_t a = 0; !new_pfn && a < arenas; ++a) {
    if (a != home) {
      new_pfn = phys_.alloc_exact(target, pid, page_va, ref.size, a);
    }
  }
  if (!new_pfn) return false;
  ref.pte->set_pfn(*new_pfn);
  phys_.free(old_pfn);
  shootdown(pid, page_va, ref.size);
  pmu_.core(0).record(Event::PageMigration, now_);
  migrations_.inc();
  return true;
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void System::save_state(util::ckpt::Writer& w) {
  w.put_u64(now_);
  w.put_u64(total_ops_);
  w.put_u64(schedule_cursor_);
  w.put_u8(first_touch_tier_);
  w.put_u64(next_pid_);
  w.put_u32(static_cast<std::uint32_t>(processes_.size()));
  for (const auto& proc : processes_) {
    w.put_u64(proc->pid());
    proc->save_state(w);
  }
  phys_.save_state(w);
  pmu_.save_state(w);
  llc_.save_state(w);
  w.put_u32(static_cast<std::uint32_t>(llc_slices_.size()));
  for (const auto& slice : llc_slices_) slice->save_state(w);
  w.put_u32(static_cast<std::uint32_t>(cores_.size()));
  for (const Core& core : cores_) {
    core.caches.save_state(w);
    core.tlb.save_state(w);
  }
}

void System::load_state(util::ckpt::Reader& r) {
  now_ = r.get_u64();
  total_ops_ = r.get_u64();
  schedule_cursor_ = r.get_u64();
  first_touch_tier_ = static_cast<mem::TierId>(r.get_u8());
  const auto next_pid = static_cast<mem::Pid>(r.get_u64());
  const std::uint32_t n_procs = r.get_u32();
  if (n_procs != processes_.size() || next_pid != next_pid_) {
    throw util::ckpt::CkptError(
        "system", "process set mismatch: checkpoint has " +
                      std::to_string(n_procs) + " processes (next pid " +
                      std::to_string(next_pid) + "), system has " +
                      std::to_string(processes_.size()));
  }
  for (const auto& proc : processes_) {
    const auto pid = static_cast<mem::Pid>(r.get_u64());
    if (pid != proc->pid()) {
      throw util::ckpt::CkptError(
          "system", "process order mismatch: expected pid " +
                        std::to_string(proc->pid()) + ", checkpoint has " +
                        std::to_string(pid));
    }
    proc->load_state(r);
  }
  phys_.load_state(r);
  pmu_.load_state(r);
  llc_.load_state(r);
  const std::uint32_t n_slices = r.get_u32();
  if (n_slices != llc_slices_.size()) {
    throw util::ckpt::CkptError("system", "LLC slice count mismatch");
  }
  for (const auto& slice : llc_slices_) slice->load_state(r);
  // Page tables are rebuilt above, so TLB entries can rebind their cached
  // PTE pointers now.
  const mem::TlbArray::PteResolver resolver =
      [this](mem::Pid pid, mem::Vpn vpn, mem::PageSize size) -> mem::Pte* {
    const unsigned shift =
        size == mem::PageSize::k4K ? mem::kPageShift : mem::kHugePageShift;
    const mem::VirtAddr va = vpn << shift;
    for (const auto& proc : processes_) {
      if (proc->pid() != pid) continue;
      const mem::PteRef ref = proc->page_table().resolve(va);
      if (!ref || ref.size != size || ref.page_va != va) return nullptr;
      return ref.pte;
    }
    return nullptr;
  };
  const std::uint32_t n_cores = r.get_u32();
  if (n_cores != cores_.size()) {
    throw util::ckpt::CkptError("system", "core count mismatch");
  }
  for (Core& core : cores_) {
    core.caches.load_state(r);
    core.tlb.load_state(r, resolver);
  }
}

}  // namespace tmprof::sim
