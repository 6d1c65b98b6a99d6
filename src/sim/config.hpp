#pragma once
/// \file config.hpp
/// System configuration. Defaults model the paper's testbed: an AMD Ryzen
/// 3600X (6 cores @ 3.8 GHz, 32 MiB LLC) with a two-tier main memory whose
/// slow tier has NVM-class latency.

#include <cstdint>
#include <vector>

#include "mem/tiers.hpp"
#include "mem/tlb.hpp"
#include "util/time.hpp"

namespace tmprof::sim {

struct SimConfig {
  std::uint32_t cores = 6;

  // Cache geometry (per core L1/L2, shared LLC).
  std::uint64_t l1_bytes = 32ULL << 10;
  std::uint32_t l1_ways = 8;
  std::uint64_t l2_bytes = 512ULL << 10;
  std::uint32_t l2_ways = 8;
  std::uint64_t llc_bytes = 32ULL << 20;
  std::uint32_t llc_ways = 16;
  bool prefetch = true;

  // TLB geometry (see Tlb::make_default for the Zen-2-like shape).
  mem::TlbLevelConfig l1_tlb{16, 4, 8, 4};
  mem::TlbLevelConfig l2_tlb{256, 8, 32, 4};

  // Tiered memory. By default a two-tier DRAM + NVM machine whose frame
  // counts are set per experiment (the paper's 4 GiB + 60 GiB emulation
  // config scales to 64 MiB + 960 MiB at the simulator's 1/64 footprint
  // scale) and whose latencies are calibrated to DRAM vs. Optane-class
  // media (sim::tier_specs).
  std::uint64_t tier1_frames = (64ULL << 20) >> 12;    // 64 MiB fast
  std::uint64_t tier2_frames = (960ULL << 20) >> 12;   // 960 MiB slow

  /// Explicit tier chain, fastest first (DRAM + CXL + NVM + ...). When
  /// non-empty this replaces the default two-tier chain (and ignores
  /// tier1_frames/tier2_frames); it may describe up to mem::kMaxTiers
  /// tiers with per-tier latency/bandwidth. See docs/TOPOLOGY.md.
  std::vector<mem::TierSpec> tiers;

  // Access-latency model for cache hits.
  util::SimNs l1_hit_ns = 1;
  util::SimNs l2_hit_ns = 3;
  util::SimNs llc_hit_ns = 10;
  /// Per-level cost of a hardware page walk (each level is a memory/cache
  /// access by the walker).
  util::SimNs walk_level_ns = 15;
  /// Kernel cost of a first-touch (not-present) page fault.
  util::SimNs page_fault_ns = 1500;
  /// Fixed pipeline cost per retired op.
  util::SimNs base_op_ns = 1;

  /// Micro-ops retired per simulated memory op (the surrounding non-memory
  /// instructions); affects IBS tag-to-sample conversion.
  std::uint64_t uops_per_op = 4;

  /// Model the instruction-fetch translation path: each op fetches from a
  /// per-process code region through the (shared) TLB, so code pages set
  /// A bits and ITLB walks are counted — the "instruction TLB events" side
  /// of the paper's Fig. 2. Off by default (profiling-of-data studies).
  bool instruction_fetch = false;
  std::uint64_t code_bytes_per_process = 64ULL << 10;

  std::uint32_t pmu_registers = 6;

  /// Build the deterministic *sharded* access engine: per-core LLC slices,
  /// per-core physical-memory arenas, and System::step_parallel() support.
  /// Results are bitwise-reproducible for a given seed regardless of how
  /// many OS threads execute the shards, but differ from the legacy shared-
  /// LLC serial engine (false), which existing experiments keep by default.
  bool sharded_engine = false;
};

}  // namespace tmprof::sim
