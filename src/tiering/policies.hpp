#pragma once
/// \file policies.hpp
/// Concrete placement policies: the paper's Oracle and History (Table II),
/// the first-come-first-allocate baseline, and a frequency-decay extension
/// (EWMA of observed hotness) for the ablation benches.

#include <memory>
#include <string>

#include "tiering/policy.hpp"

namespace tmprof::tiering {

/// NUMA-like first-come-first-allocate: pages enter tier 1 in first-touch
/// order until it is full; nothing ever migrates. The paper's baseline.
class FirstTouchPolicy final : public Policy {
 public:
  PlacementSet choose(const PolicyContext& ctx) override;
  [[nodiscard]] std::string_view name() const override {
    return "first-touch";
  }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  PlacementSet placement_;  ///< sticky across epochs
  std::uint64_t used_frames_ = 0;
};

/// History: at each epoch horizon, bring the *previous* epoch's hottest
/// pages (per the profiler's fused ranking) into tier 1.
///
/// With `density_rank` set, pages are ordered by hotness per 4 KiB frame
/// instead of raw counts. The paper's raw-sum rank is fine on uniform
/// 4 KiB testbeds, but with mixed THP tenants a 2 MiB entry aggregates 512
/// frames of samples and crowds hot small pages out of the capacity
/// knapsack (see bench/consolidation for the measured effect).
class HistoryPolicy final : public Policy {
 public:
  explicit HistoryPolicy(bool density_rank = false)
      : density_rank_(density_rank) {}

  PlacementSet choose(const PolicyContext& ctx) override;
  [[nodiscard]] std::string_view name() const override {
    return density_rank_ ? "history-density" : "history";
  }

 private:
  bool density_rank_;
};

/// Oracle: assumes knowledge of the coming epoch's true per-page access
/// counts and places the hottest pages. Upper bound for policy design.
class OraclePolicy final : public Policy {
 public:
  PlacementSet choose(const PolicyContext& ctx) override;
  [[nodiscard]] std::string_view name() const override { return "oracle"; }
};

/// Extension: exponentially-weighted moving average of observed hotness,
/// smoothing History's reactivity on phase-changing workloads.
class FrequencyDecayPolicy final : public Policy {
 public:
  explicit FrequencyDecayPolicy(double decay = 0.5);

  PlacementSet choose(const PolicyContext& ctx) override;
  [[nodiscard]] std::string_view name() const override { return "freq-decay"; }

  void save_state(util::ckpt::Writer& w) const override;
  void load_state(util::ckpt::Reader& r) override;

 private:
  double decay_;
  core::PageMap<double> score_;
};

/// Extension (CLOCK-DWF-flavored, cf. the paper's ref [32]): write-aware
/// History. Slow NVM tiers pay a much larger penalty for writes than
/// reads, so pages with dirty-page-log (PML) evidence get their rank
/// boosted before the capacity cut. Requires the driver's PML collection
/// (DriverConfig::use_pml); degrades gracefully to plain History without
/// it.
class WriteHistoryPolicy final : public Policy {
 public:
  explicit WriteHistoryPolicy(double write_weight = 4.0);

  PlacementSet choose(const PolicyContext& ctx) override;
  [[nodiscard]] std::string_view name() const override {
    return "write-history";
  }

 private:
  double write_weight_;
};

/// Factory by name: "first-touch", "history", "oracle", "freq-decay",
/// "write-history".
[[nodiscard]] std::unique_ptr<Policy> make_policy(const std::string& name);

}  // namespace tmprof::tiering
