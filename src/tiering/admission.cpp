#include "tiering/admission.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/hotness.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/tenant.hpp"
#include "util/ckpt.hpp"

namespace tmprof::tiering {

AdmissionMode parse_admission_mode(const std::string& text) {
  if (text == "off") return AdmissionMode::Off;
  if (text == "static") return AdmissionMode::Static;
  if (text == "adaptive") return AdmissionMode::Adaptive;
  throw std::invalid_argument(
      "--admission: unknown mode '" + text +
      "' (valid modes: \"off\", \"static\", \"adaptive\")");
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config) {
  config_.history_epochs =
      std::clamp<std::uint32_t>(config_.history_epochs, 1, kMaxHistory);
  config_.min_history =
      std::clamp<std::uint32_t>(config_.min_history, 1, config_.history_epochs);
  config_.cooldown_epochs = std::max<std::uint32_t>(config_.cooldown_epochs, 1);
  config_.max_cooldown_epochs =
      std::max(config_.max_cooldown_epochs, config_.cooldown_epochs);
  tokens_ = config_.burst_bytes;
  threshold_ = config_.min_benefit;
  if (enabled()) {
    c_rejected_ = registry_.counter("mover_rejected_total");
    c_cooled_ = registry_.counter("mover_cooled_total");
    c_shed_ = registry_.counter("mover_shed_total");
    c_admitted_ = registry_.counter("mover_admitted_total");
    c_bandwidth_rejected_ =
        registry_.counter("admission_bandwidth_rejected_total");
    g_cooldown_pages_ = registry_.gauge("mover_cooldown_pages");
    g_tokens_ = registry_.gauge("admission_tokens");
    g_threshold_ = registry_.gauge("admission_threshold");
  }
}

void AdmissionController::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr || !enabled()) {
    x_rejected_ = {};
    x_cooled_ = {};
    x_shed_ = {};
    x_admitted_ = {};
    x_cooldown_pages_ = {};
    x_tokens_ = {};
    x_threshold_ = {};
    return;
  }
  telemetry::MetricsRegistry& m = telemetry->metrics();
  x_rejected_ = m.counter("mover_rejected_total");
  x_cooled_ = m.counter("mover_cooled_total");
  x_shed_ = m.counter("mover_shed_total");
  x_admitted_ = m.counter("mover_admitted_total");
  x_cooldown_pages_ = m.gauge("mover_cooldown_pages");
  x_tokens_ = m.gauge("admission_tokens");
  x_threshold_ = m.gauge("admission_threshold");
}

void AdmissionController::refill(util::SimNs now) {
  if (config_.bandwidth_bytes_per_sec == 0) return;
  if (now <= last_refill_ns_) {
    last_refill_ns_ = now;
    return;
  }
  const std::uint64_t delta = now - last_refill_ns_;
  last_refill_ns_ = now;
  // Exact integer refill: tokens owed = delta_ns * B/s / 1e9, with the
  // sub-token remainder carried so no fraction is ever lost or invented —
  // the same bucket state at the same simulated time on every replay.
  const unsigned __int128 owed =
      static_cast<unsigned __int128>(delta) * config_.bandwidth_bytes_per_sec +
      refill_carry_;
  const auto add = static_cast<std::uint64_t>(owed / util::kSecond);
  refill_carry_ = static_cast<std::uint64_t>(owed % util::kSecond);
  if (add >= config_.burst_bytes - tokens_) {
    tokens_ = config_.burst_bytes;
    refill_carry_ = 0;  // a full bucket absorbs nothing further
  } else {
    tokens_ += add;
  }
}

void AdmissionController::record(const PageKey& key, std::uint64_t rank) {
  PageHistory& h = history_[key];
  if (h.len > 0 && h.last_epoch == epoch_) {
    h.ranks[0] = std::max(h.ranks[0], rank);
    return;
  }
  if (h.len > 0) {
    const std::uint32_t shift = std::min(epoch_ - h.last_epoch, kMaxHistory);
    for (std::uint32_t i = kMaxHistory; i-- > shift;) {
      h.ranks[i] = h.ranks[i - shift];
    }
    for (std::uint32_t i = 1; i < shift; ++i) h.ranks[i] = 0;
    h.len = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(h.len + shift, kMaxHistory));
  } else {
    h.len = 1;
  }
  h.ranks[0] = rank;
  h.last_epoch = epoch_;
}

std::uint64_t AdmissionController::benefit_of(const PageHistory& h) const {
  if (h.len == 0) return 0;
  const std::uint32_t age = epoch_ - h.last_epoch;
  if (age >= config_.history_epochs) return 0;
  std::uint64_t sum = 0;
  for (std::uint32_t i = 0; i < h.len && i + age < config_.history_epochs;
       ++i) {
    sum += h.ranks[i] >> (i + age);
  }
  return sum;
}

std::uint32_t AdmissionController::evidence_of(const PageHistory& h) const {
  if (h.len == 0) return 0;
  const std::uint32_t age = epoch_ - h.last_epoch;
  if (age >= config_.history_epochs) return 0;
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < h.len && i + age < config_.history_epochs;
       ++i) {
    if (h.ranks[i] != 0) ++n;
  }
  return n;
}

std::uint64_t AdmissionController::benefit(const PageKey& key) const {
  const auto it = history_.find(key);
  return it == history_.end() ? 0 : benefit_of(it->second);
}

std::uint32_t AdmissionController::evidence(const PageKey& key) const {
  const auto it = history_.find(key);
  return it == history_.end() ? 0 : evidence_of(it->second);
}

void AdmissionController::compact() {
  if (history_.size() <= config_.max_history_pages) return;
  // Keep entries that still carry signal: a sighting inside the benefit
  // window, a live cool-down, or a demotion recent enough to ping-pong.
  // Pure value predicate, so the surviving set is independent of slot
  // order; the scratch map retains its capacity across compactions.
  compact_scratch_.clear();
  for (const auto& [key, h] : history_) {
    const bool recent =
        h.len > 0 && epoch_ - h.last_epoch < config_.history_epochs;
    const bool cooling = h.cooldown_until != 0 && h.cooldown_until >= epoch_;
    const bool pingpong_armed =
        h.demote_epoch != 0 &&
        epoch_ - h.demote_epoch <= config_.cooldown_epochs;
    if (recent || cooling || pingpong_armed) {
      compact_scratch_.try_emplace(key, h);
    }
  }
  history_.swap(compact_scratch_);
  compact_scratch_.clear();
}

void AdmissionController::retune() {
  if (config_.mode != AdmissionMode::Adaptive) return;
  // Read pressure from the controller's own registry — the same numbers an
  // operator scrapes. Benefit rejections are deliberately excluded: they
  // are the threshold *working*, not a reason to raise it further.
  const std::uint64_t pressure_total =
      registry_.counter_value("mover_cooled_total") +
      registry_.counter_value("mover_shed_total") +
      registry_.counter_value("admission_bandwidth_rejected_total");
  const std::uint64_t pressure = pressure_total - last_pressure_total_;
  last_pressure_total_ = pressure_total;
  const std::uint64_t floor = config_.min_benefit;
  const std::uint64_t cap = std::max<std::uint64_t>(floor, 1) << 10;
  if (pressure > 0) {
    threshold_ = std::min(std::max<std::uint64_t>(threshold_, 1) * 2, cap);
  } else if (threshold_ > floor) {
    threshold_ = floor + (threshold_ - floor) / 2;
  }
}

void AdmissionController::begin_epoch(
    util::SimNs now, const std::vector<core::PageRank>& ranking) {
  if (!enabled()) return;
  ++epoch_;
  refill(now);
  for (const core::PageRank& pr : ranking) record(pr.key, pr.rank);
  compact();
  std::uint64_t cooling = 0;
  for (const auto& [key, h] : history_) {
    if (h.cooldown_until != 0 && h.cooldown_until >= epoch_) ++cooling;
  }
  cooldown_pages_ = cooling;
  retune();
  admitted_this_epoch_ = 0;
  throttled_this_epoch_ = false;
  g_cooldown_pages_.set(cooldown_pages_);
  g_tokens_.set(tokens_);
  g_threshold_.set(threshold_);
  x_cooldown_pages_.set(cooldown_pages_);
  x_tokens_.set(tokens_);
  x_threshold_.set(threshold_);
}

void AdmissionController::mark_throttled() {
  if (!throttled_this_epoch_) {
    throttled_this_epoch_ = true;
    ++throttled_epochs_;
  }
}

AdmissionDecision AdmissionController::decide(const PageKey& key,
                                              std::uint64_t bytes) {
  if (!enabled()) return AdmissionDecision::Admit;
  PageHistory* h = nullptr;
  if (auto it = history_.find(key); it != history_.end()) h = &it->second;
  if (h != nullptr) {
    if (h->cooldown_until != 0 && h->cooldown_until >= epoch_) {
      c_cooled_.inc();
      x_cooled_.inc();
      return AdmissionDecision::Cooled;
    }
    if (h->demote_epoch != 0 &&
        epoch_ - h->demote_epoch <= config_.cooldown_epochs) {
      // Demoted-then-repromoted inside the window: a ping-pong. Each
      // consecutive strike doubles the cool-down (capped), so a page that
      // keeps oscillating is silenced for longer and longer.
      h->strikes = static_cast<std::uint8_t>(
          std::min<std::uint32_t>(h->strikes + 1, 16));
      const std::uint64_t span = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(config_.cooldown_epochs)
              << (h->strikes - 1),
          config_.max_cooldown_epochs);
      h->cooldown_until = epoch_ + static_cast<std::uint32_t>(span);
      c_cooled_.inc();
      x_cooled_.inc();
      return AdmissionDecision::Cooled;
    }
  }
  const std::uint64_t score = h == nullptr ? 0 : benefit_of(*h);
  const std::uint32_t seen = h == nullptr ? 0 : evidence_of(*h);
  if (seen < config_.min_history || score < threshold_) {
    c_rejected_.inc();
    x_rejected_.inc();
    return AdmissionDecision::RejectBenefit;
  }
  if (config_.max_moves_per_epoch != 0 &&
      admitted_this_epoch_ >= config_.max_moves_per_epoch) {
    mark_throttled();
    c_shed_.inc();
    x_shed_.inc();
    return AdmissionDecision::Shed;
  }
  if (config_.bandwidth_bytes_per_sec != 0) {
    // Global bucket first, then the tenant's sub-budget: the carve only
    // deducts when the global bucket could actually fund the move.
    if (bytes > tokens_ ||
        (arbiter_ != nullptr &&
         !arbiter_->try_charge_bandwidth(key.pid, bytes))) {
      mark_throttled();
      c_bandwidth_rejected_.inc();
      c_rejected_.inc();
      x_rejected_.inc();
      return AdmissionDecision::RejectBandwidth;
    }
    tokens_ -= bytes;
    g_tokens_.set(tokens_);
    x_tokens_.set(tokens_);
  }
  if (h != nullptr) {
    // Strikes survive the admit: whether this promotion was honest shows
    // only later, when note_demoted sees how long the residency lasted.
    h->promote_epoch = epoch_;
    h->demote_epoch = 0;
  }
  ++admitted_this_epoch_;
  c_admitted_.inc();
  x_admitted_.inc();
  return AdmissionDecision::Admit;
}

void AdmissionController::note_demoted(const PageKey& key) {
  if (!enabled()) return;
  PageHistory& h = history_[key];
  h.demote_epoch = epoch_;
  if (h.promote_epoch != 0 &&
      epoch_ - h.promote_epoch > config_.cooldown_epochs) {
    // The residency outlived the ping-pong window: that promotion earned
    // its migration, so the strike ladder resets. A fast bounce keeps the
    // strikes, and the next re-request escalates the cool-down.
    h.strikes = 0;
  }
}

void AdmissionController::save_state(util::ckpt::Writer& w) const {
  w.put_u32(epoch_);
  w.put_u64(tokens_);
  w.put_u64(refill_carry_);
  w.put_u64(last_refill_ns_);
  w.put_u64(threshold_);
  w.put_u64(admitted_this_epoch_);
  w.put_u64(cooldown_pages_);
  w.put_u64(throttled_epochs_);
  w.put_bool(throttled_this_epoch_);
  w.put_u64(last_pressure_total_);
  w.put_u64(history_.size());
  history_.fold_sorted([&](const PageKey& key, const PageHistory& h) {
    core::PageKeyCodec::save(w, key);
    w.put_u32(h.last_epoch);
    w.put_u32(h.promote_epoch);
    w.put_u32(h.demote_epoch);
    w.put_u32(h.cooldown_until);
    w.put_u8(h.len);
    w.put_u8(h.strikes);
    for (std::uint8_t i = 0; i < h.len; ++i) w.put_u64(h.ranks[i]);
  });
  registry_.save_state(w);
}

void AdmissionController::load_state(util::ckpt::Reader& r) {
  epoch_ = r.get_u32();
  tokens_ = r.get_u64();
  refill_carry_ = r.get_u64();
  last_refill_ns_ = r.get_u64();
  threshold_ = r.get_u64();
  admitted_this_epoch_ = r.get_u64();
  cooldown_pages_ = r.get_u64();
  throttled_epochs_ = r.get_u64();
  throttled_this_epoch_ = r.get_bool();
  last_pressure_total_ = r.get_u64();
  if (tokens_ > config_.burst_bytes) {
    throw util::ckpt::CkptError("admission", "token count exceeds burst");
  }
  if (refill_carry_ >= util::kSecond) {
    throw util::ckpt::CkptError("admission", "refill carry out of range");
  }
  history_.clear();
  // Key, four u32 epochs, the length and strike bytes, then the ranks.
  const std::uint64_t n = r.get_count(core::PageKeyCodec::kBytes + 18);
  history_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const PageKey key = core::PageKeyCodec::load(r);
    PageHistory h;
    h.last_epoch = r.get_u32();
    h.promote_epoch = r.get_u32();
    h.demote_epoch = r.get_u32();
    h.cooldown_until = r.get_u32();
    h.len = r.get_u8();
    h.strikes = r.get_u8();
    if (h.len > kMaxHistory) {
      throw util::ckpt::CkptError("admission", "history length out of range");
    }
    for (std::uint8_t j = 0; j < h.len; ++j) h.ranks[j] = r.get_u64();
    history_[key] = h;
  }
  registry_.load_state(r);
}

}  // namespace tmprof::tiering
