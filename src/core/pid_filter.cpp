#include "core/pid_filter.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::core {

PidFilter::PidFilter(const PidFilterConfig& config) : config_(config) {
  TMPROF_EXPECTS(config.cpu_threshold >= 0.0 && config.cpu_threshold <= 1.0);
  TMPROF_EXPECTS(config.mem_threshold >= 0.0 && config.mem_threshold <= 1.0);
}

std::vector<mem::Pid> PidFilter::select(
    const std::vector<sim::Process*>& processes) {
  // Deltas of issued ops since last evaluation approximate CPU time.
  std::uint64_t total_delta = 0;
  std::uint64_t total_rss = 0;
  std::vector<std::uint64_t> deltas(processes.size(), 0);
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const sim::Process* p = processes[i];
    std::uint64_t last = 0;
    for (const auto& [pid, ops] : last_ops_) {
      if (pid == p->pid()) last = ops;
    }
    deltas[i] = p->ops_issued() - last;
    total_delta += deltas[i];
    total_rss += p->rss_pages();
  }

  struct Candidate {
    mem::Pid pid;
    double combined;
    bool pinned;
  };
  std::vector<Candidate> kept;
  std::size_t n_pinned = 0;
  for (std::size_t i = 0; i < processes.size(); ++i) {
    const sim::Process* p = processes[i];
    const double cpu = total_delta == 0
                           ? 0.0
                           : static_cast<double>(deltas[i]) /
                                 static_cast<double>(total_delta);
    const double mem = total_rss == 0
                           ? 0.0
                           : static_cast<double>(p->rss_pages()) /
                                 static_cast<double>(total_rss);
    const bool pinned = is_pinned(p->pid());
    if (pinned || cpu >= config_.cpu_threshold ||
        mem >= config_.mem_threshold) {
      kept.push_back(Candidate{p->pid(), cpu + mem, pinned});
      if (pinned) ++n_pinned;
    }
  }
  if (config_.restrict_top_n > 0 && kept.size() > config_.restrict_top_n) {
    if (pinned_.empty()) {
      std::sort(kept.begin(), kept.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.combined > b.combined;
                });
      kept.resize(config_.restrict_top_n);
    } else {
      // Pinned pids survive the trim; the remaining slots go to the
      // highest combined share. Total order (pid tiebreak) so the trimmed
      // set is deterministic under share ties.
      std::sort(kept.begin(), kept.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.pinned != b.pinned) return a.pinned;
                  if (a.combined != b.combined) return a.combined > b.combined;
                  return a.pid < b.pid;
                });
      kept.resize(std::max<std::size_t>(config_.restrict_top_n, n_pinned));
    }
  }

  last_ops_.clear();
  for (const sim::Process* p : processes) {
    last_ops_.emplace_back(p->pid(), p->ops_issued());
  }

  std::vector<mem::Pid> pids;
  pids.reserve(kept.size());
  for (const Candidate& c : kept) pids.push_back(c.pid);
  std::sort(pids.begin(), pids.end());
  return pids;
}

bool PidFilter::is_pinned(mem::Pid pid) const noexcept {
  return std::find(pinned_.begin(), pinned_.end(), pid) != pinned_.end();
}

void PidFilter::save_state(util::ckpt::Writer& w) const {
  w.put_u64(last_ops_.size());
  for (const auto& [pid, ops] : last_ops_) {
    w.put_u64(pid);
    w.put_u64(ops);
  }
}

void PidFilter::load_state(util::ckpt::Reader& r) {
  last_ops_.clear();
  const std::uint64_t count = r.get_count(16);
  last_ops_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto pid = static_cast<mem::Pid>(r.get_u64());
    const std::uint64_t ops = r.get_u64();
    last_ops_.emplace_back(pid, ops);
  }
}

}  // namespace tmprof::core
