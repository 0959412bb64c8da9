#include "mem/scheduler.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/check.hpp"

namespace bwpart::mem {

namespace {
/// Deterministic final tie-break so `before` is a strict weak ordering even
/// when two requests arrived on the same cycle.
bool older(const MemRequest& a, const MemRequest& b) {
  if (a.arrival_cpu != b.arrival_cpu) return a.arrival_cpu < b.arrival_cpu;
  return a.id < b.id;
}
}  // namespace

bool FcfsScheduler::before(const MemRequest& a, const MemRequest& b,
                           const dram::DramSystem& dram) const {
  (void)dram;
  return older(a, b);
}

FrFcfsScheduler::FrFcfsScheduler(std::uint32_t row_hit_streak_cap)
    : streak_cap_(row_hit_streak_cap) {}

void FrFcfsScheduler::on_issue(const MemRequest& req) {
  if (streak_cap_ == 0) return;
  if (has_last_ && req.loc.rank == last_rank_ && req.loc.bank == last_bank_) {
    ++streak_;
  } else {
    streak_ = 1;
    last_rank_ = req.loc.rank;
    last_bank_ = req.loc.bank;
    has_last_ = true;
  }
}

bool FrFcfsScheduler::hit_priority_allowed(
    const MemRequest& r, const dram::DramSystem& dram) const {
  if (!dram.is_row_hit(r.loc)) return false;
  if (streak_cap_ == 0) return true;
  // Once a bank has absorbed `streak_cap_` consecutive column accesses,
  // further hits to it lose their priority until another bank is served.
  if (has_last_ && r.loc.rank == last_rank_ && r.loc.bank == last_bank_ &&
      streak_ >= streak_cap_) {
    return false;
  }
  return true;
}

bool FrFcfsScheduler::before(const MemRequest& a, const MemRequest& b,
                             const dram::DramSystem& dram) const {
  const bool hit_a = hit_priority_allowed(a, dram);
  const bool hit_b = hit_priority_allowed(b, dram);
  if (hit_a != hit_b) return hit_a;
  return older(a, b);
}

BatchScheduler::BatchScheduler(std::size_t num_apps, std::size_t per_app_cap)
    : per_app_cap_(per_app_cap), arrival_count_(num_apps, 0) {
  BWPART_ASSERT(num_apps > 0, "scheduler needs at least one app");
  BWPART_ASSERT(per_app_cap > 0, "batch cap must be positive");
}

void BatchScheduler::on_enqueue(MemRequest& req, Cycle now_cpu) {
  (void)now_cpu;
  BWPART_ASSERT(req.app < arrival_count_.size(), "app id out of range");
  // Reuse the start_tag field to carry the batch number.
  req.start_tag = static_cast<double>(arrival_count_[req.app] / per_app_cap_);
  ++arrival_count_[req.app];
}

bool BatchScheduler::before(const MemRequest& a, const MemRequest& b,
                            const dram::DramSystem& dram) const {
  if (a.start_tag != b.start_tag) return a.start_tag < b.start_tag;
  const bool hit_a = dram.is_row_hit(a.loc);
  const bool hit_b = dram.is_row_hit(b.loc);
  if (hit_a != hit_b) return hit_a;
  return older(a, b);
}

StartTimeFairScheduler::StartTimeFairScheduler(std::size_t num_apps,
                                               double row_hit_window)
    : next_tag_(num_apps, 0.0),
      increment_(num_apps, static_cast<double>(num_apps)),
      row_hit_window_(row_hit_window) {
  BWPART_ASSERT(num_apps > 0, "scheduler needs at least one app");
  BWPART_ASSERT(row_hit_window >= 0.0, "negative row-hit window");
}

void StartTimeFairScheduler::on_enqueue(MemRequest& req, Cycle now_cpu) {
  (void)now_cpu;  // the modified DSTF tag is arrival-time independent
  BWPART_ASSERT(req.app < next_tag_.size(), "app id out of range");
  req.start_tag = next_tag_[req.app];
  next_tag_[req.app] += increment_[req.app];
}

bool StartTimeFairScheduler::before(const MemRequest& a, const MemRequest& b,
                                    const dram::DramSystem& dram) const {
  if (row_hit_window_ > 0.0) {
    const bool hit_a = dram.is_row_hit(a.loc);
    const bool hit_b = dram.is_row_hit(b.loc);
    if (hit_a != hit_b) {
      // A row hit may bypass a lower-tagged row miss only within the window
      // (bounded priority inversion, like FQ-VFTF's tRAS blocking bound).
      const double gap = hit_a ? b.start_tag - a.start_tag
                               : a.start_tag - b.start_tag;
      if (gap >= -row_hit_window_) return hit_a;
    }
  }
  if (a.start_tag != b.start_tag) return a.start_tag < b.start_tag;
  return older(a, b);
}

void StartTimeFairScheduler::set_shares(std::span<const double> beta) {
  BWPART_ASSERT(beta.size() == increment_.size(), "share vector arity");
  check::share_vector(beta, "StartTimeFairScheduler::set_shares");
  for (std::size_t i = 0; i < beta.size(); ++i) {
    BWPART_ASSERT(beta[i] >= 0.0, "negative share");
    // A zero share would starve the app entirely; clamp so every app makes
    // progress (the analytic schemes never hand out exact zeros anyway).
    const double b = std::max(beta[i], 1e-6);
    increment_[i] = 1.0 / b;
  }
}

double StartTimeFairScheduler::virtual_clock(AppId app) const {
  BWPART_ASSERT(app < next_tag_.size(), "app id out of range");
  return next_tag_[app];
}

double StartTimeFairScheduler::virtual_time_lag() const {
  double lo = next_tag_[0];
  double hi = next_tag_[0];
  for (const double t : next_tag_) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  return hi - lo;
}

ClassicDstfScheduler::ClassicDstfScheduler(std::size_t num_apps)
    : last_finish_(num_apps, 0.0),
      increment_(num_apps, static_cast<double>(num_apps)) {
  BWPART_ASSERT(num_apps > 0, "scheduler needs at least one app");
}

void ClassicDstfScheduler::on_enqueue(MemRequest& req, Cycle now_cpu) {
  (void)now_cpu;
  BWPART_ASSERT(req.app < last_finish_.size(), "app id out of range");
  // Anchor to the service virtual clock: idle time is forfeited.
  req.start_tag = std::max(virtual_time_, last_finish_[req.app]);
  last_finish_[req.app] = req.start_tag + increment_[req.app];
}

void ClassicDstfScheduler::on_issue(const MemRequest& req) {
  virtual_time_ = std::max(virtual_time_, req.start_tag);
}

bool ClassicDstfScheduler::before(const MemRequest& a, const MemRequest& b,
                                  const dram::DramSystem& dram) const {
  (void)dram;
  if (a.start_tag != b.start_tag) return a.start_tag < b.start_tag;
  return older(a, b);
}

double ClassicDstfScheduler::virtual_time_lag() const {
  double lo = last_finish_[0];
  double hi = last_finish_[0];
  for (const double f : last_finish_) {
    lo = std::min(lo, f);
    hi = std::max(hi, f);
  }
  return hi - lo;
}

void ClassicDstfScheduler::set_shares(std::span<const double> beta) {
  BWPART_ASSERT(beta.size() == increment_.size(), "share vector arity");
  check::share_vector(beta, "ClassicDstfScheduler::set_shares");
  for (std::size_t i = 0; i < beta.size(); ++i) {
    increment_[i] = 1.0 / std::max(beta[i], 1e-6);
  }
}

StfmScheduler::StfmScheduler(std::size_t num_apps, double alpha)
    : slowdown_(num_apps, 1.0), alpha_(alpha) {
  BWPART_ASSERT(num_apps > 0, "scheduler needs at least one app");
  BWPART_ASSERT(alpha >= 1.0, "alpha must be >= 1");
}

void StfmScheduler::set_slowdowns(std::span<const double> slowdowns) {
  BWPART_ASSERT(slowdowns.size() == slowdown_.size(), "slowdown arity");
  for (std::size_t i = 0; i < slowdowns.size(); ++i) {
    BWPART_ASSERT(slowdowns[i] > 0.0, "slowdown must be positive");
    slowdown_[i] = slowdowns[i];
  }
}

bool StfmScheduler::fairness_mode_active() const {
  const auto [lo, hi] = std::minmax_element(slowdown_.begin(), slowdown_.end());
  return *hi / *lo > alpha_;
}

bool StfmScheduler::before(const MemRequest& a, const MemRequest& b,
                           const dram::DramSystem& dram) const {
  BWPART_ASSERT(a.app < slowdown_.size() && b.app < slowdown_.size(),
                "app id out of range");
  if (fairness_mode_active() && slowdown_[a.app] != slowdown_[b.app]) {
    return slowdown_[a.app] > slowdown_[b.app];
  }
  const bool hit_a = dram.is_row_hit(a.loc);
  const bool hit_b = dram.is_row_hit(b.loc);
  if (hit_a != hit_b) return hit_a;
  return older(a, b);
}

AtlasScheduler::AtlasScheduler(std::size_t num_apps, std::uint64_t quantum,
                               double decay)
    : attained_(num_apps, 0.0), quantum_(quantum), decay_(decay) {
  BWPART_ASSERT(num_apps > 0, "scheduler needs at least one app");
  BWPART_ASSERT(quantum > 0, "quantum must be positive");
  BWPART_ASSERT(decay >= 0.0 && decay < 1.0, "decay must be in [0, 1)");
}

void AtlasScheduler::on_issue(const MemRequest& req) {
  BWPART_ASSERT(req.app < attained_.size(), "app id out of range");
  attained_[req.app] += 1.0;
  if (++served_in_quantum_ >= quantum_) {
    served_in_quantum_ = 0;
    for (double& a : attained_) a *= decay_;
  }
}

double AtlasScheduler::attained(AppId app) const {
  BWPART_ASSERT(app < attained_.size(), "app id out of range");
  return attained_[app];
}

bool AtlasScheduler::before(const MemRequest& a, const MemRequest& b,
                            const dram::DramSystem& dram) const {
  (void)dram;
  BWPART_ASSERT(a.app < attained_.size() && b.app < attained_.size(),
                "app id out of range");
  if (attained_[a.app] != attained_[b.app]) {
    return attained_[a.app] < attained_[b.app];
  }
  return older(a, b);
}

TcmScheduler::TcmScheduler(std::size_t num_apps)
    : latency_cluster_(num_apps, true), attained_(num_apps, 0.0) {
  BWPART_ASSERT(num_apps > 0, "scheduler needs at least one app");
}

void TcmScheduler::set_clusters(std::span<const bool> latency_sensitive) {
  BWPART_ASSERT(latency_sensitive.size() == latency_cluster_.size(),
                "cluster vector arity");
  latency_cluster_.assign(latency_sensitive.begin(), latency_sensitive.end());
}

void TcmScheduler::on_issue(const MemRequest& req) {
  BWPART_ASSERT(req.app < attained_.size(), "app id out of range");
  attained_[req.app] += 1.0;
}

bool TcmScheduler::before(const MemRequest& a, const MemRequest& b,
                          const dram::DramSystem& dram) const {
  (void)dram;
  const bool lat_a = latency_cluster_[a.app];
  const bool lat_b = latency_cluster_[b.app];
  if (lat_a != lat_b) return lat_a;  // latency cluster always first
  if (!lat_a && attained_[a.app] != attained_[b.app]) {
    // Fairness inside the bandwidth-heavy cluster: least attained first.
    return attained_[a.app] < attained_[b.app];
  }
  return older(a, b);
}

StrictPriorityScheduler::StrictPriorityScheduler(std::size_t num_apps)
    : rank_(num_apps, 0), rank_key_(num_apps, 0.0) {
  BWPART_ASSERT(num_apps > 0, "scheduler needs at least one app");
}

bool StrictPriorityScheduler::before(const MemRequest& a, const MemRequest& b,
                                     const dram::DramSystem& dram) const {
  (void)dram;
  BWPART_ASSERT(a.app < rank_.size() && b.app < rank_.size(),
                "app id out of range");
  if (rank_[a.app] != rank_[b.app]) return rank_[a.app] < rank_[b.app];
  return older(a, b);
}

void StrictPriorityScheduler::set_priority_ranks(
    std::span<const std::uint32_t> ranks) {
  BWPART_ASSERT(ranks.size() == rank_.size(), "rank vector arity");
  rank_.assign(ranks.begin(), ranks.end());
  for (std::size_t i = 0; i < rank_.size(); ++i) {
    rank_key_[i] = static_cast<double>(rank_[i]);
  }
  ++key_version_;
}

namespace {

constexpr const char* kArity =
    "scheduler per-app vector arity differs from the snapshot's";

}  // namespace

void FrFcfsScheduler::transfer(snap::Io& io) {
  io.u32(streak_cap_);
  io.u32(streak_);
  io.u32(last_rank_);
  io.u32(last_bank_);
  io.b(has_last_);
}

void BatchScheduler::transfer(snap::Io& io) {
  io.sz(per_app_cap_);
  io.fixed(arrival_count_, kArity);
}

void StartTimeFairScheduler::transfer(snap::Io& io) {
  io.f64(row_hit_window_);
  io.fixed(next_tag_, kArity);
  io.fixed(increment_, kArity);
}

void ClassicDstfScheduler::transfer(snap::Io& io) {
  io.fixed(last_finish_, kArity);
  io.fixed(increment_, kArity);
  io.f64(virtual_time_);
}

void StfmScheduler::transfer(snap::Io& io) {
  io.f64(alpha_);
  io.fixed(slowdown_, kArity);
}

void AtlasScheduler::transfer(snap::Io& io) {
  io.u64(quantum_);
  io.f64(decay_);
  io.u64(served_in_quantum_);
  io.fixed(attained_, kArity);
}

void TcmScheduler::transfer(snap::Io& io) {
  io.arity(latency_cluster_.size(), kArity);
  for (std::size_t i = 0; i < latency_cluster_.size(); ++i) {
    bool lat = latency_cluster_[i];
    io.b(lat);
    if (io.reading()) latency_cluster_[i] = lat;
  }
  io.fixed(attained_, kArity);
}

void StrictPriorityScheduler::transfer(snap::Io& io) {
  io.fixed(rank_, kArity);
  if (!io.reading()) return;
  for (std::size_t i = 0; i < rank_.size(); ++i) {
    rank_key_[i] = static_cast<double>(rank_[i]);
  }
  ++key_version_;
}

std::unique_ptr<Scheduler> make_scheduler_by_name(std::string_view name,
                                                  std::size_t num_apps) {
  if (name == "FCFS") return std::make_unique<FcfsScheduler>();
  if (name == "FR-FCFS") return std::make_unique<FrFcfsScheduler>();
  if (name == "PAR-BS") return std::make_unique<BatchScheduler>(num_apps);
  if (name == "StartTimeFair") {
    return std::make_unique<StartTimeFairScheduler>(num_apps);
  }
  if (name == "ClassicDSTF") {
    return std::make_unique<ClassicDstfScheduler>(num_apps);
  }
  if (name == "STFM") return std::make_unique<StfmScheduler>(num_apps);
  if (name == "ATLAS") return std::make_unique<AtlasScheduler>(num_apps);
  if (name == "TCM") return std::make_unique<TcmScheduler>(num_apps);
  if (name == "StrictPriority") {
    return std::make_unique<StrictPriorityScheduler>(num_apps);
  }
  return nullptr;
}

}  // namespace bwpart::mem
