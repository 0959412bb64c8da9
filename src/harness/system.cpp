#include "harness/system.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "common/check.hpp"

namespace bwpart::harness {

Enforcement enforcement_for(core::Scheme scheme,
                            std::span<const core::AppParams> params) {
  Enforcement e;
  if (core::is_priority_scheme(scheme)) {
    e.ranks = core::priority_ranks(scheme, params);
  } else if (scheme != core::Scheme::NoPartitioning) {
    // Only relative weights matter to the enforcement scheduler, so the
    // bandwidth argument is arbitrary.
    e.beta = core::compute_shares(scheme, params, 1.0);
  }
  return e;
}

std::unique_ptr<mem::Scheduler> make_scheduler(const Enforcement& e,
                                               std::size_t num_apps,
                                               double row_hit_window) {
  std::unique_ptr<mem::Scheduler> sched;
  if (!e.beta.empty()) {
    sched = std::make_unique<mem::StartTimeFairScheduler>(num_apps,
                                                          row_hit_window);
  } else if (!e.ranks.empty()) {
    sched = std::make_unique<mem::StrictPriorityScheduler>(num_apps);
  } else {
    sched = std::make_unique<mem::FcfsScheduler>();
  }
  apply_enforcement(*sched, e);
  return sched;
}

std::unique_ptr<mem::Scheduler> make_scheduler(
    core::Scheme scheme, std::size_t num_apps,
    std::span<const core::AppParams> params, double row_hit_window) {
  return make_scheduler(enforcement_for(scheme, params), num_apps,
                        row_hit_window);
}

void apply_enforcement(mem::Scheduler& sched, const Enforcement& e) {
  if (!e.beta.empty()) {
    sched.set_shares(e.beta);
  } else if (!e.ranks.empty()) {
    sched.set_priority_ranks(e.ranks);
  }
}

CmpSystem::CmpSystem(const SystemConfig& cfg,
                     std::span<const workload::BenchmarkSpec> apps,
                     std::uint64_t seed)
    : cfg_(cfg),
      apps_(apps.begin(), apps.end()),
      interference_(static_cast<std::uint32_t>(apps.size())) {
  BWPART_ASSERT(!apps_.empty(), "system needs at least one app");
  const auto n = static_cast<std::uint32_t>(apps_.size());
  BWPART_ASSERT(cfg_.num_controllers >= 1 && cfg_.num_controllers <= n,
                "need 1 <= num_controllers <= app count");
  // Systems start under No_partitioning (FCFS); experiments swap the
  // scheduler at phase boundaries via controller(c).replace_scheduler().
  // Every controller is built over the global application-id space (only
  // its round-robin subset ever enqueues), so no id remapping exists
  // anywhere: requests, stats and interference attribution all use the
  // global AppId.
  controllers_.reserve(cfg_.num_controllers);
  for (std::size_t c = 0; c < cfg_.num_controllers; ++c) {
    controllers_.push_back(std::make_unique<mem::MemoryController>(
        cfg_.dram, cfg_.cpu_clock, n, std::make_unique<mem::FcfsScheduler>(),
        cfg_.queue_capacity_per_app, dram::MapScheme::ChanRowColBankRank,
        cfg_.queue_capacity_shared, mem::AdmissionMode::Shared));
    controllers_.back()->set_fast_forward(cfg_.fast_forward);
    controllers_.back()->set_interference_observer(&interference_);
  }

  traces_.reserve(n);
  cores_.reserve(n);
  for (AppId a = 0; a < n; ++a) {
    traces_.push_back(std::make_unique<workload::SyntheticTraceGenerator>(
        workload::SyntheticTraceGenerator::from_benchmark(apps_[a], a, seed)));
    cpu::CoreConfig cc = cfg_.core;
    cc.nonmem_ipc_x100 = cpu::ipc_x100(apps_[a].nonmem_ipc);
    cores_.push_back(std::make_unique<cpu::OoOCore>(
        a, cc, *traces_[a], *controllers_[a % controllers_.size()]));
  }
  sleep_until_.assign(n, 0);
  slept_from_.assign(n, 0);
  sleep_kind_.assign(n, cpu::SleepFlavor::kStall);
  live_.assign(n, 1);
  live_cycles_.assign(n, 0);
  live_from_.assign(n, 0);
  const auto on_complete =
      [this](const mem::MemRequest& req, Cycle done_cpu) {
        // Only the completing application's own sleep can end here (no
        // sleep rests on shared queue space; see prove_sleep()). A
        // completion voids its stall proof (MSHR, store buffer, per-app
        // queue slice, dependent load); a read also voids its det proof,
        // whose deferred range must first be replayed with the
        // pre-delivery load state, as the reference loop ticked those
        // cycles before this delivery. Det proofs read nothing a write
        // completion touches. A dormant app can still receive completions
        // (its queued requests drain after departure) but never ticks: its
        // sleep bookkeeping is frozen at departure and stale. The app
        // belongs to the completing controller's partition, the one running.
        const AppId a = req.app;
        const bool det = sleep_kind_[a] == cpu::SleepFlavor::kDet;
        const bool wake =
            live_[a] != 0 && (!det || req.type == AccessType::Read);
        if (wake && det) flush_deferred_stalls(a, now_ + 1);
        cores_[a]->on_mem_complete(req, done_cpu);
        if (wake) {
          sleep_until_[a] = std::min(sleep_until_[a], now_ + 1);
          part_wake_ = std::min(part_wake_, sleep_until_[a]);
        }
      };
  for (auto& mc : controllers_) mc->set_completion_callback(on_complete);
}

double CmpSystem::bus_utilization() const {
  double sum = 0.0;
  for (const auto& mc : controllers_) {
    sum += mc->dram().stats().bus_utilization();
  }
  return sum / static_cast<double>(controllers_.size());
}

void CmpSystem::set_interference_attribution(bool on) {
  for (auto& mc : controllers_) {
    mc->set_interference_observer(on ? &interference_ : nullptr);
  }
}

void CmpSystem::set_app_live(AppId app, bool live) {
  BWPART_ASSERT(app < num_apps(), "app id out of range");
  if ((live_[app] != 0) == live) return;
  if (live) {
    live_from_[app] = now_;
  } else {
    live_cycles_[app] += now_ - live_from_[app];
  }
  live_[app] = live ? 1 : 0;
  controller_for(app).set_app_live(app, live);
}

std::size_t CmpSystem::num_live_apps() const {
  std::size_t n = 0;
  for (const std::uint8_t l : live_) n += l;
  return n;
}

void CmpSystem::set_app_phase(
    AppId app, const workload::SyntheticTraceGenerator::Params& p) {
  BWPART_ASSERT(app < num_apps(), "app id out of range");
  traces_[app]->set_phase(p);
}

Cycle CmpSystem::live_window(AppId app) const {
  BWPART_ASSERT(app < num_apps(), "app id out of range");
  Cycle cycles = live_cycles_[app];
  if (live_[app] != 0) cycles += now_ - live_from_[app];
  return cycles;
}

void CmpSystem::flush_deferred_stalls(std::size_t i, Cycle upto) {
  if (slept_from_[i] < upto) {
    const Cycle owed = upto - slept_from_[i];
    if (sleep_kind_[i] == cpu::SleepFlavor::kDet) {
      cores_[i]->fast_forward_det(slept_from_[i], owed);
    } else {
      cores_[i]->fast_forward_stall(owed);
    }
    slept_from_[i] = upto;
  }
}

void CmpSystem::set_observability(obs::Hub* hub) {
  hub_ = hub;
  for (auto& mc : controllers_) mc->set_observability(hub);
  if (hub_ != nullptr) obs_resnapshot();
}

void CmpSystem::obs_resnapshot() {
  const std::size_t n = cores_.size();
  obs_snap_.cycle = now_;
  obs_snap_.served.resize(n);
  obs_snap_.instructions.resize(n);
  for (AppId a = 0; a < n; ++a) {
    obs_snap_.served[a] = controller_for(a).app_stats(a).served();
    obs_snap_.instructions[a] = cores_[a]->stats().instructions;
  }
  obs_snap_.channel_busy.clear();
  obs_snap_.dram_ticks.clear();
  for (const auto& mc : controllers_) {
    const dram::DramStats& d = mc->dram().stats();
    obs_snap_.channel_busy.insert(obs_snap_.channel_busy.end(),
                                  d.channel_busy_ticks.begin(),
                                  d.channel_busy_ticks.end());
    obs_snap_.dram_ticks.push_back(d.ticks);
  }
}

void CmpSystem::obs_sample() {
  const Cycle span = now_ - obs_snap_.cycle;
  if (span == 0) return;
  const double dspan = static_cast<double>(span);
  obs::EpochRow row;
  row.track = obs_track_;
  row.cycle = now_;
  row.span = span;
  row.pending_total = 0;
  row.dstf_lag = 0.0;
  row.churn_events = churn_events_pending_;
  row.churn_lag = churn_lag_pending_;
  churn_events_pending_ = 0;
  churn_lag_pending_ = 0;
  for (const auto& mc : controllers_) {
    row.pending_total += mc->pending_requests_total();
    // The scale-out topology runs one DSTF instance per controller; report
    // the worst lag (identical to the single instance's on 1-controller
    // configs).
    row.dstf_lag = std::max(row.dstf_lag, mc->scheduler().virtual_time_lag());
  }

  // channel_util concatenates every controller's channels in controller
  // order (obs_snap_.channel_busy uses the same flattening).
  row.channel_util.clear();
  std::size_t flat = 0;
  for (std::size_t mci = 0; mci < controllers_.size(); ++mci) {
    const dram::DramStats& d = controllers_[mci]->dram().stats();
    const std::uint64_t dticks = d.ticks - obs_snap_.dram_ticks[mci];
    for (std::uint32_t c = 0; c < d.channels; ++c, ++flat) {
      const std::uint64_t busy =
          d.channel_busy_ticks[c] - obs_snap_.channel_busy[flat];
      // Busy ticks are credited at column-issue time for a burst that
      // occupies the bus a few ticks later, so a short epoch can see more
      // credited burst ticks than elapsed bus ticks; clamp to keep the
      // documented [0, 1] range (the overhang belongs to the next epoch).
      row.channel_util.push_back(
          dticks == 0 ? 0.0
                      : std::min(1.0, static_cast<double>(busy) /
                                          static_cast<double>(dticks)));
      obs_snap_.channel_busy[flat] = d.channel_busy_ticks[c];
    }
    obs_snap_.dram_ticks[mci] = d.ticks;
  }

  std::ostringstream apc_args;
  std::ostringstream queue_args;
  row.apps.resize(cores_.size());
  for (AppId a = 0; a < cores_.size(); ++a) {
    obs::AppEpochSample& s = row.apps[a];
    const std::uint64_t served = controller_for(a).app_stats(a).served();
    const std::uint64_t instr = cores_[a]->stats().instructions;
    s.served = served - obs_snap_.served[a];
    s.instructions = instr - obs_snap_.instructions[a];
    s.apc = static_cast<double>(s.served) / dspan;
    s.ipc = static_cast<double>(s.instructions) / dspan;
    s.api = s.instructions == 0 ? 0.0
                                : static_cast<double>(s.served) /
                                      static_cast<double>(s.instructions);
    s.queue_depth = controller_for(a).pending_requests(a);
    s.window_occupancy = cores_[a]->window_occupancy();
    s.loads_inflight = cores_[a]->offchip_loads_inflight();
    s.live = live_[a] != 0;
    obs_snap_.served[a] = served;
    obs_snap_.instructions[a] = instr;
    hub_->metrics()
        .histogram("sys.queue_depth.app" + std::to_string(a))
        .record(s.queue_depth);
    if (a != 0) {
      apc_args << ',';
      queue_args << ',';
    }
    apc_args << "\"app" << a << "\":" << s.apc;
    queue_args << "\"app" << a << "\":" << s.queue_depth;
  }
  obs_snap_.cycle = now_;
  hub_->metrics().counter("sys.epochs_sampled").add();
  hub_->metrics().gauge("sys.dstf_lag").set(row.dstf_lag);
  hub_->trace().counter("apc", obs::TraceEmitter::kSystemTrack, now_,
                        apc_args.str());
  hub_->trace().counter("queue_depth", obs::TraceEmitter::kSystemTrack, now_,
                        queue_args.str());
  hub_->series().add(std::move(row));
}

void CmpSystem::run(Cycle cycles) {
  if (hub_ != nullptr && hub_->enabled() && hub_->epoch_cycles() > 0) {
    // Chunk the run at absolute epoch boundaries and sample each one.
    // run_engine() is bit-identical to the reference loop regardless of
    // chunking, so sampling never perturbs results — a chunk start only
    // voids sleep proofs, which re-prove at the same decisions.
    const Cycle end = now_ + cycles;
    const Cycle epoch = hub_->epoch_cycles();
    while (now_ < end) {
      const Cycle boundary = (now_ / epoch + 1) * epoch;
      run_engine(std::min(end, boundary) - now_);
      if (now_ == boundary) obs_sample();
    }
    return;
  }
  run_engine(cycles);
}

void CmpSystem::run_engine(Cycle cycles) {
  const Cycle start = now_;
  const Cycle end = now_ + cycles;
  if (!cfg_.fast_forward) {
    while (now_ < end) {
      for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (live_[i] != 0) cores_[i]->tick(now_);
      }
      for (auto& mc : controllers_) mc->tick(now_);
      ++now_;
    }
    return;
  }
  // Event-driven engine, one event loop per controller partition. Core i
  // enqueues into controller i % nc, is throttled by it and is woken by its
  // completions, and controllers share no state, so a partition's run
  // depends on nothing outside it: running the partitions one after another
  // over [start, end) reproduces the reference interleaving exactly (one
  // controller makes one partition of every core, in index order). Sleep
  // proofs do not survive external reconfiguration between run() calls
  // (scheduler swaps, admission/write-drain changes), so all cores start
  // awake.
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    // Dormant cores sleep unconditionally past the horizon: they never tick,
    // never flush deferred cycles, and never cap a partition's jump (the
    // kNoCycle sentinel compares greater than every wake candidate).
    sleep_until_[i] = live_[i] != 0 ? now_ : kNoCycle;
    slept_from_[i] = now_;
  }
  for (std::size_t c = 0; c < controllers_.size(); ++c) {
    now_ = start;
    run_partition(c, end);
  }
}

void CmpSystem::run_partition(std::size_t c, Cycle end) {
  // Each core that proves itself stalled sleeps until its own wake cycle
  // (or one of its own completions — the only event that can unblock a
  // core early — cuts the sleep short); its deferred cycles are replayed in
  // closed form when it next ticks, so the stats stay bit-identical to
  // ticking every cycle. When every core of the partition sleeps, the
  // partition jumps to its controller's next event.
  const std::size_t n = cores_.size();
  const std::size_t nc = controllers_.size();
  mem::MemoryController& mc = *controllers_[c];
  part_wake_ = kNoCycle;
  for (std::size_t i = c; i < n; i += nc) {
    part_wake_ = std::min(part_wake_, sleep_until_[i]);
  }
  // Controller tick() calls on CPU cycles with no due bus tick are no-ops
  // (the clock-crossing target does not advance); elide them.
  Cycle due = 0;
  while (now_ < end) {
    if (part_wake_ > now_) {
      // Jump to the earliest core wake or controller event (completion
      // delivery, command issue, refresh/power-down transition). The
      // controller bound means no completion lands inside the skipped
      // range, so the sleep proofs hold across it. Cores tick before the
      // controller within a cycle, so resuming at `wake` preserves the
      // reference interleaving exactly.
      const Cycle wake =
          std::min({part_wake_, mc.next_event_cpu_cycle(), end});
      if (wake >= end) {
        skipped_cycles_ += end - now_;
        now_ = end;
        // Keep the controller caught up with the cycles the reference loop
        // would have ticked it through before exiting.
        mc.tick(end - 1);
        break;
      }
      if (wake > now_) {
        skipped_cycles_ += wake - now_;
        now_ = wake;
      }
      // A controller event due at now_ itself: fall through — no core
      // ticks, the controller tick below processes it.
    }
    if (due < now_) {
      // Catch up on bus ticks that fell due before this cycle (a jump can
      // pass over dead ticks). The reference loop processed them before
      // any core acted at now_, so requests enqueued this cycle must not be
      // visible to them — attribution and issue decisions for those ticks
      // would otherwise see queue state from the future.
      mc.tick(now_ - 1);
      due = mc.next_bus_activity_cpu_cycle();
    }
    if (part_wake_ <= now_) {
      Cycle next_wake = kNoCycle;
      for (std::size_t i = c; i < n; i += nc) {
        if (sleep_until_[i] <= now_) {
          if (slept_from_[i] < now_) flush_deferred_stalls(i, now_);
          cores_[i]->tick(now_);
          const cpu::WakeProof p = cores_[i]->prove_sleep(now_);
          sleep_kind_[i] = p.flavor;
          sleep_until_[i] = std::max(p.wake, now_ + 1);  // kNoCycle stays
          slept_from_[i] = now_ + 1;
        }
        next_wake = std::min(next_wake, sleep_until_[i]);
      }
      part_wake_ = next_wake;
    }
    if (now_ >= due) {
      mc.tick(now_);
      due = mc.next_bus_activity_cpu_cycle();
    }
    ++now_;
  }
  // Replay any still-deferred stall cycles so stats reads see a state
  // identical to the reference loop's at `end` (dormant cores own none).
  for (std::size_t i = c; i < n; i += nc) {
    if (live_[i] != 0) flush_deferred_stalls(i, end);
  }
}

void CmpSystem::save_state(snap::Writer& w) const {
  snap::Io io(w);
  const_cast<CmpSystem*>(this)->transfer(io);  // a writing Io stores nothing
}

void CmpSystem::restore_state(snap::Reader& r) {
  snap::Io io(r);
  transfer(io);
}

void CmpSystem::transfer(snap::Io& io) {
  io.tag("SYS0");
  io.u64(now_);
  io.u64(window_start_);
  io.arity(cores_.size(), "application count differs from the snapshot's");
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    traces_[i]->transfer(io);
    cores_[i]->transfer(io);
    // Tenancy: liveness flag plus the per-app live-window accounting (the
    // denominators of measured_*_live must survive a mid-churn resume).
    io.u8(live_[i]);
    snap::require(live_[i] <= 1, "liveness byte holds a value other than 0/1");
    io.u64(live_cycles_[i]);
    io.u64(live_from_[i]);
  }
  io.arity(controllers_.size(), "controller count differs from the snapshot's");
  for (auto& mc : controllers_) mc->transfer(io);
  interference_.transfer(io);
  if (!io.reading()) return;
  for (auto& mc : controllers_) {
    snap::require(mc->ticked_before(now_),
                  "a controller's clock runs ahead of the system's");
  }
  require_requests_match_loads();
  // Engine telemetry is not state: a restored system counts its jumps from
  // the restore point.
  skipped_cycles_ = 0;
  // Sleep proofs never cross a run() boundary; clear them so nothing stale
  // outlives the restore.
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    sleep_until_[i] = now_;
    slept_from_[i] = now_;
    sleep_kind_[i] = cpu::SleepFlavor::kStall;
  }
  // The epoch sampler's cumulative snapshot belongs to the pre-restore
  // counters; re-base it on the restored ones.
  if (hub_ != nullptr) obs_resnapshot();
}

void CmpSystem::require_requests_match_loads() const {
  const std::size_t n = cores_.size();
  std::vector<std::vector<std::uint64_t>> reads(n);
  std::vector<std::size_t> writes(n, 0);
  for (std::size_t k = 0; k < controllers_.size(); ++k) {
    controllers_[k]->for_each_outstanding([&](const mem::MemRequest& req) {
      snap::require(controller_of(req.app) == k,
                    "a controller holds a request of an app it does not "
                    "serve");
      if (req.type == AccessType::Read) {
        reads[req.app].push_back(req.id);
      } else {
        ++writes[req.app];
      }
    });
  }
  std::vector<std::uint64_t> loads;
  for (AppId a = 0; a < n; ++a) {
    const cpu::OoOCore& core = *cores_[a];
    core.pending_load_ids(loads);
    std::sort(loads.begin(), loads.end());
    std::sort(reads[a].begin(), reads[a].end());
    snap::require(loads == reads[a] &&
                      std::adjacent_find(loads.begin(), loads.end()) ==
                          loads.end(),
                  "a controller's outstanding reads do not match its app's "
                  "pending loads one to one");
    snap::require(core.offchip_loads_inflight() == loads.size() &&
                      core.stores_inflight() == writes[a],
                  "a core's in-flight load or store count differs from its "
                  "controller's outstanding requests");
  }
}

void CmpSystem::reset_measurement() {
  for (auto& c : cores_) c->reset_stats();
  for (auto& mc : controllers_) mc->reset_stats();
  interference_.reset();
  window_start_ = now_;
  // Restart the per-app tenancy clocks with the window.
  for (std::size_t i = 0; i < live_.size(); ++i) {
    live_cycles_[i] = 0;
    live_from_[i] = now_;
  }
  // Counters just went back to zero; re-base the epoch sampler so the
  // next epoch's deltas cannot underflow.
  if (hub_ != nullptr) obs_resnapshot();
}

std::vector<profile::AppCounters> CmpSystem::profiler_counters() const {
  std::vector<profile::AppCounters> out(cores_.size());
  for (AppId a = 0; a < cores_.size(); ++a) {
    out[a].accesses = controller_for(a).app_stats(a).served();
    out[a].instructions = cores_[a]->stats().instructions;
    out[a].interference_cycles = interference_.interference_cycles(a);
  }
  return out;
}

std::vector<double> CmpSystem::measured_ipc() const {
  std::vector<double> out;
  out.reserve(cores_.size());
  const Cycle window = now_ - window_start_;
  for (const auto& c : cores_) {
    out.push_back(window == 0 ? 0.0
                              : static_cast<double>(c->stats().instructions) /
                                    static_cast<double>(window));
  }
  return out;
}

std::vector<double> CmpSystem::measured_apc() const {
  std::vector<double> out;
  out.reserve(cores_.size());
  const Cycle window = now_ - window_start_;
  for (AppId a = 0; a < cores_.size(); ++a) {
    out.push_back(
        window == 0
            ? 0.0
            : static_cast<double>(controller_for(a).app_stats(a).served()) /
                  static_cast<double>(window));
  }
  return out;
}

double CmpSystem::measured_total_apc() const {
  double total = 0.0;
  for (double apc : measured_apc()) total += apc;
  return total;
}

std::vector<double> CmpSystem::measured_ipc_live() const {
  std::vector<double> out;
  out.reserve(cores_.size());
  for (AppId a = 0; a < cores_.size(); ++a) {
    const Cycle window = live_window(a);
    out.push_back(window == 0
                      ? 0.0
                      : static_cast<double>(cores_[a]->stats().instructions) /
                            static_cast<double>(window));
  }
  return out;
}

std::vector<double> CmpSystem::measured_apc_live() const {
  std::vector<double> out;
  out.reserve(cores_.size());
  for (AppId a = 0; a < cores_.size(); ++a) {
    const Cycle window = live_window(a);
    out.push_back(
        window == 0
            ? 0.0
            : static_cast<double>(controller_for(a).app_stats(a).served()) /
                  static_cast<double>(window));
  }
  return out;
}

void CmpSystem::note_churn_event(const char* kind, AppId app) {
  if (hub_ == nullptr || !hub_->enabled()) return;
  ++churn_events_pending_;
  hub_->trace().instant(std::string("churn:") + kind + ":app" +
                            std::to_string(app),
                        obs::TraceEmitter::kSystemTrack, now_);
  hub_->metrics().counter(std::string("churn.") + kind).add();
}

void CmpSystem::note_adaptation_lag(Cycle lag) {
  if (hub_ == nullptr || !hub_->enabled()) return;
  churn_lag_pending_ = std::max(churn_lag_pending_, lag);
  hub_->metrics().histogram("churn.adaptation_lag").record(lag);
}

void CmpSystem::check_conservation(const char* where) const {
  // Eq. 2 over the measured window: sum_i APC_shared,i == B.
  check::bandwidth_accounting(measured_apc(), measured_total_apc(), where);
  // Double-entry bookkeeping across layers: the controller counts a request
  // when its data is delivered, the DRAM engine when the column command
  // issues, so the two totals may differ only by requests in flight at the
  // window edges (bounded by the queue capacity).
  std::uint64_t served = 0;
  for (AppId a = 0; a < num_apps(); ++a) {
    served += controller_for(a).app_stats(a).served();
  }
  std::uint64_t dram_cols = 0;
  std::uint64_t slack = 0;
  for (const auto& mc : controllers_) {
    dram_cols += mc->dram().stats().column_accesses();
    slack += mc->queue_capacity_bound();
  }
  const std::uint64_t diff =
      served > dram_cols ? served - dram_cols : dram_cols - served;
  if (diff > slack) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s: Eq. 2 accounting — controller served %llu requests "
                  "but DRAM issued %llu column accesses (slack %llu)",
                  where, static_cast<unsigned long long>(served),
                  static_cast<unsigned long long>(dram_cols),
                  static_cast<unsigned long long>(slack));
    check::report(buf, __FILE__, __LINE__);
  }
}

}  // namespace bwpart::harness
