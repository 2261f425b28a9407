#include "svc/reservation_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/bounds.hpp"
#include "core/ivsp.hpp"
#include "obs/metrics.hpp"
#include "sim/validator.hpp"
#include "storage/usage_timeline.hpp"
#include "workload/trace.hpp"

namespace vor::svc {

namespace {

/// Arrival stamps order the close's drain sort, so they must be finite
/// (NaN breaks the strict weak order) and non-negative.
bool ValidArrival(util::Seconds arrival) {
  return std::isfinite(arrival.value()) && arrival.value() >= 0.0;
}

/// Why an admitted candidate was pushed back, for the svc.admit.*
/// counter split.
enum class DeferCause : std::uint8_t {
  kFairness,
  kCapacityEstimate,
  kBudgetEstimate,
  kInfeasible,
};

const char* CounterName(DeferCause cause) {
  switch (cause) {
    case DeferCause::kFairness: return "svc.admit.deferred_fairness";
    case DeferCause::kCapacityEstimate: return "svc.admit.deferred_capacity";
    case DeferCause::kBudgetEstimate: return "svc.admit.deferred_budget";
    case DeferCause::kInfeasible: return "svc.admit.deferred_infeasible";
  }
  return "svc.admit.deferred_other";
}

/// Exact duplicate test over everything the drain order sees — the unit
/// of the speculative-vs-final batch comparison.
bool SameStamped(const StampedRequest& a, const StampedRequest& b) {
  return a.arrival.value() == b.arrival.value() &&
         a.deferrals == b.deferrals && a.request.user == b.request.user &&
         a.request.video == b.request.video &&
         a.request.start_time.value() == b.request.start_time.value() &&
         a.request.neighborhood == b.request.neighborhood;
}

std::size_t CommonPrefixLength(const std::vector<StampedRequest>& a,
                               const std::vector<StampedRequest>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && SameStamped(a[i], b[i])) ++i;
  return i;
}

/// The admitted / pushed-back split of one canonical batch.
struct AdmissionSplit {
  std::vector<StampedRequest> admitted;
  std::vector<std::pair<StampedRequest, DeferCause>> pushed_back;
};

/// The estimate tier of admission control — fairness cap, per-IS
/// caching-pressure estimate, optional cost budget — as a pure function
/// of (config, committed state, canonical batch).  No counters and no
/// service mutation, so a speculative pass and the real close run the
/// exact same code and any bookkeeping happens once, at the close.
AdmissionSplit RunAdmissionEstimates(
    const ServiceConfig& config, const net::Topology& topology,
    const media::Catalog& catalog, const core::VorScheduler& scheduler,
    const core::SolveOutput& previous,
    const std::vector<workload::Request>& committed,
    std::vector<StampedRequest> batch) {
  AdmissionSplit split;
  split.admitted.reserve(batch.size());

  // Fairness cap: each user gets at most user_cycle_cap slots per cycle,
  // earliest arrivals first.
  {
    std::unordered_map<workload::UserId, std::size_t> per_user;
    for (StampedRequest& s : batch) {
      if (config.admission_control &&
          ++per_user[s.request.user] > config.user_cycle_cap) {
        split.pushed_back.emplace_back(std::move(s), DeferCause::kFairness);
      } else {
        split.admitted.push_back(std::move(s));
      }
    }
  }

  if (config.admission_control && !split.admitted.empty()) {
    // Capacity estimate: bound the caching pressure a cycle may add to
    // each IS.  Headroom comes from the committed schedule's peak usage,
    // which the SORP run that resolved it read off its tracker
    // (SorpStats::node_peaks); each (video, IS) pair contributes one
    // copy's worth of bytes.  The floor of one full capacity keeps
    // saturated nodes serviceable (direct deliveries use no storage) while
    // still shedding pathological pile-ups up front.
    const std::vector<double>& peaks = previous.sorp.node_peaks;
    std::unordered_map<net::NodeId, double> budget;
    for (net::NodeId n = 0; n < topology.node_count(); ++n) {
      if (!topology.IsStorage(n)) continue;
      const double capacity = topology.node(n).capacity.value();
      const double headroom = std::max(0.0, capacity - peaks[n]);
      budget[n] = headroom * config.admission_overcommit + capacity;
    }
    std::unordered_set<std::uint64_t> seen_copy;  // (video, node) pairs
    std::vector<StampedRequest> kept;
    kept.reserve(split.admitted.size());
    for (StampedRequest& s : split.admitted) {
      const net::NodeId node = s.request.neighborhood;
      const std::uint64_t copy_key = AdmissionCopyKey(s.request.video, node);
      double footprint = 0.0;
      if (seen_copy.insert(copy_key).second) {
        footprint = catalog.video(s.request.video).size.value();
      }
      double& remaining = budget[node];
      if (footprint > remaining) {
        seen_copy.erase(copy_key);
        split.pushed_back.emplace_back(std::move(s),
                                       DeferCause::kCapacityEstimate);
      } else {
        remaining -= footprint;
        kept.push_back(std::move(s));
      }
    }
    split.admitted = std::move(kept);
  }

  if (config.admission_control && config.cycle_cost_budget > 0.0 &&
      !split.admitted.empty()) {
    // Cost budget: the unavoidable-network lower bound (core/bounds) of
    // committed + admitted must fit the horizon budget.  The bound is
    // monotone in the admitted prefix, so binary-search the cut.
    const auto bound_of = [&](std::size_t prefix) {
      std::vector<workload::Request> merged = committed;
      for (std::size_t i = 0; i < prefix; ++i) {
        merged.push_back(split.admitted[i].request);
      }
      return core::UnavoidableNetworkLowerBound(merged, scheduler.cost_model())
          .total();
    };
    if (bound_of(split.admitted.size()) > config.cycle_cost_budget) {
      std::size_t lo = 0;
      std::size_t hi = split.admitted.size();  // first prefix over budget
      while (lo < hi) {
        const std::size_t mid = (lo + hi + 1) / 2;
        if (bound_of(mid) <= config.cycle_cost_budget) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      for (std::size_t i = split.admitted.size(); i > lo; --i) {
        split.pushed_back.emplace_back(std::move(split.admitted[i - 1]),
                                       DeferCause::kBudgetEstimate);
      }
      split.admitted.resize(lo);
    }
  }
  return split;
}

}  // namespace

const char* ToString(SpeculationOutcome outcome) {
  switch (outcome) {
    case SpeculationOutcome::kOff: return "off";
    case SpeculationOutcome::kMiss: return "miss";
    case SpeculationOutcome::kHit: return "hit";
    case SpeculationOutcome::kRepair: return "repair";
    case SpeculationOutcome::kFallback: return "fallback";
  }
  return "unknown";
}

/// Payload of one background speculative solve; built entirely from
/// copies taken under the cycle mutex at Speculate() time, so the worker
/// never touches live service state.
struct ReservationService::SpecResult {
  util::Result<core::SolveOutput> out = util::Internal("not solved");
  std::vector<workload::Request> merged;
  core::IncrementalStats stats;
  core::SpeculativeSolution solution;
};

bool DrainOrderLess(const StampedRequest& a, const StampedRequest& b) {
  if (a.arrival.value() != b.arrival.value()) {
    return a.arrival.value() < b.arrival.value();
  }
  if (workload::ReplayOrderLess(a.request, b.request)) return true;
  if (workload::ReplayOrderLess(b.request, a.request)) return false;
  return a.deferrals < b.deferrals;
}

ReservationService::ReservationService(const net::Topology& topology,
                                       const media::Catalog& catalog,
                                       ServiceConfig config)
    : topology_(&topology),
      catalog_(&catalog),
      config_(std::move(config)),
      // config_ precedes scheduler_ in declaration order, so reading it
      // here is safe; the service's metrics sink wins over any stale
      // pointer in the nested scheduler options.
      scheduler_(topology, catalog, [this] {
        core::SchedulerOptions options = config_.scheduler;
        options.metrics = config_.metrics;
        return options;
      }()) {
  // Nothing is reserved before the first commit.
  previous_.sorp.node_peaks.assign(topology.node_count(), 0.0);
  if (config_.shards == 0) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ReservationService::~ReservationService() { Stop(); }

util::Status ReservationService::ValidateRequest(
    const workload::Request& request) const {
  if (!catalog_->Contains(request.video)) {
    return util::NotFound("unknown video id " + std::to_string(request.video));
  }
  if (!topology_->IsStorage(request.neighborhood)) {
    return util::InvalidArgument("neighborhood is not an intermediate storage");
  }
  // Written so NaN fails too: start times feed ReplayOrderLess, whose
  // strict weak order the close's sort relies on.
  if (!std::isfinite(request.start_time.value()) ||
      request.start_time.value() < 0.0) {
    return util::InvalidArgument("start time is negative or not finite");
  }
  return util::Status::Ok();
}

SubmitOutcome ReservationService::Submit(const workload::Request& request,
                                         util::Seconds arrival) {
  if (!ValidateRequest(request).ok() || !ValidArrival(arrival)) {
    obs::Add(config_.metrics, "svc.submit.rejected_invalid");
    return SubmitOutcome::kRejectedInvalid;
  }
  const StampedRequest stamped{request, arrival, 0};
  // Two-choice shard placement: the home shard first, then one
  // deterministic alternate, so a skewed user distribution overflows
  // into a sibling stripe instead of reporting spurious backpressure
  // while other shards sit empty.  Placement never affects the committed
  // schedule — the close drains every shard and sorts canonically.
  const std::size_t home = request.user % shards_.size();
  const std::size_t alternate = (home + 1) % shards_.size();
  for (const std::size_t index : {home, alternate}) {
    Shard& shard = *shards_[index];
    std::lock_guard lock(shard.mutex);
    if (shard.queue.size() < config_.shard_capacity) {
      shard.queue.push_back(stamped);
      shard.enqueued.push_back(IntakeNow());
      obs::Add(config_.metrics, "svc.submit.accepted");
      if (index != home) {
        obs::Add(config_.metrics, "svc.submit.accepted_second_choice");
      }
      return SubmitOutcome::kAccepted;
    }
    if (index == alternate) break;  // both stripes full; spill next
  }
  {
    std::lock_guard lock(spill_mutex_);
    if (spill_.size() < config_.deferred_capacity) {
      spill_.push_back(stamped);
      spill_enqueued_.push_back(IntakeNow());
      obs::Add(config_.metrics, "svc.submit.deferred");
      return SubmitOutcome::kDeferred;
    }
  }
  obs::Add(config_.metrics, "svc.submit.rejected_backpressure");
  return SubmitOutcome::kRejectedBackpressure;
}

std::vector<StampedRequest> ReservationService::DrainIntake() {
  // How long each request sat in intake before a close picked it up —
  // the queue-wait half of the submit->commit latency the RPC load
  // generator measures end to end.
  const double now = IntakeNow();
  std::vector<StampedRequest> drained;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    drained.insert(drained.end(), shard->queue.begin(), shard->queue.end());
    for (const double stamp : shard->enqueued) {
      obs::Observe(config_.metrics, "svc.submit.queue_wait", now - stamp);
    }
    shard->queue.clear();
    shard->enqueued.clear();
  }
  {
    std::lock_guard lock(spill_mutex_);
    drained.insert(drained.end(), spill_.begin(), spill_.end());
    for (const double stamp : spill_enqueued_) {
      obs::Observe(config_.metrics, "svc.submit.queue_wait", now - stamp);
    }
    spill_.clear();
    spill_enqueued_.clear();
  }
  return drained;
}

std::vector<StampedRequest> ReservationService::PeekIntake() const {
  std::vector<StampedRequest> copied;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    copied.insert(copied.end(), shard->queue.begin(), shard->queue.end());
  }
  {
    std::lock_guard lock(spill_mutex_);
    copied.insert(copied.end(), spill_.begin(), spill_.end());
  }
  return copied;
}

util::Result<CycleStats> ReservationService::CloseCycle() {
  const obs::Stopwatch close_watch;
  std::lock_guard cycle_lock(cycle_mutex_);

  CycleStats stats;
  stats.cycle = cycle_index_;
  stats.deferred_in = deferred_.size();

  // Drain, merge with the carried deferred set, and order canonically:
  // from here on nothing depends on which producer thread enqueued what.
  std::vector<StampedRequest> batch = DrainIntake();
  stats.drained = batch.size();
  obs::Append(config_.metrics, "svc.cycle.queue_depth",
              static_cast<double>(batch.size()));
  batch.insert(batch.end(), deferred_.begin(), deferred_.end());
  deferred_.clear();
  std::stable_sort(batch.begin(), batch.end(), DrainOrderLess);

  const obs::Stopwatch admit_watch;
  AdmissionSplit split =
      RunAdmissionEstimates(config_, *topology_, *catalog_, scheduler_,
                            previous_, committed_, std::move(batch));
  obs::Observe(config_.metrics, "svc.cycle.admit_seconds",
               admit_watch.Seconds());
  std::vector<StampedRequest>& admitted = split.admitted;
  std::vector<std::pair<StampedRequest, DeferCause>>& pushed_back =
      split.pushed_back;

  // Harvest the speculation, if any.  The reuse decision is made from
  // the spec batch alone (known synchronously), so a close never waits
  // on the worker unless the result is actually usable: an identical
  // batch reuses the whole solve, a small delta mines its phase-1 plans
  // via delta repair, and anything larger falls through to a full solve
  // while the stale job finishes (and is discarded) in the background.
  stats.speculation =
      config_.speculate ? SpeculationOutcome::kMiss : SpeculationOutcome::kOff;
  std::shared_ptr<SpecResult> spec;
  bool spec_full_hit = false;
  if (spec_.valid) {
    SpecJob job = std::move(spec_);
    spec_.valid = false;
    if (job.generation != spec_generation_) {
      obs::Add(config_.metrics, "svc.spec.stale");
    } else {
      const std::size_t common = CommonPrefixLength(job.admitted, admitted);
      const std::size_t delta =
          (admitted.size() - common) + (job.admitted.size() - common);
      obs::Append(config_.metrics, "svc.spec.delta_size",
                  static_cast<double>(delta));
      if (delta == 0 ||
          static_cast<double>(delta) <=
              config_.speculation_repair_fraction *
                  static_cast<double>(admitted.size())) {
        // Bounded wait under cycle_mutex_, by design: the worker solves
        // on private copies and takes no service locks, so the wait
        // cannot deadlock, and the delta gate above means the close only
        // ever waits for a result it will actually reuse.
        // vorlint: ok(CONC-3)
        std::shared_ptr<SpecResult> harvested = job.result.get();
        if (harvested != nullptr && harvested->out.ok()) {
          spec = std::move(harvested);
          spec_full_hit = delta == 0;
          if (!spec_full_hit) stats.speculation = SpeculationOutcome::kRepair;
        }
        // A failed background solve is just a miss: the close solves for
        // itself and surfaces any real error through its own attempt.
      } else {
        stats.speculation = SpeculationOutcome::kFallback;
        obs::Add(config_.metrics, "svc.spec.fallback_delta");
      }
    }
  }

  // Solve-validate-halve: commit only a schedule in which SORP resolved
  // every overflow and the independent validator agrees.  On failure the
  // newest arrivals are deferred and the cycle re-solved; the loop
  // terminates because the admitted set strictly shrinks (and the empty
  // set keeps the previous committed schedule, which was itself
  // validated when committed).
  const obs::Stopwatch solve_watch;
  double validate_seconds = 0.0;
  core::SolveOutput next;
  std::vector<workload::Request> merged;
  bool committed_new = false;
  while (!admitted.empty()) {
    if (stats.solve_attempts >= config_.max_admission_retries) {
      for (StampedRequest& s : admitted) {
        pushed_back.emplace_back(std::move(s), DeferCause::kInfeasible);
      }
      admitted.clear();
      break;
    }
    ++stats.solve_attempts;
    std::vector<workload::Request> plain;
    plain.reserve(admitted.size());
    for (const StampedRequest& s : admitted) plain.push_back(s.request);
    std::vector<workload::Request> attempt_merged;
    util::Result<core::SolveOutput> out = util::Internal("not attempted");
    const bool attempt_used_spec = spec_full_hit;
    if (spec_full_hit) {
      // The speculative solve IS this attempt: same pure function
      // (IncrementalSolve) of the same (previous, committed, admitted)
      // inputs, computed ahead of time.  Feasibility is still judged
      // below exactly as if it had been solved here.
      spec_full_hit = false;  // only valid for the full admitted set
      out = std::move(spec->out);
      attempt_merged = std::move(spec->merged);
    } else {
      core::IncrementalStats inc_stats;
      out = core::IncrementalSolve(scheduler_, previous_, committed_, plain,
                                   &attempt_merged, &inc_stats,
                                   spec ? &spec->solution : nullptr, nullptr);
      stats.spec_reused_files += inc_stats.files_reused_from_base;
    }
    if (!out.ok()) {
      // Solver errors are environment-level (validated requests should
      // never trigger them); re-defer the batch so nothing is lost and
      // surface the error.
      for (StampedRequest& s : admitted) {
        deferred_.push_back(std::move(s));
      }
      for (auto& [s, cause] : pushed_back) {
        (void)cause;
        deferred_.push_back(std::move(s));
      }
      std::stable_sort(deferred_.begin(), deferred_.end(), DrainOrderLess);
      obs::Add(config_.metrics, "svc.cycle.solve_errors");
      return out.error();
    }
    bool feasible = out->sorp.Resolved();
    if (feasible && config_.admission_control) {
      const obs::Stopwatch validate_watch;
      feasible = sim::ValidateSchedule(out->schedule, attempt_merged,
                                       scheduler_.cost_model())
                     .ok();
      validate_seconds += validate_watch.Seconds();
    }
    if (feasible || !config_.admission_control) {
      if (attempt_used_spec) stats.speculation = SpeculationOutcome::kHit;
      next = std::move(*out);
      merged = std::move(attempt_merged);
      committed_new = true;
      break;
    }
    if (attempt_used_spec) {
      // The speculative result failed the validator or left residual
      // overflow: abandon it and fall back to the ordinary halving loop,
      // which solves every further attempt from scratch — exactly the
      // non-speculative control flow from here on.
      stats.speculation = SpeculationOutcome::kFallback;
      obs::Add(config_.metrics, "svc.spec.fallback_invalid");
      spec.reset();
    }
    // Defer the newer half (drain order puts the oldest first).
    const std::size_t keep = admitted.size() / 2;
    for (std::size_t i = admitted.size(); i > keep; --i) {
      pushed_back.emplace_back(std::move(admitted[i - 1]),
                               DeferCause::kInfeasible);
    }
    admitted.resize(keep);
  }
  stats.solve_seconds = solve_watch.Seconds();

  if (committed_new) {
    stats.admitted = admitted.size();
    committed_ = std::move(merged);
    previous_ = std::move(next);
    obs::Add(config_.metrics, "svc.admit.committed", stats.admitted);
  }

  // Push-back bookkeeping: bump deferral counts, expire the hopeless,
  // respect the deferred-set bound.  Expiry (the request itself ran out
  // of max_deferrals chances) and deferred-set overflow (the backlog is
  // full — nothing wrong with the request) are distinct drop causes and
  // are accounted separately.
  for (auto& [s, cause] : pushed_back) {
    obs::Add(config_.metrics, CounterName(cause));
    if (s.deferrals >= config_.max_deferrals) {
      ++stats.rejected_expired;
      obs::Add(config_.metrics, "svc.admit.rejected_expired");
      continue;
    }
    if (deferred_.size() >= config_.deferred_capacity) {
      ++stats.rejected_deferred_full;
      obs::Add(config_.metrics, "svc.admit.rejected_deferred_full");
      continue;
    }
    ++s.deferrals;
    deferred_.push_back(std::move(s));
  }
  std::stable_sort(deferred_.begin(), deferred_.end(), DrainOrderLess);
  stats.deferred_out = deferred_.size();

  ++cycle_index_;
  // The committed state (and the deferred set) changed shape: any
  // speculation that predates this close can no longer repair it.
  ++spec_generation_;
  stats.final_cost = previous_.final_cost.value();
  stats.committed_total = committed_.size();
  stats.close_seconds = close_watch.Seconds();
  obs::Add(config_.metrics, "svc.cycle.closed");
  obs::Observe(config_.metrics, "svc.cycle.close_seconds",
               stats.close_seconds);
  obs::Observe(config_.metrics, "svc.cycle.solve_seconds",
               stats.solve_seconds);
  obs::Observe(config_.metrics, "svc.cycle.validate_seconds",
               validate_seconds);
  switch (stats.speculation) {
    case SpeculationOutcome::kOff:
      break;
    case SpeculationOutcome::kMiss:
      obs::Add(config_.metrics, "svc.spec.misses");
      break;
    case SpeculationOutcome::kHit:
      obs::Add(config_.metrics, "svc.spec.hits");
      break;
    case SpeculationOutcome::kRepair:
      obs::Add(config_.metrics, "svc.spec.repairs");
      break;
    case SpeculationOutcome::kFallback:
      obs::Add(config_.metrics, "svc.spec.fallbacks");
      break;
  }
  if (stats.spec_reused_files > 0) {
    obs::Add(config_.metrics, "svc.spec.repair_files_reused",
             stats.spec_reused_files);
  }
  history_.push_back(stats);
  return stats;
}

bool ReservationService::Speculate() {
  if (!config_.speculate) return false;

  // Everything the worker needs, captured by value/shared_ptr; the job
  // itself is handed to the pool *after* the cycle lock is released —
  // ThreadPool::Submit blocks on the pool's queue mutex, and handing off
  // work while holding cycle_mutex_ is exactly the hold-and-wait pattern
  // CONC-3 forbids.  The promise is published (spec_.valid) under the
  // lock first, so a close that races ahead of the Submit below simply
  // blocks in job.result.get() until the worker fulfils it.
  std::shared_ptr<const core::SolveOutput> prev;
  std::shared_ptr<const std::vector<workload::Request>> committed;
  auto plain = std::make_shared<std::vector<workload::Request>>();
  auto done =
      std::make_shared<std::promise<std::shared_ptr<SpecResult>>>();
  util::ThreadPool* pool = nullptr;
  const core::VorScheduler* scheduler = nullptr;
  {
    std::lock_guard cycle_lock(cycle_mutex_);
    if (spec_.valid) return false;

    // Non-destructive snapshot of the would-be close batch, through the
    // same canonical order and admission estimates the close will use.
    std::vector<StampedRequest> batch = PeekIntake();
    batch.insert(batch.end(), deferred_.begin(), deferred_.end());
    std::stable_sort(batch.begin(), batch.end(), DrainOrderLess);
    AdmissionSplit split =
        RunAdmissionEstimates(config_, *topology_, *catalog_, scheduler_,
                              previous_, committed_, std::move(batch));
    if (split.admitted.empty()) return false;

    // The worker operates on copies only; the shared_ptrs keep them
    // alive even if the job outlives its usefulness and is discarded
    // unharvested.
    prev = std::make_shared<const core::SolveOutput>(previous_);
    committed = std::make_shared<const std::vector<workload::Request>>(
        committed_);
    plain->reserve(split.admitted.size());
    for (const StampedRequest& s : split.admitted) {
      plain->push_back(s.request);
    }

    if (spec_pool_ == nullptr) {
      spec_scheduler_ = std::make_unique<core::VorScheduler>(
          *topology_, *catalog_, scheduler_.options());
      spec_pool_ = std::make_unique<util::ThreadPool>(1);
    }
    pool = spec_pool_.get();
    scheduler = spec_scheduler_.get();
    spec_.generation = spec_generation_;
    spec_.admitted = std::move(split.admitted);
    spec_.result = done->get_future().share();
    spec_.valid = true;
    obs::Add(config_.metrics, "svc.spec.started");
  }

  try {
    (void)pool->Submit([scheduler, prev, committed, plain, done] {
      auto result = std::make_shared<SpecResult>();
      try {
        result->out = core::IncrementalSolve(
            *scheduler, *prev, *committed, *plain, &result->merged,
            &result->stats, nullptr, &result->solution);
      } catch (...) {
        // A throwing solve must still fulfil the promise, or a close
        // that chose to harvest this job would wait forever.
        result = nullptr;
      }
      done->set_value(std::move(result));
    });
  } catch (...) {
    // Pool already shut down (service tearing down): fulfil the promise
    // so any concurrent harvest sees a plain miss.
    done->set_value(nullptr);
  }
  return true;
}

bool ReservationService::SpeculationPending() const {
  std::lock_guard lock(cycle_mutex_);
  return spec_.valid;
}

void ReservationService::WaitForSpeculation() const {
  std::shared_future<std::shared_ptr<SpecResult>> pending;
  {
    std::lock_guard lock(cycle_mutex_);
    if (!spec_.valid) return;
    pending = spec_.result;
  }
  pending.wait();
}

void ReservationService::Start() {
  std::lock_guard lock(clock_mutex_);
  if (clock_thread_.joinable()) return;
  clock_stop_ = false;
  clock_thread_ = std::thread([this] {
    std::unique_lock lock(clock_mutex_);
    const auto period = std::chrono::duration<double>(
        std::max(1e-3, config_.cycle_period_seconds));
    // With speculation on, the period splits in half: the midpoint kicks
    // off the background solve over the batch so far, and the close at
    // the period boundary repairs in whatever arrived since.
    const auto half = period / 2;
    while (true) {
      if (config_.speculate) {
        if (clock_cv_.wait_for(lock, half, [this] { return clock_stop_; })) {
          break;
        }
        // The clock mutex must be released across service entry points:
        // they take cycle_mutex_, and Stop() takes clock_mutex_ while a
        // producer may hold cycle_mutex_ — holding both here would close
        // that deadlock cycle.  wait_for needs the lock held again on
        // re-entry, so this window cannot be an RAII scope.
        lock.unlock();  // vorlint: ok(CONC-1)
        (void)Speculate();
        lock.lock();  // vorlint: ok(CONC-1)
      }
      if (clock_cv_.wait_for(lock, config_.speculate ? half : period,
                             [this] { return clock_stop_; })) {
        break;
      }
      lock.unlock();  // vorlint: ok(CONC-1)
      (void)CloseCycle();
      obs::Add(config_.metrics, "svc.cycle.clock_ticks");
      lock.lock();  // vorlint: ok(CONC-1)
    }
  });
}

void ReservationService::Stop() {
  std::thread joinee;
  {
    std::lock_guard lock(clock_mutex_);
    clock_stop_ = true;
    joinee = std::move(clock_thread_);
  }
  clock_cv_.notify_all();
  if (joinee.joinable()) joinee.join();
}

core::Schedule ReservationService::CommittedSchedule() const {
  std::lock_guard lock(cycle_mutex_);
  return previous_.schedule;
}

std::vector<double> ReservationService::CommittedPeakUsage() const {
  std::lock_guard lock(cycle_mutex_);
  return previous_.sorp.node_peaks;
}

std::vector<workload::Request> ReservationService::CommittedRequests() const {
  std::lock_guard lock(cycle_mutex_);
  return committed_;
}

std::uint64_t ReservationService::cycle_index() const {
  std::lock_guard lock(cycle_mutex_);
  return cycle_index_;
}

std::size_t ReservationService::PendingCount() const {
  std::size_t n = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    n += shard->queue.size();
  }
  std::lock_guard lock(spill_mutex_);
  return n + spill_.size();
}

std::size_t ReservationService::DeferredCount() const {
  std::lock_guard lock(cycle_mutex_);
  return deferred_.size();
}

std::vector<CycleStats> ReservationService::History() const {
  std::lock_guard lock(cycle_mutex_);
  return history_;
}

ServiceSnapshot ReservationService::Snapshot() const {
  std::lock_guard cycle_lock(cycle_mutex_);
  ServiceSnapshot snapshot;
  snapshot.cycle_index = cycle_index_;
  snapshot.committed = committed_;
  snapshot.schedule = previous_.schedule;
  snapshot.deferred = deferred_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    snapshot.pending.insert(snapshot.pending.end(), shard->queue.begin(),
                            shard->queue.end());
  }
  {
    std::lock_guard lock(spill_mutex_);
    snapshot.pending.insert(snapshot.pending.end(), spill_.begin(),
                            spill_.end());
  }
  std::stable_sort(snapshot.pending.begin(), snapshot.pending.end(),
                   DrainOrderLess);
  return snapshot;
}

util::Status ReservationService::Restore(const ServiceSnapshot& snapshot) {
  for (const workload::Request& r : snapshot.committed) {
    if (const util::Status s = ValidateRequest(r); !s.ok()) return s.error();
  }
  for (const auto* stamped : {&snapshot.deferred, &snapshot.pending}) {
    for (const StampedRequest& s : *stamped) {
      if (const util::Status st = ValidateRequest(s.request); !st.ok()) {
        return st.error();
      }
      if (!ValidArrival(s.arrival)) {
        return util::InvalidArgument("arrival is negative or not finite");
      }
    }
  }
  // The committed schedule must itself be a legal plan for the committed
  // requests — a snapshot from a different scenario (or a corrupted one)
  // fails here instead of poisoning future cycles.
  const sim::ValidationReport report = sim::ValidateSchedule(
      snapshot.schedule, snapshot.committed, scheduler_.cost_model());
  if (!report.ok()) {
    return util::InvalidArgument(
        "snapshot schedule fails validation: " +
        sim::ToString(report.violations.front().kind) + ": " +
        report.violations.front().detail);
  }
  // The next close extends the per-video request index of the committed
  // list, which the last solve over it built and a snapshot does not
  // carry: build it once here.  Every solve leaves one file per group, in
  // group order.
  std::vector<core::VideoGroup> index = core::IndexByVideo(snapshot.committed);
  bool indexed = index.size() == snapshot.schedule.files.size();
  for (std::size_t i = 0; indexed && i < index.size(); ++i) {
    indexed = index[i].video == snapshot.schedule.files[i].video;
  }
  if (!indexed) {
    return util::InvalidArgument(
        "snapshot schedule does not hold one file per committed video in "
        "ascending video order");
  }
  // Admission reads the committed peaks off the last SORP run; a restored
  // schedule had none, so build them once here.
  std::vector<double> peaks = storage::PeakUsageByNode(
      storage::BuildUsage(snapshot.schedule, scheduler_.cost_model()),
      topology_->node_count());

  std::lock_guard cycle_lock(cycle_mutex_);
  // Any in-flight speculation targets the pre-restore state; invalidate
  // it (the worker's copies keep it memory-safe until it finishes).
  spec_.valid = false;
  ++spec_generation_;
  cycle_index_ = snapshot.cycle_index;
  committed_ = snapshot.committed;
  previous_ = core::SolveOutput{};
  previous_.schedule = snapshot.schedule;
  previous_.video_groups = std::move(index);
  previous_.final_cost = scheduler_.cost_model().TotalCost(snapshot.schedule);
  previous_.sorp.node_peaks = std::move(peaks);
  deferred_ = snapshot.deferred;
  std::stable_sort(deferred_.begin(), deferred_.end(), DrainOrderLess);
  history_.clear();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->queue.clear();
    shard->enqueued.clear();
  }
  {
    std::lock_guard lock(spill_mutex_);
    spill_.clear();
    spill_enqueued_.clear();
  }
  // Pending intake re-enters through the shards so the next close drains
  // it exactly like live traffic.  Queue-wait stamps restart at the
  // restore (the original wait is not serialized).
  const double now = IntakeNow();
  for (const StampedRequest& s : snapshot.pending) {
    Shard& shard = *shards_[s.request.user % shards_.size()];
    std::lock_guard lock(shard.mutex);
    shard.queue.push_back(s);
    shard.enqueued.push_back(now);
  }
  obs::Add(config_.metrics, "svc.restores");
  return util::Status::Ok();
}

}  // namespace vor::svc
