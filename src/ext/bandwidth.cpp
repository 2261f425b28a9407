#include "ext/bandwidth.hpp"

#include <memory>

#include "core/ivsp.hpp"
#include "obs/metrics.hpp"
#include "storage/stream_load.hpp"
#include "workload/generator.hpp"

namespace vor::ext {

BandwidthAwareScheduler::BandwidthAwareScheduler(
    const net::Topology& topology, const media::Catalog& catalog,
    core::SchedulerOptions options)
    : topology_(&topology),
      catalog_(&catalog),
      options_(options),
      router_(topology),
      cost_model_(topology, router_, catalog, options.pricing),
      pool_(options.parallel.Resolve() > 1
                ? std::make_unique<util::ThreadPool>(options.parallel.Resolve())
                : nullptr) {}

util::Result<BandwidthSolveOutput> BandwidthAwareScheduler::Solve(
    const std::vector<workload::Request>& requests) const {
  if (const util::Status s = topology_->Validate(); !s.ok()) return s.error();
  if (const util::Status s = catalog_->Validate(); !s.ok()) return s.error();

  storage::StreamLoadTracker tracker(*topology_, *catalog_);
  BandwidthSolveOutput out;
  obs::MetricsRegistry* metrics = options_.metrics;
  const obs::ScopedSpan solve_span(metrics, "solve");

  // ---- Phase 1: bandwidth-aware individual video scheduling ----------
  // Serial: every file's greedy sees the streams the earlier files (and
  // its own earlier requests) already placed.
  const auto groups = workload::GroupByVideo(requests);
  out.schedule.files.reserve(groups.size());
  {
    const obs::ScopedSpan ivsp_span(metrics, "ivsp");
    const storage::StreamView placed(&tracker);
    core::ConstraintSet constraints;
    constraints.streams = &placed;
    constraints.record_streams = &tracker;
    core::GreedyStats phase1_greedy;
    for (const auto& [video, indices] : groups) {
      core::GreedyStats file_stats;
      core::FileSchedule file = core::ScheduleFileGreedy(
          video, requests, indices, cost_model_, options_.sorp.ivsp,
          &constraints, metrics != nullptr ? &file_stats : nullptr);
      phase1_greedy += file_stats;
      out.schedule.files.push_back(std::move(file));
    }
    if (metrics != nullptr) {
      obs::Add(metrics, "ivsp.files", groups.size());
      obs::Add(metrics, "ivsp.requests", phase1_greedy.requests);
      obs::Add(metrics, "ivsp.decision.direct", phase1_greedy.direct);
      obs::Add(metrics, "ivsp.decision.extend", phase1_greedy.extend);
      obs::Add(metrics, "ivsp.decision.new_cache", phase1_greedy.new_cache);
      obs::Add(metrics, "ivsp.candidates_evaluated", phase1_greedy.candidates);
      obs::Add(metrics, "ivsp.forced_direct", phase1_greedy.forced_direct);
      obs::Add(metrics, "ivsp.reject.route", phase1_greedy.rejected_route);
    }
  }
  // ---- Phase 2: storage overflow resolution with bandwidth admission --
  // The tracker holds phase 1's streams; SORP checks every reschedule
  // against it and applies every commit to it.  Its dry runs fan out over
  // the pool like the plain scheduler's.
  core::SorpOptions sorp = options_.sorp;
  sorp.pool = pool_.get();
  sorp.streams = &tracker;
  sorp.metrics = metrics;
  out.sorp = core::SorpSolve(out.schedule, requests, cost_model_, sorp);
  out.phase1_cost = out.sorp.cost_before;
  out.final_cost = out.sorp.cost_after;

  // ---- residual bandwidth report --------------------------------------
  // Replay the final schedule into a fresh tracker: a delivery whose route
  // already violates a cap when it is added was admitted by the forced
  // fallback; the finished replay is the authoritative load accounting.
  storage::StreamLoadTracker replay(*topology_, *catalog_);
  const storage::StreamView replayed(&replay);
  for (const core::FileSchedule& file : out.schedule.files) {
    for (const core::Delivery& d : file.deliveries) {
      if (!replayed.RouteFeasible(d.route, d.start, d.video)) {
        ++out.forced_requests;
      }
      replay.AddDelivery(d);
    }
  }
  out.overloaded_links = replay.OverloadedLinks();
  out.overloaded_nodes = replay.OverloadedNodes();
  out.worst_utilization = replay.WorstUtilization();
  return out;
}

}  // namespace vor::ext
