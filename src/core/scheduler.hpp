// VorScheduler: the two-phase Video Scheduler of Sec. 3.1.
//
//   Phase 1 — Individual Video Scheduling: minimum-cost greedy schedule
//   per file, capacity ignored (IVSP-solve, Table 2).
//   Phase 2 — Integration + Storage Overflow Resolution: the per-file
//   schedules are integrated, overflows detected, and victims rescheduled
//   by heat until the schedule fits every intermediate storage
//   (SORP-solve, Table 3).
#pragma once

#include <memory>
#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "core/sorp.hpp"
#include "media/catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"
#include "workload/request.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::core {

struct SchedulerOptions {
  PricingOptions pricing;
  /// Phase-2 knobs (heat metric, victim policy, iteration budget, region
  /// sharding...); phase 1 reads `sorp.ivsp`.  Solve copies it and sets
  /// `pool` and `metrics` itself.
  SorpOptions sorp;
  /// Worker threads shared by both phases: phase 1's per-file greedies
  /// and each SORP round's tentative victim evaluations (or, with region
  /// sharding, its shards) fan out over one pool (1 = serial, 0 =
  /// hardware concurrency, N = pool of N).  The commit step stays serial
  /// and the victim reduction is deterministic, so the solved schedule is
  /// byte-identical at any thread count.  The scheduler builds the pool
  /// once and every solve over it (IncrementalSolve too) borrows it.
  util::ParallelOptions parallel{};
  /// Optional caller-owned metrics sink (src/obs).  When set, Solve
  /// records the span hierarchy ("solve" -> "solve/ivsp" / "solve/sorp" /
  /// "solve/sorp/round"), per-phase counters (greedy decision mix,
  /// candidates, rejections, victims), the SORP excess trajectory, and
  /// thread-pool telemetry.  Never alters the schedule; counter and
  /// series values are identical at any thread count.  nullptr (the
  /// default) disables all instrumentation at the cost of one pointer
  /// test per site.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SolveOutput {
  Schedule schedule;
  /// Per-video request index of the solved request list: entry i is the
  /// group of schedule.files[i], in ascending video id — exactly
  /// IndexByVideo of that list.  IncrementalSolve extends it with the late
  /// requests instead of regrouping the whole list.
  std::vector<VideoGroup> video_groups;
  /// Psi of the integrated phase-1 schedule (may be infeasible).
  util::Money phase1_cost{0.0};
  /// Psi of the final overflow-free schedule.
  util::Money final_cost{0.0};
  SorpStats sorp;
};

class VorScheduler {
 public:
  /// The topology must Validate(); the catalog must Validate().  Both,
  /// plus the router built here, are referenced for the scheduler's
  /// lifetime.
  VorScheduler(const net::Topology& topology, const media::Catalog& catalog,
               SchedulerOptions options = {});

  /// Computes a complete service schedule for one cycle of reservations.
  /// Requests must reference catalog videos and storage-node
  /// neighborhoods.
  [[nodiscard]] util::Result<SolveOutput> Solve(
      const std::vector<workload::Request>& requests) const;

  [[nodiscard]] const CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] const net::Router& router() const { return router_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }
  /// The pool of `options().parallel` workers every solve over this
  /// scheduler fans out over; null when that resolves to one thread.
  [[nodiscard]] util::ThreadPool* pool() const { return pool_.get(); }

 private:
  const net::Topology* topology_;
  const media::Catalog* catalog_;
  SchedulerOptions options_;
  net::Router router_;
  CostModel cost_model_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace vor::core
