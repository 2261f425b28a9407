#include "core/scheduler.hpp"

#include <memory>

#include "core/ivsp.hpp"
#include "obs/metrics.hpp"

namespace vor::core {

VorScheduler::VorScheduler(const net::Topology& topology,
                           const media::Catalog& catalog,
                           SchedulerOptions options)
    : topology_(&topology),
      catalog_(&catalog),
      options_(options),
      router_(topology),
      cost_model_(topology, router_, catalog, options.pricing),
      pool_(options.parallel.Resolve() > 1
                ? std::make_unique<util::ThreadPool>(options.parallel.Resolve())
                : nullptr) {}

util::Result<SolveOutput> VorScheduler::Solve(
    const std::vector<workload::Request>& requests) const {
  if (const util::Status s = topology_->Validate(); !s.ok()) return s.error();
  if (const util::Status s = catalog_->Validate(); !s.ok()) return s.error();
  for (const workload::Request& r : requests) {
    if (!catalog_->Contains(r.video)) {
      return util::NotFound("request for unknown video id " +
                            std::to_string(r.video));
    }
    if (!topology_->IsStorage(r.neighborhood)) {
      return util::InvalidArgument(
          "request neighborhood is not an intermediate storage node");
    }
  }

  SolveOutput out;
  obs::MetricsRegistry* metrics = options_.metrics;
  const obs::ScopedSpan solve_span(metrics, "solve");
  obs::Add(metrics, "solve.requests", requests.size());
  // One pool serves both phases: phase 1's per-file greedies and each
  // SORP round's tentative victim evaluations.
  out.schedule = IvspSolve(requests, cost_model_, options_.sorp.ivsp,
                           pool_.get(), metrics, &out.video_groups);

  SorpOptions sorp_options = options_.sorp;
  sorp_options.pool = pool_.get();
  sorp_options.metrics = metrics;
  out.sorp = SorpSolve(out.schedule, requests, cost_model_, sorp_options);
  // SORP priced the integrated phase-1 schedule before resolving it.
  out.phase1_cost = out.sorp.cost_before;
  out.final_cost = out.sorp.cost_after;
  return out;
}

}  // namespace vor::core
