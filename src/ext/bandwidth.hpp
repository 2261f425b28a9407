// Bandwidth-constrained scheduling — the paper's stated future work
// ("resolve the bandwidth constraints of the intermediate storages and
// communication network", Sec. 6), implemented as an extension layer on
// the two-phase scheduler.
//
// Links may carry a bandwidth capacity (Topology::AddLink's
// bandwidth_cap) and storages a serving-I/O cap; storage::StreamLoadTracker
// aggregates the stream load on both.  The scheduler:
//   * filters greedy candidates whose route would overload a capped
//     resource (phase 1 and, through SorpOptions::streams, every rejective
//     reschedule), and
//   * reports residual overloads — a request whose every serving option
//     is saturated is still served (reservations are honoured) via the
//     warehouse route, and that violation is accounted.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/scheduler.hpp"
#include "core/schedule.hpp"
#include "core/sorp.hpp"
#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"
#include "workload/request.hpp"

namespace vor::ext {

struct BandwidthSolveOutput {
  core::Schedule schedule;
  util::Money phase1_cost{0.0};
  util::Money final_cost{0.0};
  core::SorpStats sorp;
  /// Residual bandwidth state after scheduling.
  std::size_t overloaded_links = 0;
  std::size_t overloaded_nodes = 0;
  double worst_utilization = 0.0;
  /// Requests whose every feasible option was saturated and were forced
  /// through anyway.
  std::size_t forced_requests = 0;
};

/// Two-phase scheduler with link-bandwidth admission.  Links with
/// bandwidth_cap <= 0 are uncapacitated (the base paper's model); with no
/// capacitated links this reduces exactly to core::VorScheduler.  Phase 1
/// is serial (each file sees the streams placed before it); SORP's dry
/// runs fan out over a pool of `options.parallel` threads, built once
/// with the scheduler, and the output is identical at any thread count.
class BandwidthAwareScheduler {
 public:
  BandwidthAwareScheduler(const net::Topology& topology,
                          const media::Catalog& catalog,
                          core::SchedulerOptions options = {});

  [[nodiscard]] util::Result<BandwidthSolveOutput> Solve(
      const std::vector<workload::Request>& requests) const;

  [[nodiscard]] const core::CostModel& cost_model() const {
    return cost_model_;
  }
  /// SORP's pool (see core::VorScheduler::pool); null when serial.
  [[nodiscard]] util::ThreadPool* pool() const { return pool_.get(); }

 private:
  const net::Topology* topology_;
  const media::Catalog* catalog_;
  core::SchedulerOptions options_;
  net::Router router_;
  core::CostModel cost_model_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace vor::ext
