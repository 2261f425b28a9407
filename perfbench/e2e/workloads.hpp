// The benchmark's three traffic mixes and the deployment each replay runs
// against.
//
// A workload is an environment (topology + catalog, fixed across seeds:
// it is the provider's deployment) plus a reservation trace drawn from
// the run's seed, cut into virtual-time windows.  A Deployment is one
// fresh in-process service behind a vor-rpc/1 loopback server, built from
// scratch by Deploy() — that build is what setup_s times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "rpc/server.hpp"
#include "svc/reservation_service.hpp"
#include "workload/request.hpp"
#include "workload/scenario.hpp"

#include "e2e/ledger.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Deployment environment (topology, catalog, rates, IS size).
  vor::workload::ScenarioParams environment;
  /// Trace source: the streamed million-user generator (scale_users > 0;
  /// region affinity 1.0, diurnal depth 0.6) or the paper's
  /// per-neighborhood generator with its evening-peak start times
  /// (paper_users_per_neighborhood > 0).  Exactly one is set.
  std::size_t scale_users = 0;
  std::size_t paper_users_per_neighborhood = 0;
  /// Virtual-time window between cycle closes.
  double window_seconds = 0.0;
};

/// Looks a workload up by name; `smoke` shrinks the trace for the
/// benchmark's own tests while keeping the environment.
[[nodiscard]] std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                                       bool smoke);
[[nodiscard]] std::vector<std::string> WorkloadNames();

/// Distinct traces each run replays, their seeds derived from the run's
/// seed, so seed-to-seed differences in the work itself average out.
inline constexpr std::size_t kTracesPerRun = 3;
/// Seed of the run's `index`-th trace; index 0 is the run's own seed.
[[nodiscard]] std::uint64_t TraceSeed(std::uint64_t seed, std::size_t index);

/// Solver worker threads: the deployment setting the benchmark fixes
/// (nproc of the 4-vCPU reference machine).  Nothing else in ServiceConfig is touched.
inline constexpr std::size_t kSolverThreads = 4;
/// Closed-loop load: connections, each waiting for its ack.
inline constexpr std::size_t kConnections = 4;

/// One replay target, built from nothing.  Member order is destruction
/// order in reverse: the server stops before the service it fronts, and
/// both before the environment they reference.
struct Deployment {
  vor::workload::Scenario environment;
  std::unique_ptr<vor::net::Router> router;
  std::unique_ptr<vor::core::CostModel> cost_model;
  /// The generated trace in canonical replay order, and its vor-bin bytes
  /// (what the load client streams).
  std::vector<vor::workload::Request> trace;
  std::string trace_bytes;
  std::unique_ptr<vor::obs::MetricsRegistry> registry;
  std::unique_ptr<vor::svc::ReservationService> service;
  std::unique_ptr<vor::rpc::Server> server;
};

/// The service configuration every replay uses: defaults plus the
/// deployment settings (solver threads; metrics sink when traced).
[[nodiscard]] vor::svc::ServiceConfig DeploymentConfig(
    vor::obs::MetricsRegistry* metrics);

/// Builds environment, router, trace and a listening server, and probes
/// it with one connection.  `traced` hands a fresh MetricsRegistry to the
/// service and server.  Spans are recorded into `spans`.
[[nodiscard]] vor::util::Result<std::unique_ptr<Deployment>> Deploy(
    const WorkloadSpec& spec, std::uint64_t seed, bool traced,
    SpanLog& spans);

/// Request count of each virtual-time window, computed the way
/// rpc::RunLoad windows a trace (anchored at the first request; empty
/// windows included).
[[nodiscard]] std::vector<std::size_t> WindowSizes(
    const std::vector<vor::workload::Request>& trace, double window_seconds);

}  // namespace perfbench
