#include "e2e/workloads.hpp"

#include <utility>

#include "io/binary.hpp"
#include "rpc/client.hpp"
#include "workload/generator.hpp"
#include "workload/scale.hpp"
#include "workload/trace.hpp"

namespace perfbench {

namespace {

using namespace vor;

/// The 48-IS, 16-hub, 2000-title provider of the ROADMAP's million-user
/// shape; only the IS size differs between the two workloads using it.
workload::ScenarioParams RegionEnvironment(double is_capacity_gb) {
  workload::ScenarioParams env;
  env.storage_count = 48;
  env.hub_count = 16;
  env.catalog_size = 2000;
  env.is_capacity = util::GB(is_capacity_gb);
  env.nrate_per_gb = 1000.0;
  env.srate_per_gb_hour = 3.0;
  env.users_per_neighborhood = 0;  // the trace comes from the run's seed
  return env;
}

/// The paper's Table-4 environment: 19 IS, 500 titles, Zipf 0.271, 5 GB.
workload::ScenarioParams PaperEnvironment() {
  workload::ScenarioParams env;
  env.storage_count = 19;
  env.catalog_size = 500;
  env.zipf_alpha = 0.271;
  env.is_capacity = util::GB(5.0);
  env.nrate_per_gb = 1000.0;
  env.srate_per_gb_hour = 3.0;
  env.users_per_neighborhood = 0;
  return env;
}

std::vector<WorkloadSpec> AllWorkloads(bool smoke) {
  WorkloadSpec region_day;
  region_day.name = "region_day";
  region_day.environment = RegionEnvironment(400.0);
  region_day.scale_users = smoke ? 3000 : 60000;
  region_day.window_seconds = 864.0;

  WorkloadSpec intake_flood;
  intake_flood.name = "intake_flood";
  intake_flood.environment = RegionEnvironment(20000.0);
  intake_flood.scale_users = smoke ? 20000 : 250000;
  intake_flood.window_seconds = 3600.0;

  WorkloadSpec saturated_paper;
  saturated_paper.name = "saturated_paper";
  saturated_paper.environment = PaperEnvironment();
  saturated_paper.paper_users_per_neighborhood = smoke ? 20 : 120;
  saturated_paper.window_seconds = 864.0;

  return {region_day, intake_flood, saturated_paper};
}

std::vector<workload::Request> GenerateTrace(const WorkloadSpec& spec,
                                             const workload::Scenario& env,
                                             std::uint64_t seed) {
  std::vector<workload::Request> trace;
  if (spec.scale_users > 0) {
    workload::ScaleParams params;
    params.users = spec.scale_users;
    params.zipf_alpha = spec.environment.zipf_alpha;
    params.region_affinity = 1.0;
    params.diurnal_depth = 0.6;
    params.seed = seed;
    trace.reserve(spec.scale_users);
    (void)workload::GenerateScaleTrace(
        env.topology, env.catalog, params,
        [&trace](const workload::Request* batch, std::size_t n) {
          trace.insert(trace.end(), batch, batch + n);
        });
  } else {
    workload::WorkloadParams params;
    params.users_per_neighborhood = spec.paper_users_per_neighborhood;
    params.zipf_alpha = spec.environment.zipf_alpha;
    params.profile = workload::StartTimeProfile::kEveningPeak;
    params.seed = seed;
    trace = workload::GenerateRequests(env.topology, env.catalog, params);
    workload::SortForReplay(trace);
  }
  return trace;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool smoke) {
  for (WorkloadSpec& spec : AllWorkloads(smoke)) {
    if (spec.name == name) return std::move(spec);
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : AllWorkloads(false)) {
    names.push_back(spec.name);
  }
  return names;
}

std::uint64_t TraceSeed(std::uint64_t seed, std::size_t index) {
  return seed ^ (static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ULL);
}

svc::ServiceConfig DeploymentConfig(obs::MetricsRegistry* metrics) {
  svc::ServiceConfig config;
  config.scheduler.parallel.threads = kSolverThreads;
  config.metrics = metrics;
  return config;
}

util::Result<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 bool traced, SpanLog& spans) {
  auto dep = std::make_unique<Deployment>();
  {
    const SpanLog::Scope span(spans, "setup.environment");
    dep->environment = workload::MakeScenario(spec.environment);
    dep->router = std::make_unique<net::Router>(dep->environment.topology);
    dep->cost_model = std::make_unique<core::CostModel>(
        dep->environment.topology, *dep->router, dep->environment.catalog);
  }
  {
    const SpanLog::Scope span(spans, "workload.generate");
    dep->trace = GenerateTrace(spec, dep->environment, seed);
  }
  if (dep->trace.empty()) return util::Internal("workload generated no requests");
  {
    const SpanLog::Scope span(spans, "io.trace_encode");
    dep->trace_bytes = io::TraceToBinary(dep->trace);
  }
  if (traced) dep->registry = std::make_unique<obs::MetricsRegistry>();
  {
    const SpanLog::Scope span(spans, "svc.construct");
    dep->service = std::make_unique<svc::ReservationService>(
        dep->environment.topology, dep->environment.catalog,
        DeploymentConfig(dep->registry.get()));
  }
  {
    const SpanLog::Scope span(spans, "rpc.server_start");
    rpc::ServerConfig config;
    config.listen = rpc::Endpoint{"127.0.0.1", 0};
    config.metrics = dep->registry.get();
    dep->server = std::make_unique<rpc::Server>(*dep->service, config);
    if (auto status = dep->server->Start(); !status.ok()) return status.error();
  }
  {
    // One probe round trip proves the server answers before the replay.
    const SpanLog::Scope span(spans, "rpc.connect");
    rpc::ClientConfig config;
    config.endpoints = {rpc::Endpoint{"127.0.0.1", dep->server->port()}};
    rpc::Client probe(config);
    if (auto status = probe.Connect(); !status.ok()) return status.error();
    if (auto info = probe.Status(); !info.ok()) return info.error();
  }
  return dep;
}

std::vector<std::size_t> WindowSizes(
    const std::vector<workload::Request>& trace, double window_seconds) {
  std::vector<std::size_t> sizes;
  if (trace.empty()) return sizes;
  const double t0 = trace.front().start_time.value();
  sizes.push_back(0);
  for (const workload::Request& r : trace) {
    while (r.start_time.value() >=
           t0 + static_cast<double>(sizes.size()) * window_seconds) {
      sizes.push_back(0);
    }
    ++sizes.back();
  }
  return sizes;
}

}  // namespace perfbench
