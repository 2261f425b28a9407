#include "core/shootout.hpp"

#include <algorithm>

namespace vor::core {

namespace {

double SolveWithMetric(const workload::Scenario& scenario, HeatMetric metric,
                       bool* overflowed, double* phase1) {
  SchedulerOptions options;
  options.sorp.heat = metric;
  const VorScheduler scheduler(scenario.topology, scenario.catalog, options);
  const auto result = scheduler.Solve(scenario.requests);
  // Scenario construction is validated upstream; a failure here is a bug.
  if (!result.ok()) std::abort();
  if (overflowed != nullptr) *overflowed = result->sorp.HadOverflow();
  if (phase1 != nullptr) *phase1 = result->phase1_cost.value();
  return result->final_cost.value();
}

}  // namespace

ShootoutCase RunShootoutCase(const workload::ScenarioParams& params) {
  ShootoutCase out;
  out.params = params;
  const workload::Scenario scenario = workload::MakeScenario(params);

  // M4 first: it doubles as the overflow classifier.
  out.final_cost[3] = SolveWithMetric(scenario, HeatMetric::kTimeSpacePerCost,
                                      &out.overflowed, &out.phase1_cost);
  if (!out.overflowed) {
    out.final_cost[0] = out.final_cost[1] = out.final_cost[2] =
        out.final_cost[3];
    return out;
  }
  for (std::size_t m = 0; m < 3; ++m) {
    out.final_cost[m] =
        SolveWithMetric(scenario, kAllHeatMetrics[m], nullptr, nullptr);
  }
  return out;
}

ShootoutSummary SummarizeShootout(const std::vector<ShootoutCase>& cases) {
  ShootoutSummary summary;
  summary.total_cases = cases.size();
  double increase_total = 0.0;
  for (const ShootoutCase& c : cases) {
    if (!c.overflowed) continue;
    ++summary.overflow_cases;
    const double best =
        *std::min_element(c.final_cost.begin(), c.final_cost.end());
    const double eps = best * 1e-9;
    bool m2_or_m4 = false;
    for (std::size_t m = 0; m < 4; ++m) {
      if (c.final_cost[m] <= best + eps) {
        ++summary.best_count[m];
        if (m == 1 || m == 3) m2_or_m4 = true;
      }
    }
    summary.best_m2_or_m4 += m2_or_m4;
    if (c.phase1_cost > 0.0) {
      const double rel = (c.final_cost[3] - c.phase1_cost) / c.phase1_cost;
      increase_total += rel;
      summary.worst_increase = std::max(summary.worst_increase, rel);
    }
  }
  if (summary.overflow_cases > 0) {
    summary.avg_increase =
        increase_total / static_cast<double>(summary.overflow_cases);
  }
  return summary;
}

ShootoutSummary RunShootout(const std::vector<workload::ScenarioParams>& grid,
                            util::ThreadPool* pool) {
  std::vector<ShootoutCase> cases(grid.size());
  if (pool == nullptr) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      cases[i] = RunShootoutCase(grid[i]);
    }
  } else {
    pool->ParallelFor(grid.size(), [&](std::size_t i) {
      cases[i] = RunShootoutCase(grid[i]);
    });
  }
  return SummarizeShootout(cases);
}

}  // namespace vor::core
