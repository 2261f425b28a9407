#include "sorp_reference.hpp"

#include <cstddef>
#include <utility>

#include "core/heat.hpp"
#include "core/overflow.hpp"
#include "core/rejective_greedy.hpp"
#include "storage/usage_timeline.hpp"

namespace vor::core::reference {

storage::UsageMap BuildUsageExcludingFile(const Schedule& schedule,
                                          const CostModel& cost_model,
                                          std::size_t excluded_file) {
  storage::UsageMap usage;
  for (std::size_t f = 0; f < schedule.files.size(); ++f) {
    if (f == excluded_file) continue;
    const FileSchedule& file = schedule.files[f];
    for (std::size_t r = 0; r < file.residencies.size(); ++r) {
      const Residency& c = file.residencies[r];
      usage[c.location].Add(
          cost_model.OccupancyPiece(c, ResidencyRef{f, r}.Pack()));
    }
  }
  return usage;
}

SorpStats SorpSolve(Schedule& schedule,
                    const std::vector<workload::Request>& requests,
                    const CostModel& cost_model, const SorpOptions& options) {
  const net::Topology& topology = cost_model.topology();
  SorpStats stats;
  stats.cost_before = cost_model.TotalCost(schedule);

  storage::UsageMap usage = storage::BuildUsage(schedule, cost_model);
  std::vector<OverflowWindow> overflows = DetectOverflowsIn(usage, topology);
  stats.initial_overflow_windows = overflows.size();
  stats.initial_excess = TotalExcess(usage, topology);
  double excess = stats.initial_excess;

  while (!overflows.empty() &&
         stats.victims_rescheduled < options.max_iterations) {
    std::vector<SorpCandidate> candidates =
        CollectSorpCandidates(schedule, overflows, cost_model);
    if (candidates.empty()) break;
    if (options.victim_policy == VictimPolicy::kFirstContributor) {
      candidates.resize(1);
    }

    // Tentatively reschedule every candidate; keep the hottest, ties to
    // the smallest file index, then to discovery order.
    std::size_t victim = 0;
    double best_heat = 0.0;
    FileSchedule best_schedule;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const SorpCandidate& c = candidates[i];
      storage::UsageMap others;
      storage::UsageView backdrop;  // capacity-unaware: static check only
      if (options.capacity_aware_reschedule) {
        others = BuildUsageExcludingFile(schedule, cost_model, c.file_index);
        backdrop = storage::UsageView(&others);
      }
      RescheduleResult attempt =
          RescheduleVictim(schedule, c.file_index, requests, cost_model,
                           options.ivsp, {{c.node, c.window}}, backdrop);
      const double heat =
          ComputeHeat(options.heat, c.chi, c.ds, attempt.Overhead().value());
      if (i == 0 || heat > best_heat ||
          (heat == best_heat && c.file_index < victim)) {
        victim = c.file_index;
        best_heat = heat;
        best_schedule = std::move(attempt.schedule);
      }
    }
    stats.evaluations += candidates.size();

    schedule.files[victim] = std::move(best_schedule);
    ++stats.victims_rescheduled;
    usage = storage::BuildUsage(schedule, cost_model);
    overflows = DetectOverflowsIn(usage, topology);
    const double new_excess = TotalExcess(usage, topology);
    if (new_excess >= excess) break;  // no progress
    excess = new_excess;
  }

  stats.final_excess = TotalExcess(usage, topology);
  stats.cost_after = cost_model.TotalCost(schedule);
  return stats;
}

}  // namespace vor::core::reference
