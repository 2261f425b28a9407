// Test oracle for SORP: the paper's Table-3 loop written as plainly as
// possible — serial, no memoization, the whole usage aggregate rebuilt
// from scratch after every commit and the backdrop of every dry run rebuilt
// without the candidate file.  It shares the building blocks of the
// production engine (candidate collection, the rejective reschedule, the
// heat metrics, overflow detection) but none of its loop code, so the
// golden suites can hold core::SorpSolve's schedule bytes and statistics
// against it.
#pragma once

#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "core/sorp.hpp"
#include "storage/usage_timeline.hpp"
#include "workload/request.hpp"

namespace vor::core::reference {

/// Aggregate usage of every residency except `excluded_file`'s, rebuilt
/// from scratch — the backdrop the oracle checks a dry run against, and
/// the reference for storage::UsageTracker::ExcludingFile.  Piece tags
/// and per-node order are those of storage::BuildUsage.
[[nodiscard]] storage::UsageMap BuildUsageExcludingFile(
    const Schedule& schedule, const CostModel& cost_model,
    std::size_t excluded_file);

/// Resolves storage overflows in place, reading only `heat`,
/// `victim_policy`, `capacity_aware_reschedule`, `ivsp` and
/// `max_iterations` from `options` (regions, pool, streams and metrics are
/// ignored).  Fills victims_rescheduled, evaluations,
/// initial_overflow_windows, the excesses and the costs of the returned
/// stats; the engine-internal counters stay zero.
SorpStats SorpSolve(Schedule& schedule,
                    const std::vector<workload::Request>& requests,
                    const CostModel& cost_model, const SorpOptions& options);

}  // namespace vor::core::reference
