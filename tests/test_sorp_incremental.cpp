// Golden byte-identity of the SORP engine: the delta-maintained +
// memoized loop must produce exactly the same schedule bytes and victim
// statistics as the serial rebuild-from-scratch oracle
// (tests/sorp_reference.hpp), for every heat metric, both victim
// policies, and any thread count.  Also pins the memo/rebuild accounting:
// the engine builds the aggregate once and reuses cached dry runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/heat.hpp"
#include "core/ivsp.hpp"
#include "core/sorp.hpp"
#include "io/serialize.hpp"
#include "net/routing.hpp"
#include "sorp_reference.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

struct EngineRun {
  std::string bytes;
  SorpStats stats;
};

/// The paper's Table-4 tight operating point: small enough to solve in
/// milliseconds, tight enough that SORP runs a real multi-round shootout.
struct TightEnv {
  TightEnv() {
    workload::ScenarioParams params;
    params.is_capacity = util::GB(5);
    params.nrate_per_gb = 1000;
    params.srate_per_gb_hour = 3;
    scenario = workload::MakeScenario(params);
    router.emplace(scenario.topology);
    cm.emplace(scenario.topology, *router, scenario.catalog);
    phase1 = IvspSolve(scenario.requests, *cm, IvspOptions{});
  }
  workload::Scenario scenario;
  std::optional<net::Router> router;
  std::optional<CostModel> cm;
  Schedule phase1;
};

EngineRun RunEngine(const TightEnv& env, HeatMetric heat, VictimPolicy policy,
                    std::size_t threads) {
  Schedule schedule = env.phase1;
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  SorpOptions options;
  options.heat = heat;
  options.victim_policy = policy;
  options.pool = pool.get();
  EngineRun run;
  run.stats = SorpSolve(schedule, env.scenario.requests, *env.cm, options);
  run.bytes = io::ToJson(schedule).Dump(2);
  return run;
}

EngineRun RunOracle(const TightEnv& env, const SorpOptions& options) {
  Schedule schedule = env.phase1;
  EngineRun run;
  run.stats =
      reference::SorpSolve(schedule, env.scenario.requests, *env.cm, options);
  run.bytes = io::ToJson(schedule).Dump(2);
  return run;
}

TEST(SorpIncrementalGoldenTest, AllMetricsPoliciesAndThreadCountsMatch) {
  const TightEnv env;
  const std::vector<HeatMetric> metrics{
      HeatMetric::kImprovedLength, HeatMetric::kLengthPerCost,
      HeatMetric::kTimeSpace, HeatMetric::kTimeSpacePerCost};
  const std::vector<VictimPolicy> policies{VictimPolicy::kMaxHeat,
                                           VictimPolicy::kFirstContributor};
  for (const HeatMetric heat : metrics) {
    for (const VictimPolicy policy : policies) {
      SorpOptions oracle_options;
      oracle_options.heat = heat;
      oracle_options.victim_policy = policy;
      const EngineRun reference = RunOracle(env, oracle_options);
      ASSERT_TRUE(reference.stats.HadOverflow())
          << "scenario must engage SORP";
      for (const std::size_t threads : {1u, 2u, 8u}) {
        const EngineRun engine = RunEngine(env, heat, policy, threads);
        EXPECT_EQ(engine.bytes, reference.bytes)
            << "engine diverged from the oracle: heat=" << ToString(heat)
            << " policy=" << static_cast<int>(policy)
            << " threads=" << threads;
        EXPECT_EQ(engine.stats.victims_rescheduled,
                  reference.stats.victims_rescheduled);
        EXPECT_EQ(engine.stats.evaluations, reference.stats.evaluations);
        EXPECT_DOUBLE_EQ(engine.stats.final_excess,
                         reference.stats.final_excess);
        EXPECT_DOUBLE_EQ(engine.stats.cost_after.value(),
                         reference.stats.cost_after.value());
      }
    }
  }
}

TEST(SorpIncrementalTest, MemoHitsAndRebuildAccounting) {
  const TightEnv env;
  const EngineRun engine =
      RunEngine(env, HeatMetric::kTimeSpacePerCost, VictimPolicy::kMaxHeat, 1);
  ASSERT_TRUE(engine.stats.HadOverflow());

  // Cross-round memoization must fire on a multi-round resolution, and
  // every candidate is either a hit or a real dry run.
  EXPECT_GT(engine.stats.memo_hits, 0u);
  EXPECT_EQ(engine.stats.memo_hits + engine.stats.memo_misses,
            engine.stats.evaluations);
  // The aggregate is built exactly once; commits are diffs, not rebuilds.
  EXPECT_EQ(engine.stats.usage_rebuilds, 1u);
}

TEST(SorpIncrementalTest, FirstContributorPolicyCannotHitMemo) {
  // Every evaluated candidate is immediately committed (and its memo
  // entries dropped), so the ablation policy can never replay a cached
  // run — which keeps its `evaluations == victims_rescheduled` contract.
  const TightEnv env;
  const EngineRun run = RunEngine(env, HeatMetric::kTimeSpacePerCost,
                                  VictimPolicy::kFirstContributor, 1);
  ASSERT_TRUE(run.stats.HadOverflow());
  EXPECT_EQ(run.stats.memo_hits, 0u);
  EXPECT_EQ(run.stats.evaluations, run.stats.victims_rescheduled);
}

TEST(SorpIncrementalTest, HooksDisableMemoization) {
  // Extension hooks mutate external tracker state between rounds, which a
  // cached replay would skip — the memo must stand down entirely.
  const TightEnv env;
  Schedule schedule = env.phase1;
  SorpOptions options;
  std::size_t excluded_calls = 0;
  options.on_file_excluded = [&excluded_calls](std::size_t) {
    ++excluded_calls;
  };
  const SorpStats stats =
      SorpSolve(schedule, env.scenario.requests, *env.cm, options);
  ASSERT_TRUE(stats.HadOverflow());
  EXPECT_GT(stats.evaluations, 0u);
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.memo_misses, 0u);
  // Hooks fire around every dry run AND every commit — nothing skipped.
  EXPECT_EQ(excluded_calls, stats.evaluations + stats.victims_rescheduled);
}

TEST(SorpIncrementalTest, CapacityUnawareAblationStillMatchesReference) {
  // With capacity_aware_reschedule off, dry runs consult no node usage at
  // all; cached entries are then valid until their file becomes the
  // victim.  The engine must still agree with the oracle byte-for-byte.
  const TightEnv env;
  SorpOptions options;
  options.capacity_aware_reschedule = false;
  Schedule schedule = env.phase1;
  const SorpStats stats =
      SorpSolve(schedule, env.scenario.requests, *env.cm, options);
  const EngineRun reference = RunOracle(env, options);
  EXPECT_EQ(io::ToJson(schedule).Dump(2), reference.bytes);
  EXPECT_EQ(stats.victims_rescheduled, reference.stats.victims_rescheduled);
}

}  // namespace
}  // namespace vor::core
