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

TEST(SorpIncrementalTest, CommittedVictimIsNeverReplayedFromMemo) {
  // Star VW - IS1, VW - IS2; 1.5 GB storages.  File 0 (1 GB) is requested
  // twice at IS2 and cached there, next to file 2's (1.2 GB) cache:
  // overflow at IS2.  File 0 also carries a long extra residency at IS1
  // that none of its requests or streams touch, next to file 1's cache:
  // overflow at IS1.  Round 1 commits file 0 for the IS1 window (dropping
  // the extra residency makes that free).  Its IS2 cache comes back
  // unchanged, so round 2 re-offers file 0 for the same IS2 window, and
  // none of the nodes its round-1 dry run consulted has moved: only the
  // erase of the victim's own memo entries keeps the engine from
  // replaying that run, whose overhead was priced against the old file.
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const util::StorageRate srate{1.0 / (1e9 * 3600.0)};  // $1/(GB*h)
  const net::NodeId is1 = topo.AddStorage("IS1", util::GB(1.5), srate);
  const net::NodeId is2 = topo.AddStorage("IS2", util::GB(1.5), srate);
  topo.AddLink(vw, is1, util::NetworkRate{10.0 / 1e9});
  topo.AddLink(vw, is2, util::NetworkRate{10.0 / 1e9});
  media::Catalog catalog;
  for (const double gb : {1.0, 1.0, 1.2}) {
    media::Video v;
    v.title = "v" + std::to_string(catalog.size());
    v.size = util::GB(gb);
    v.playback = util::Hours(1.0);
    v.bandwidth = v.size / v.playback;
    catalog.Add(v);
  }
  const net::Router router(topo);
  const CostModel cm(topo, router, catalog);
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), is2}, {1, 0, util::Hours(2.0), is2},
      {2, 1, util::Hours(1.0), is1}, {3, 1, util::Hours(2.0), is1},
      {4, 2, util::Hours(1.0), is2}, {5, 2, util::Hours(2.5), is2},
  };
  Schedule phase1 = IvspSolve(requests, cm, IvspOptions{});
  ASSERT_EQ(phase1.files.size(), 3u);
  Residency extra;
  extra.video = 0;
  extra.location = is1;
  extra.source = vw;
  extra.t_start = util::Hours(0.0);
  extra.t_last = util::Hours(100.0);
  phase1.files[0].residencies.push_back(extra);

  // Capacity-unaware reschedules keep file 0's IS2 cache as it was; M3
  // heat makes the stale replay (free, so +inf) beat file 2's true heat.
  SorpOptions options;
  options.capacity_aware_reschedule = false;
  options.heat = HeatMetric::kTimeSpace;
  Schedule oracle = phase1;
  const SorpStats expected =
      reference::SorpSolve(oracle, requests, cm, options);
  for (const std::size_t threads : {1u, 2u}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
    options.pool = pool.get();
    Schedule engine = phase1;
    const SorpStats stats = SorpSolve(engine, requests, cm, options);
    // Two rounds: four candidates, then file 0 and file 2 at IS2 again.
    EXPECT_EQ(stats.evaluations, 6u);
    EXPECT_EQ(stats.victims_rescheduled, 2u);
    EXPECT_EQ(stats.victims_rescheduled, expected.victims_rescheduled);
    EXPECT_EQ(io::ToJson(engine).Dump(2), io::ToJson(oracle).Dump(2));
  }
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
