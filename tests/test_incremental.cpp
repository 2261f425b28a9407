#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/overflow.hpp"
#include "io/serialize.hpp"
#include "sim/validator.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

/// Splits a scenario's requests into an early prefix and a late tail by
/// taking every k-th request as "late" (then re-sorting each part).
void SplitRequests(const std::vector<workload::Request>& all, std::size_t k,
                   std::vector<workload::Request>* early,
                   std::vector<workload::Request>* late) {
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i % k == 0 ? late : early)->push_back(all[i]);
  }
}

TEST(IncrementalTest, MatchesScratchSolveWhenNoOverflow) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(100);  // overflow free
  const workload::Scenario scenario = workload::MakeScenario(params);
  std::vector<workload::Request> early;
  std::vector<workload::Request> late;
  SplitRequests(scenario.requests, 7, &early, &late);

  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(early);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->sorp.HadOverflow());

  std::vector<workload::Request> merged;
  IncrementalStats stats;
  const auto incremental = IncrementalSolve(scheduler, *first, early, late,
                                            &merged, &stats);
  ASSERT_TRUE(incremental.ok());
  EXPECT_GT(stats.files_carried_over, 0u);
  EXPECT_GT(stats.files_rescheduled, 0u);

  const auto scratch = scheduler.Solve(merged);
  ASSERT_TRUE(scratch.ok());
  EXPECT_DOUBLE_EQ(incremental->final_cost.value(),
                   scratch->final_cost.value());
  EXPECT_EQ(incremental->schedule.TotalDeliveries(),
            scratch->schedule.TotalDeliveries());
  EXPECT_EQ(incremental->schedule.TotalResidencies(),
            scratch->schedule.TotalResidencies());
}

TEST(IncrementalTest, TightCapacityStaysFeasibleAndServed) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  std::vector<workload::Request> early;
  std::vector<workload::Request> late;
  SplitRequests(scenario.requests, 5, &early, &late);

  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(early);
  ASSERT_TRUE(first.ok());

  std::vector<workload::Request> merged;
  const auto incremental =
      IncrementalSolve(scheduler, *first, early, late, &merged);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->sorp.Resolved());
  EXPECT_TRUE(
      DetectOverflows(incremental->schedule, scheduler.cost_model()).empty());
  const auto report = sim::ValidateSchedule(incremental->schedule, merged,
                                            scheduler.cost_model());
  EXPECT_TRUE(report.ok());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << sim::ToString(v.kind) << ": " << v.detail;
  }
  // Cost should be in the same ballpark as a scratch re-solve.
  const auto scratch = scheduler.Solve(merged);
  ASSERT_TRUE(scratch.ok());
  EXPECT_LT(incremental->final_cost.value(),
            scratch->final_cost.value() * 1.10);
}

/// `out.video_groups` must be exactly GroupByVideo(merged) — videos,
/// index lists and their tie order — with slot i holding group i's file.
void ExpectFreshGrouping(const SolveOutput& out,
                         const std::vector<workload::Request>& merged) {
  const auto fresh = workload::GroupByVideo(merged);
  ASSERT_EQ(out.video_groups.size(), fresh.size());
  ASSERT_EQ(out.schedule.files.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(out.video_groups[i].video, fresh[i].first);
    ASSERT_NE(out.video_groups[i].indices, nullptr);
    EXPECT_EQ(*out.video_groups[i].indices, fresh[i].second)
        << "video " << fresh[i].first;
    EXPECT_EQ(out.schedule.files[i].video, fresh[i].first);
  }
}

TEST(IncrementalTest, CarriedIndexMatchesFreshGrouping) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);  // SORP resolves overflows each close
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);

  // Video 0 stays out of the first closes, so its first request arrives
  // below every scheduled video id.
  std::vector<workload::Request> rest;
  std::vector<workload::Request> video0;
  for (const workload::Request& r : scenario.requests) {
    (r.video == 0 && video0.size() < 5 ? video0 : rest).push_back(r);
  }
  ASSERT_FALSE(video0.empty());
  rest.erase(std::remove_if(rest.begin(), rest.end(),
                            [](const workload::Request& r) {
                              return r.video == 0;
                            }),
             rest.end());
  // More than 16 requests for one video at one start time take
  // std::sort past its insertion-sort cutoff, where the order of ties
  // depends on the order of the input.
  const auto ties = [&](std::size_t count, workload::UserId first_user) {
    std::vector<workload::Request> out;
    for (std::size_t k = 0; k < count; ++k) {
      workload::Request r = rest[0];
      r.user = first_user + static_cast<workload::UserId>(k);
      r.neighborhood = rest[k % rest.size()].neighborhood;
      out.push_back(r);
    }
    return out;
  };
  const auto slice = [&](std::size_t lo, std::size_t hi) {
    return std::vector<workload::Request>(rest.begin() + lo,
                                          rest.begin() + hi);
  };
  const std::size_t n = rest.size();
  const std::vector<workload::Request> initial = slice(0, n / 3);
  std::vector<workload::Request> close1 = slice(n / 3, n / 2);
  for (const workload::Request& r : ties(24, 100000)) close1.push_back(r);
  // The second close fails its first attempt and retries with the older
  // half, as the service's halving loop does; video 0 and the ties lead.
  std::vector<workload::Request> close2 = video0;
  for (const workload::Request& r : ties(20, 200000)) close2.push_back(r);
  for (const workload::Request& r : slice(n / 2, 2 * n / 3)) {
    close2.push_back(r);
  }
  const std::vector<workload::Request> retry2(
      close2.begin(), close2.begin() + static_cast<long>(close2.size() / 2));
  ASSERT_GT(retry2.size(), video0.size() + 20);
  const std::vector<workload::Request> close3 = slice(2 * n / 3, n);

  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(initial);
  ASSERT_TRUE(first.ok());
  ExpectFreshGrouping(*first, initial);
  SolveOutput carried_prev = *first;
  SolveOutput fresh_prev = *first;
  std::vector<workload::Request> committed = initial;
  // Each step solves from the carried index and, separately, from an
  // index regrouped from scratch by GroupByVideo (as Restore builds it).
  const auto step = [&](const std::vector<workload::Request>& late,
                        bool commit) {
    std::vector<workload::Request> merged_carried;
    std::vector<workload::Request> merged_fresh;
    auto a = IncrementalSolve(scheduler, carried_prev, committed, late,
                              &merged_carried);
    SolveOutput regrouped = fresh_prev;
    regrouped.video_groups = IndexByVideo(committed);
    auto b = IncrementalSolve(scheduler, regrouped, committed, late,
                              &merged_fresh);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectFreshGrouping(*a, merged_carried);
    ExpectFreshGrouping(*b, merged_fresh);
    EXPECT_EQ(io::ToJson(a->schedule).Dump(), io::ToJson(b->schedule).Dump());
    EXPECT_EQ(a->final_cost.value(), b->final_cost.value());
    EXPECT_EQ(a->sorp.victims_rescheduled, b->sorp.victims_rescheduled);
    if (!commit) return;
    // Unaffected videos share their index list with the previous output.
    std::size_t shared = 0;
    for (const VideoGroup& group : a->video_groups) {
      for (const VideoGroup& old : carried_prev.video_groups) {
        shared += group.indices == old.indices ? 1 : 0;
      }
    }
    if (!carried_prev.video_groups.empty()) {
      EXPECT_GT(shared, 0u);
    }
    committed = std::move(merged_carried);
    carried_prev = std::move(*a);
    fresh_prev = std::move(*b);
  };
  step(close1, /*commit=*/true);
  step(close2, /*commit=*/false);  // the failed attempt
  step(retry2, /*commit=*/true);
  step(close3, /*commit=*/true);
  EXPECT_GT(carried_prev.sorp.victims_rescheduled, 0u);
}

TEST(IncrementalTest, RejectsAnIndexThatDoesNotCoverTheOriginalRequests) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->video_groups.size(), 1u);
  std::vector<workload::Request> merged;
  const std::vector<workload::Request> late = {scenario.requests[0]};

  SolveOutput unindexed = *first;
  unindexed.video_groups.clear();
  EXPECT_FALSE(IncrementalSolve(scheduler, unindexed, scenario.requests, late,
                                &merged)
                   .ok());
  // An index of fewer requests than the original list.
  const std::vector<workload::Request> prefix(scenario.requests.begin(),
                                              scenario.requests.end() - 1);
  EXPECT_FALSE(
      IncrementalSolve(scheduler, *first, prefix, late, &merged).ok());
  EXPECT_TRUE(IncrementalSolve(scheduler, *first, scenario.requests, late,
                               &merged)
                  .ok());
}

TEST(IncrementalTest, EmptyLateBatchKeepsEverything) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(first.ok());
  std::vector<workload::Request> merged;
  IncrementalStats stats;
  const auto incremental = IncrementalSolve(scheduler, *first,
                                            scenario.requests, {}, &merged,
                                            &stats);
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(stats.files_rescheduled, 0u);
  EXPECT_EQ(merged.size(), scenario.requests.size());
  EXPECT_DOUBLE_EQ(incremental->final_cost.value(),
                   first->final_cost.value());
}

TEST(IncrementalTest, RejectsBadLateRequests) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto first = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(first.ok());
  std::vector<workload::Request> merged;

  workload::Request bad = scenario.requests[0];
  bad.video = 999999;
  EXPECT_FALSE(IncrementalSolve(scheduler, *first, scenario.requests, {bad},
                                &merged)
                   .ok());
  bad = scenario.requests[0];
  bad.neighborhood = scenario.topology.warehouse();
  EXPECT_FALSE(IncrementalSolve(scheduler, *first, scenario.requests, {bad},
                                &merged)
                   .ok());
}

}  // namespace
}  // namespace vor::core
