#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "baseline/network_only.hpp"
#include "core/incremental.hpp"
#include "core/overflow.hpp"
#include "ext/bandwidth.hpp"
#include "obs/metrics.hpp"
#include "sim/validator.hpp"
#include "svc/reservation_service.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::core {
namespace {

TEST(SchedulerTest, SolvesPaperDefaultScenario) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_cost.value(), 0.0);
  EXPECT_TRUE(DetectOverflows(result->schedule, scheduler.cost_model()).empty());

  const auto report = sim::ValidateSchedule(
      result->schedule, scenario.requests, scheduler.cost_model());
  EXPECT_TRUE(report.ok());
  for (const auto& v : report.violations) {
    ADD_FAILURE() << sim::ToString(v.kind) << ": " << v.detail;
  }
}

TEST(SchedulerTest, BeatsNetworkOnlyOnDefaultScenario) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  const Schedule direct =
      baseline::NetworkOnlySchedule(scenario.requests, scheduler.cost_model());
  EXPECT_LT(result->final_cost.value(),
            scheduler.cost_model().TotalCost(direct).value());
}

TEST(SchedulerTest, RejectsUnknownVideo) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  std::vector<workload::Request> requests = scenario.requests;
  requests[0].video = 99999;
  const auto result = scheduler.Solve(requests);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kNotFound);
}

TEST(SchedulerTest, RejectsBadNeighborhood) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  std::vector<workload::Request> requests = scenario.requests;
  requests[0].neighborhood = scenario.topology.warehouse();
  const auto result = scheduler.Solve(requests);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kInvalidArgument);
}

TEST(SchedulerTest, EmptyRequestSetYieldsEmptySchedule) {
  const workload::Scenario scenario = workload::MakeScenario({});
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve({});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schedule.files.size(), 0u);
  EXPECT_DOUBLE_EQ(result->final_cost.value(), 0.0);
}

TEST(SchedulerTest, Phase1CostNeverBelowFinalWhenNoOverflow) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(100);  // plenty: SORP is a no-op
  const workload::Scenario scenario = workload::MakeScenario(params);
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->phase1_cost.value(), result->final_cost.value());
  EXPECT_FALSE(result->sorp.HadOverflow());
}

TEST(SchedulerTest, TightCapacityTriggersAndResolvesOverflow) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  VorScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->sorp.HadOverflow());
  EXPECT_TRUE(result->sorp.Resolved());
  EXPECT_GE(result->final_cost.value(), result->phase1_cost.value() - 1e-6);
}

TEST(SchedulerTest, HeatMetricOptionChangesBehaviourConsistently) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 900;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);

  for (const auto metric :
       {HeatMetric::kImprovedLength, HeatMetric::kLengthPerCost,
        HeatMetric::kTimeSpace, HeatMetric::kTimeSpacePerCost}) {
    SchedulerOptions options;
    options.sorp.heat = metric;
    VorScheduler scheduler(scenario.topology, scenario.catalog, options);
    const auto result = scheduler.Solve(scenario.requests);
    ASSERT_TRUE(result.ok()) << ToString(metric);
    EXPECT_TRUE(result->sorp.Resolved()) << ToString(metric);
    EXPECT_TRUE(
        DetectOverflows(result->schedule, scheduler.cost_model()).empty())
        << ToString(metric);
  }
}

TEST(SchedulerTest, EndToEndPricingProducesValidSchedules) {
  const workload::Scenario scenario = workload::MakeScenario({});
  SchedulerOptions options;
  options.pricing.basis = PricingBasis::kEndToEnd;
  options.pricing.e2e_discount = 0.85;
  VorScheduler scheduler(scenario.topology, scenario.catalog, options);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  const auto report = sim::ValidateSchedule(
      result->schedule, scenario.requests, scheduler.cost_model());
  EXPECT_TRUE(report.ok());
}

// Every entry point copies SchedulerOptions::sorp into phase 2, so a zero
// iteration budget must reach SORP through each of them: overflow stays
// unresolved and no victim is rescheduled.
TEST(SchedulerTest, SorpOptionsReachEveryEntryPoint) {
  workload::ScenarioParams params;  // Table-4 tight operating point
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  SchedulerOptions options;
  options.sorp.max_iterations = 0;

  const VorScheduler scheduler(scenario.topology, scenario.catalog, options);
  const auto solved = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved->sorp.HadOverflow());
  EXPECT_FALSE(solved->sorp.Resolved());
  EXPECT_EQ(solved->sorp.victims_rescheduled, 0u);

  const std::size_t split = scenario.requests.size() / 2;
  const std::vector<workload::Request> original(
      scenario.requests.begin(), scenario.requests.begin() + split);
  const std::vector<workload::Request> late(
      scenario.requests.begin() + split, scenario.requests.end());
  const auto base = scheduler.Solve(original);
  ASSERT_TRUE(base.ok());
  std::vector<workload::Request> merged;
  const auto incremental =
      IncrementalSolve(scheduler, *base, original, late, &merged);
  ASSERT_TRUE(incremental.ok());
  EXPECT_FALSE(incremental->sorp.Resolved());
  EXPECT_EQ(incremental->sorp.victims_rescheduled, 0u);

  const ext::BandwidthAwareScheduler bandwidth(scenario.topology,
                                               scenario.catalog, options);
  const auto bandwidth_solved = bandwidth.Solve(scenario.requests);
  ASSERT_TRUE(bandwidth_solved.ok());
  EXPECT_FALSE(bandwidth_solved->sorp.Resolved());
  EXPECT_EQ(bandwidth_solved->sorp.victims_rescheduled, 0u);

  // The service commits unconditionally with admission off, so the
  // unresolved overflow lands in the committed schedule.
  svc::ServiceConfig config;
  config.scheduler = options;
  config.admission_control = false;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  for (const workload::Request& r : scenario.requests) {
    ASSERT_EQ(service.Submit(r, r.start_time), svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_GT(metrics.GetCounter("sorp.initial_overflow_windows").value(), 0u);
  EXPECT_EQ(metrics.GetCounter("sorp.victims_rescheduled").value(), 0u);
  EXPECT_FALSE(
      DetectOverflows(service.CommittedSchedule(), scheduler.cost_model())
          .empty());
}

}  // namespace
}  // namespace vor::core
