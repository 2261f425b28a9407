// ReservationService: concurrent intake determinism, admission control's
// never-commit-an-overflow guarantee, snapshot/restore resume, and the
// backpressure / fairness / clock plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.hpp"
#include "io/serialize.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "sim/validator.hpp"
#include "svc/reservation_service.hpp"
#include "storage/usage_timeline.hpp"
#include "svc/snapshot.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"

namespace vor {
namespace {

workload::Scenario SmallScenario(double capacity_gb = 50.0) {
  workload::ScenarioParams params;
  params.storage_count = 6;
  params.users_per_neighborhood = 5;
  params.catalog_size = 60;
  params.is_capacity = util::GB(capacity_gb);
  params.seed = 42;
  return workload::MakeScenario(params);
}

/// Where (if at all) the replay kicks the speculative pipeline relative
/// to each window's submission — the timing axis of the determinism
/// golden suite.
enum class SpecMode {
  /// Speculation disabled (the reference engine).
  kOff,
  /// Speculate once the window is fully submitted: delta 0, full hit.
  kHit,
  /// Speculate after half the window: the other half is the late delta
  /// the close repairs in.
  kMidWindow,
  /// Mid-window with repair_fraction 0: any delta forces full fallback.
  kForcedFallback,
  /// Like kHit, plus a Snapshot() taken while the background solve is in
  /// flight (must neither block on nor perturb the speculation).
  kSnapshotMidSolve,
};

/// Replays `requests` through a service: `cycles` contiguous windows in
/// canonical replay order, each submitted by `producers` concurrent
/// threads (round-robin slices), then closed.  Asserts the committed
/// schedule validates after every close and returns its final JSON dump.
std::string ReplayThroughService(const workload::Scenario& scenario,
                                 std::size_t producers, std::size_t cycles,
                                 svc::ServiceConfig config,
                                 SpecMode mode = SpecMode::kOff) {
  config.speculate = mode != SpecMode::kOff;
  if (mode == SpecMode::kForcedFallback) {
    config.speculation_repair_fraction = 0.0;
  }
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t per_cycle = (requests.size() + cycles - 1) / cycles;
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::size_t begin = c * per_cycle;
    const std::size_t end = std::min(requests.size(), begin + per_cycle);
    const auto submit_range = [&](std::size_t lo, std::size_t hi) {
      std::vector<std::thread> threads;
      for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          for (std::size_t i = lo + p; i < hi; i += producers) {
            const auto outcome =
                service.Submit(requests[i], requests[i].start_time);
            EXPECT_NE(outcome, svc::SubmitOutcome::kRejectedInvalid);
          }
        });
      }
      for (std::thread& t : threads) t.join();
    };
    if (mode == SpecMode::kMidWindow || mode == SpecMode::kForcedFallback) {
      const std::size_t mid = begin + (end - begin) / 2;
      submit_range(begin, mid);
      (void)service.Speculate();
      submit_range(mid, end);
      service.WaitForSpeculation();
    } else {
      submit_range(begin, end);
      if (mode != SpecMode::kOff) {
        (void)service.Speculate();
        if (mode == SpecMode::kSnapshotMidSolve) {
          const svc::ServiceSnapshot snapshot = service.Snapshot();
          EXPECT_EQ(snapshot.pending.size(), service.PendingCount());
        }
        service.WaitForSpeculation();
      }
    }
    const auto stats = service.CloseCycle();
    EXPECT_TRUE(stats.ok()) << stats.error().message;
    // The standing guarantee: whatever was committed validates, capacity
    // check included.
    const auto report = sim::ValidateSchedule(service.CommittedSchedule(),
                                              service.CommittedRequests(), cm);
    EXPECT_TRUE(report.ok()) << sim::ToString(report.violations[0].kind);
  }
  return io::ToJson(service.CommittedSchedule()).Dump();
}

TEST(ServiceDeterminism, ByteIdenticalAcrossProducerCounts) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.shards = 4;
  const std::string one = ReplayThroughService(scenario, 1, 3, config);
  const std::string two = ReplayThroughService(scenario, 2, 3, config);
  const std::string eight = ReplayThroughService(scenario, 8, 3, config);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(ServiceDeterminism, ByteIdenticalWhenAdmissionDefers) {
  // Tight capacity + a crippled SORP round budget forces the halving
  // loop to defer; the deferred/committed split must still be identical
  // at any producer count.
  const workload::Scenario scenario = SmallScenario(2.0);
  svc::ServiceConfig config;
  config.shards = 4;
  config.scheduler.sorp.max_iterations = 1;
  const std::string one = ReplayThroughService(scenario, 1, 2, config);
  const std::string two = ReplayThroughService(scenario, 2, 2, config);
  const std::string eight = ReplayThroughService(scenario, 8, 2, config);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

/// Two-IS chain, 1 GB storage, two 0.8 GB titles, expensive network and
/// nearly free storage: the greedy caches both titles at IS1 whenever
/// each has repeat requests, and the two copies overlap past capacity.
net::Topology OverflowTopology() {
  return testing::SmallTopology(2, 1000.0, 0.01, 1.0);
}

media::Catalog TwoHotVideos() {
  media::Catalog catalog;
  for (const char* title : {"hot-a", "hot-b"}) {
    media::Video v;
    v.title = title;
    v.size = util::GB(0.8);
    v.playback = util::Hours(1.5);
    v.bandwidth = v.size / v.playback;
    catalog.Add(v);
  }
  return catalog;
}

/// 8 interleaved requests (4 per title) at IS1.  Each title's requests
/// span a full playback window, so its cached copy occupies the whole
/// 0.8 GB (Gamma = 1) and the two copies peak at 1.6 GB on a 1 GB node.
std::vector<workload::Request> OverflowRequests() {
  std::vector<workload::Request> out;
  for (std::uint32_t u = 0; u < 8; ++u) {
    out.push_back(workload::Request{u, static_cast<media::VideoId>(u % 2),
                                    util::Hours(1.0 + 0.25 * u), 1});
  }
  return out;
}

TEST(ServiceAdmission, NeverCommitsOverflowEvenWithSorpDisabled) {
  // With sorp.max_iterations = 0 the solver cannot fix overflows itself,
  // so only admission control stands between phase 1 and the committed
  // schedule.
  const net::Topology topo = OverflowTopology();
  const media::Catalog catalog = TwoHotVideos();

  svc::ServiceConfig config;
  config.scheduler.sorp.max_iterations = 0;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(topo, catalog, config);

  for (const workload::Request& r : OverflowRequests()) {
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(r.user)}),
              svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());

  const net::Router router(topo);
  const core::CostModel cm(topo, router, catalog);
  const auto report = sim::ValidateSchedule(service.CommittedSchedule(),
                                            service.CommittedRequests(), cm);
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violations";
  // The full batch is infeasible under a 0-round SORP, so something had
  // to give: either a strict subset committed or everything deferred.
  EXPECT_LT(stats->admitted, 8u);
  EXPECT_GT(stats->deferred_out + stats->rejected_expired, 0u);
  EXPECT_GT(stats->solve_attempts, 1u);

  // Later cycles keep draining the deferred set without ever committing
  // an overflow.
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(service.CloseCycle().ok());
    const auto again = sim::ValidateSchedule(
        service.CommittedSchedule(), service.CommittedRequests(), cm);
    EXPECT_TRUE(again.ok());
  }
}

TEST(ServiceAdmission, CarriedPeaksMatchAFreshTracker) {
  workload::ScenarioParams params;
  params.storage_count = 12;
  params.users_per_neighborhood = 4;
  params.catalog_size = 80;
  params.is_capacity = util::GB(6);  // tight: SORP commits victims
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  params.seed = 7;
  const workload::Scenario scenario = workload::MakeScenario(params);
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);

  // The admission estimate reads the committed peaks off the SORP run
  // that resolved the schedule; they must equal a fresh aggregate's.
  const auto expect_fresh_peaks = [&](const svc::ReservationService& s) {
    const storage::UsageTracker tracker(s.CommittedSchedule(), cm);
    const std::vector<double> peaks = s.CommittedPeakUsage();
    ASSERT_EQ(peaks.size(), scenario.topology.node_count());
    for (net::NodeId n = 0; n < peaks.size(); ++n) {
      EXPECT_EQ(peaks[n], storage::PeakUsage(tracker.usage(), n))
          << "node " << n;
    }
  };
  for (const std::size_t regions : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("regions=" + std::to_string(regions));
    obs::MetricsRegistry metrics;
    svc::ServiceConfig config;
    config.scheduler.sorp.regions = regions;
    config.metrics = &metrics;
    auto service = std::make_unique<svc::ReservationService>(
        scenario.topology, scenario.catalog, config);
    expect_fresh_peaks(*service);
    constexpr std::size_t kCycles = 6;
    const std::size_t per_cycle = (requests.size() + kCycles - 1) / kCycles;
    for (std::size_t c = 0; c < kCycles; ++c) {
      const std::size_t end = std::min(requests.size(), (c + 1) * per_cycle);
      for (std::size_t i = c * per_cycle; i < end; ++i) {
        (void)service->Submit(requests[i], requests[i].start_time);
      }
      ASSERT_TRUE(service->CloseCycle().ok());
      expect_fresh_peaks(*service);
      if (c == kCycles / 2) {
        // Restart mid-horizon: the restored service derives the peaks
        // itself, then carries them again from its own closes.
        auto restored = std::make_unique<svc::ReservationService>(
            scenario.topology, scenario.catalog, config);
        ASSERT_TRUE(restored->Restore(service->Snapshot()).ok());
        expect_fresh_peaks(*restored);
        service = std::move(restored);
      }
    }
    EXPECT_GT(metrics.GetCounter("sorp.victims_rescheduled").value(), 0u);
  }
}

TEST(ServiceAdmission, LooseCapacityCommitsEverything) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  for (const workload::Request& r : scenario.requests) {
    ASSERT_EQ(service.Submit(r, r.start_time), svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, scenario.requests.size());
  EXPECT_EQ(stats->deferred_out, 0u);
  EXPECT_EQ(stats->solve_attempts, 1u);
  EXPECT_EQ(service.CommittedRequests().size(), scenario.requests.size());
}

TEST(ServiceSnapshot, RestoreResumesWithIdenticalSchedule) {
  const workload::Scenario scenario = SmallScenario();
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t half = requests.size() / 2;

  svc::ServiceConfig config;
  svc::ReservationService original(scenario.topology, scenario.catalog,
                                   config);
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(original.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(original.CloseCycle().ok());
  // Leave some open intake in the snapshot too.
  for (std::size_t i = half; i < half + 3 && i < requests.size(); ++i) {
    ASSERT_EQ(original.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }

  // Snapshot -> JSON -> "restart" -> restore.
  const util::Json doc = svc::SnapshotToJson(original.Snapshot());
  const auto reparsed = util::Json::Parse(doc.Dump(2));
  ASSERT_TRUE(reparsed.ok());
  const auto snapshot = svc::SnapshotFromJson(*reparsed);
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().message;
  svc::ReservationService restored(scenario.topology, scenario.catalog,
                                   config);
  ASSERT_TRUE(restored.Restore(*snapshot).ok());
  EXPECT_EQ(restored.cycle_index(), original.cycle_index());
  EXPECT_EQ(io::ToJson(restored.CommittedSchedule()).Dump(),
            io::ToJson(original.CommittedSchedule()).Dump());
  EXPECT_EQ(restored.PendingCount(), original.PendingCount());

  // Both continue the horizon identically.
  for (std::size_t i = half + 3; i < requests.size(); ++i) {
    ASSERT_EQ(original.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
    ASSERT_EQ(restored.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(original.CloseCycle().ok());
  ASSERT_TRUE(restored.CloseCycle().ok());
  EXPECT_EQ(io::ToJson(restored.CommittedSchedule()).Dump(),
            io::ToJson(original.CommittedSchedule()).Dump());
  EXPECT_EQ(restored.CommittedRequests().size(),
            original.CommittedRequests().size());
}

TEST(ServiceSnapshot, RejectsForeignOrCorruptSnapshots) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  const auto bad_format = util::Json::Parse(R"({"format":"vor-svc/9"})");
  ASSERT_TRUE(bad_format.ok());
  EXPECT_FALSE(svc::SnapshotFromJson(*bad_format).ok());

  // A snapshot whose committed requests reference an unknown video must
  // be refused by Restore.
  svc::ServiceSnapshot foreign;
  foreign.committed.push_back(workload::Request{0, 9999, util::Hours(1.0), 1});
  EXPECT_FALSE(service.Restore(foreign).ok());

  // A schedule that does not serve its committed requests is rejected
  // by the validator integrity check.
  svc::ServiceSnapshot unserved;
  unserved.committed.push_back(workload::Request{0, 0, util::Hours(1.0), 1});
  EXPECT_FALSE(service.Restore(unserved).ok());

  // Pending and deferred arrivals order the next close's sort; a NaN one
  // must be refused like it is at Submit.
  svc::ServiceSnapshot nan_arrival;
  nan_arrival.pending.push_back(svc::StampedRequest{
      workload::Request{0, 0, util::Hours(1.0), 1},
      util::Seconds{std::numeric_limits<double>::quiet_NaN()}, 0});
  EXPECT_FALSE(service.Restore(nan_arrival).ok());

  // The next close extends the committed list's per-video index, so the
  // schedule must hold one file per committed video in ascending id, as
  // every solve leaves it; the same plan with its files reordered is
  // refused.
  svc::ReservationService source(scenario.topology, scenario.catalog,
                                 config);
  for (const workload::Request& r : scenario.requests) {
    ASSERT_EQ(source.Submit(r, r.start_time), svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(source.CloseCycle().ok());
  svc::ServiceSnapshot reordered = source.Snapshot();
  ASSERT_GT(reordered.schedule.files.size(), 1u);
  EXPECT_TRUE(service.Restore(reordered).ok());
  std::reverse(reordered.schedule.files.begin(),
               reordered.schedule.files.end());
  EXPECT_FALSE(service.Restore(reordered).ok());
}

TEST(ServiceIntake, BackpressureAndInvalidOutcomes) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.shards = 1;
  config.shard_capacity = 2;
  config.deferred_capacity = 2;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  const workload::Request bad_video{0, 99999, util::Hours(1.0), 1};
  EXPECT_EQ(service.Submit(bad_video, util::Seconds{0.0}),
            svc::SubmitOutcome::kRejectedInvalid);
  const workload::Request bad_node{
      0, 0, util::Hours(1.0),
      static_cast<net::NodeId>(scenario.topology.node_count() + 7)};
  EXPECT_EQ(service.Submit(bad_node, util::Seconds{0.0}),
            svc::SubmitOutcome::kRejectedInvalid);
  // Non-finite times: a NaN start would break the close's canonical sort.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double start : {nan, inf}) {
    const workload::Request bad_start{0, 0, util::Seconds{start}, 1};
    EXPECT_EQ(service.Submit(bad_start, util::Seconds{0.0}),
              svc::SubmitOutcome::kRejectedInvalid);
  }
  EXPECT_EQ(service.Submit(workload::Request{0, 0, util::Hours(1.0), 1},
                           util::Seconds{nan}),
            svc::SubmitOutcome::kRejectedInvalid);

  const workload::Request ok{0, 0, util::Hours(1.0), 1};
  EXPECT_EQ(service.Submit(ok, util::Seconds{1.0}),
            svc::SubmitOutcome::kAccepted);
  EXPECT_EQ(service.Submit(ok, util::Seconds{2.0}),
            svc::SubmitOutcome::kAccepted);
  EXPECT_EQ(service.Submit(ok, util::Seconds{3.0}),
            svc::SubmitOutcome::kDeferred);
  EXPECT_EQ(service.Submit(ok, util::Seconds{4.0}),
            svc::SubmitOutcome::kDeferred);
  EXPECT_EQ(service.Submit(ok, util::Seconds{5.0}),
            svc::SubmitOutcome::kRejectedBackpressure);
  EXPECT_EQ(service.PendingCount(), 4u);

  // A close empties both tiers.
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_EQ(service.PendingCount(), 0u);
}

TEST(ServiceIntake, FairnessCapDefersExcessPerUser) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.user_cycle_cap = 2;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  for (int i = 0; i < 5; ++i) {
    const workload::Request r{7, static_cast<media::VideoId>(i),
                              util::Hours(1.0 + i), 1};
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(i)}),
              svc::SubmitOutcome::kAccepted);
  }
  auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 2u);
  EXPECT_EQ(stats->deferred_out, 3u);
  // The backlog drains two per cycle.
  stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 2u);
  stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 1u);
  EXPECT_EQ(service.CommittedRequests().size(), 5u);
}

TEST(ServiceIntake, ExpiredDeferralsAreDropped) {
  const net::Topology topo = OverflowTopology();
  const media::Catalog catalog = TwoHotVideos();

  svc::ServiceConfig config;
  config.scheduler.sorp.max_iterations = 0;
  config.max_deferrals = 0;  // one strike
  svc::ReservationService service(topo, catalog, config);
  for (const workload::Request& r : OverflowRequests()) {
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(r.user)}),
              svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->rejected_expired, 0u);
  EXPECT_EQ(stats->deferred_out, 0u);
}

TEST(ServiceClock, BackgroundClockClosesCyclesUnderConcurrentSubmit) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.cycle_period_seconds = 0.02;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  service.Start();
  service.Start();  // idempotent

  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < scenario.requests.size(); i += 2) {
        const workload::Request& r = scenario.requests[i];
        if (service.Submit(r, r.start_time) == svc::SubmitOutcome::kAccepted) {
          accepted.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  // Give the clock a chance to tick at least twice before stopping; the
  // deadline keeps the test bounded on a loaded machine.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.cycle_index() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  service.Stop();
  // Final explicit close sweeps whatever the clock had not drained yet.
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_GT(service.cycle_index(), 1u);
  EXPECT_EQ(service.PendingCount(), 0u);
  EXPECT_EQ(service.CommittedRequests().size() + service.DeferredCount(),
            accepted.load());
}

TEST(ServiceOrdering, DrainOrderIsTotalAndArrivalFirst) {
  const workload::Request a{1, 2, util::Hours(3.0), 1};
  const workload::Request b{0, 9, util::Hours(5.0), 1};
  // Arrival dominates even when the request fields sort the other way.
  EXPECT_TRUE(svc::DrainOrderLess({b, util::Seconds{1.0}, 0},
                                  {a, util::Seconds{2.0}, 0}));
  // Same arrival: replay order (start, user, video) breaks the tie.
  EXPECT_TRUE(svc::DrainOrderLess({a, util::Seconds{1.0}, 0},
                                  {b, util::Seconds{1.0}, 0}));
  // Full duplicates differing only in deferral count.
  EXPECT_TRUE(svc::DrainOrderLess({a, util::Seconds{1.0}, 0},
                                  {a, util::Seconds{1.0}, 1}));
  EXPECT_FALSE(svc::DrainOrderLess({a, util::Seconds{1.0}, 0},
                                   {a, util::Seconds{1.0}, 0}));
}

TEST(ServiceSpeculation, ByteIdenticalAtAnyTimingAndProducerCount) {
  // The golden suite: the committed schedule is a pure function of the
  // canonical batch, so every speculation timing (off / full hit /
  // mid-window repair / forced fallback / snapshot mid-solve) at every
  // producer count must produce the same bytes.
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.shards = 4;
  const std::string golden = ReplayThroughService(scenario, 1, 3, config);
  ASSERT_FALSE(golden.empty());
  for (const SpecMode mode :
       {SpecMode::kOff, SpecMode::kHit, SpecMode::kMidWindow,
        SpecMode::kForcedFallback, SpecMode::kSnapshotMidSolve}) {
    for (const std::size_t producers : {1u, 2u, 8u}) {
      EXPECT_EQ(golden,
                ReplayThroughService(scenario, producers, 3, config, mode))
          << "mode " << static_cast<int>(mode) << " producers " << producers;
    }
  }
}

TEST(ServiceSpeculation, ByteIdenticalUnderAdmissionPressure) {
  // Same suite against the halving/deferral path: tight capacity plus a
  // crippled SORP budget makes the close defer work, which exercises the
  // spec-hit -> validator-fallback transition (the speculative result is
  // only attempt 1; later halving attempts must match the reference).
  const workload::Scenario scenario = SmallScenario(2.0);
  svc::ServiceConfig config;
  config.shards = 4;
  config.scheduler.sorp.max_iterations = 1;
  const std::string golden = ReplayThroughService(scenario, 1, 2, config);
  for (const SpecMode mode :
       {SpecMode::kHit, SpecMode::kMidWindow, SpecMode::kForcedFallback}) {
    for (const std::size_t producers : {1u, 2u, 8u}) {
      EXPECT_EQ(golden,
                ReplayThroughService(scenario, producers, 2, config, mode))
          << "mode " << static_cast<int>(mode) << " producers " << producers;
    }
  }
}

TEST(ServiceSpeculation, OutcomesFollowTheTimingOfTheKick) {
  const workload::Scenario scenario = SmallScenario();
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t half = requests.size() / 2;

  // Full batch speculated, nothing late: a hit.
  svc::ServiceConfig config;
  config.speculate = true;
  {
    svc::ReservationService service(scenario.topology, scenario.catalog,
                                    config);
    for (const workload::Request& r : requests) {
      ASSERT_EQ(service.Submit(r, r.start_time),
                svc::SubmitOutcome::kAccepted);
    }
    ASSERT_TRUE(service.Speculate());
    EXPECT_TRUE(service.SpeculationPending());
    EXPECT_FALSE(service.Speculate());  // one in flight at a time
    service.WaitForSpeculation();
    const auto stats = service.CloseCycle();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->speculation, svc::SpeculationOutcome::kHit);
    EXPECT_FALSE(service.SpeculationPending());
  }

  // Speculated at half, the rest arrives late: a delta repair that
  // reuses per-file plans the speculation already computed.
  {
    svc::ServiceConfig repair = config;
    repair.speculation_repair_fraction = 1.0;
    svc::ReservationService service(scenario.topology, scenario.catalog,
                                    repair);
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
                svc::SubmitOutcome::kAccepted);
    }
    ASSERT_TRUE(service.Speculate());
    for (std::size_t i = half; i < requests.size(); ++i) {
      ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
                svc::SubmitOutcome::kAccepted);
    }
    service.WaitForSpeculation();
    const auto stats = service.CloseCycle();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->speculation, svc::SpeculationOutcome::kRepair);
    EXPECT_GT(stats->spec_reused_files, 0u);
  }

  // Same timing with repair disabled: the delta forces a fallback.
  {
    svc::ServiceConfig strict = config;
    strict.speculation_repair_fraction = 0.0;
    svc::ReservationService service(scenario.topology, scenario.catalog,
                                    strict);
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
                svc::SubmitOutcome::kAccepted);
    }
    ASSERT_TRUE(service.Speculate());
    for (std::size_t i = half; i < requests.size(); ++i) {
      ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
                svc::SubmitOutcome::kAccepted);
    }
    const auto stats = service.CloseCycle();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->speculation, svc::SpeculationOutcome::kFallback);
  }
}

TEST(ServiceSpeculation, RestoreDuringSpeculationInvalidatesIt) {
  const workload::Scenario scenario = SmallScenario();
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);
  const std::size_t half = requests.size() / 2;

  svc::ServiceConfig config;
  config.speculate = true;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.CloseCycle().ok());
  const svc::ServiceSnapshot snapshot = service.Snapshot();

  // Kick a speculation over post-snapshot intake, then restore while it
  // is (potentially still) in flight: the job must be invalidated, not
  // harvested against the restored state.
  for (std::size_t i = half; i < requests.size(); ++i) {
    ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.Speculate());
  ASSERT_TRUE(service.Restore(snapshot).ok());
  EXPECT_FALSE(service.SpeculationPending());

  // A control service restored from the same snapshot with speculation
  // off must land on the same bytes.
  svc::ReservationService control(scenario.topology, scenario.catalog, {});
  ASSERT_TRUE(control.Restore(snapshot).ok());
  for (std::size_t i = half; i < requests.size(); ++i) {
    ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
    ASSERT_EQ(control.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  // The restore bumped the generation, so even a finished job reads as
  // stale — never a hit against state it did not solve for.
  EXPECT_NE(stats->speculation, svc::SpeculationOutcome::kHit);
  ASSERT_TRUE(control.CloseCycle().ok());
  EXPECT_EQ(io::ToJson(service.CommittedSchedule()).Dump(),
            io::ToJson(control.CommittedSchedule()).Dump());
}

TEST(ServiceAdmission, CopyKeySeparatesIdsAcross24BitBoundary) {
  // Regression: the old (video << 24) | node packing aliased once node
  // ids crossed 2^24 (or video ids grew past 8 bits of headroom).  These
  // pairs collided under the old key; the 32+32 split must keep them
  // (and the id halves themselves) exact.
  const media::VideoId v0 = 0, v1 = 1;
  const net::NodeId big = (1u << 24) | 7u;
  // Old scheme: (0 << 24) | ((1<<24)|7)  ==  (1 << 24) | 7.
  EXPECT_NE(svc::AdmissionCopyKey(v0, big), svc::AdmissionCopyKey(v1, 7u));
  // Old scheme: (1 << 24) | (1<<24)  ==  (2 << 24) | 0.
  EXPECT_NE(svc::AdmissionCopyKey(v1, 1u << 24),
            svc::AdmissionCopyKey(2u, 0u));
  // The halves round-trip exactly at the extremes.
  const media::VideoId vmax = 0xffffffffu;
  const net::NodeId nmax = 0xffffffffu;
  EXPECT_EQ(svc::AdmissionCopyKey(vmax, nmax) >> 32, vmax);
  EXPECT_EQ(svc::AdmissionCopyKey(vmax, nmax) & 0xffffffffu, nmax);
  EXPECT_NE(svc::AdmissionCopyKey(vmax, 0u), svc::AdmissionCopyKey(0u, nmax));
}

TEST(ServiceIntake, DeferredSetOverflowIsNotCountedAsExpiry) {
  // A full deferred set drops push-backs as rejected_deferred_full, not
  // rejected_expired: the requests had deferral budget left.
  const net::Topology topo = OverflowTopology();
  const media::Catalog catalog = TwoHotVideos();

  svc::ServiceConfig config;
  config.scheduler.sorp.max_iterations = 0;
  config.max_deferrals = 8;      // plenty of lives left
  config.deferred_capacity = 0;  // but nowhere to wait
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(topo, catalog, config);
  for (const workload::Request& r : OverflowRequests()) {
    ASSERT_EQ(service.Submit(r, util::Seconds{static_cast<double>(r.user)}),
              svc::SubmitOutcome::kAccepted);
  }
  const auto stats = service.CloseCycle();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->rejected_deferred_full, 0u);
  EXPECT_EQ(stats->rejected_expired, 0u);
  EXPECT_EQ(stats->deferred_out, 0u);
  EXPECT_EQ(metrics.GetCounter("svc.admit.rejected_deferred_full").value(),
            stats->rejected_deferred_full);
  // Nothing expired, so the expiry counter was never touched.
  EXPECT_EQ(metrics.ToJson().Dump().find("svc.admit.rejected_expired"),
            std::string::npos);
}

TEST(ServiceIntake, SkewedUsersOverflowIntoTheAlternateShard) {
  const workload::Scenario scenario = SmallScenario();
  svc::ServiceConfig config;
  config.shards = 4;
  config.shard_capacity = 2;
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  // Every request hashes to shard 0 (user % 4 == 0).  The home stripe
  // holds 2; the next 2 take the second-choice stripe; only then does
  // the spill tier engage.
  const workload::Request r{4, 0, util::Hours(1.0), 1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service.Submit(r, util::Seconds{static_cast<double>(i)}),
              svc::SubmitOutcome::kAccepted);
  }
  EXPECT_EQ(service.Submit(r, util::Seconds{4.0}),
            svc::SubmitOutcome::kDeferred);
  EXPECT_EQ(metrics.GetCounter("svc.submit.accepted_second_choice").value(),
            2u);
  EXPECT_EQ(service.PendingCount(), 5u);
  ASSERT_TRUE(service.CloseCycle().ok());
  EXPECT_EQ(service.PendingCount(), 0u);
}

TEST(ServiceObs, SpeculationCountersCoverHitAndFallback) {
  const workload::Scenario scenario = SmallScenario();
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);

  obs::MetricsRegistry metrics;
  svc::ServiceConfig config;
  config.speculate = true;
  config.speculation_repair_fraction = 0.0;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);

  // Cycle 1: full-batch speculation -> hit.
  const std::size_t half = requests.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.Speculate());
  service.WaitForSpeculation();
  ASSERT_TRUE(service.CloseCycle().ok());
  // Cycle 2: early speculation + zero repair budget -> delta fallback.
  ASSERT_EQ(service.Submit(requests[half], requests[half].start_time),
            svc::SubmitOutcome::kAccepted);
  ASSERT_TRUE(service.Speculate());
  for (std::size_t i = half + 1; i < requests.size(); ++i) {
    ASSERT_EQ(service.Submit(requests[i], requests[i].start_time),
              svc::SubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(service.CloseCycle().ok());

  const std::string json = metrics.ToJson().Dump();
  for (const char* key :
       {"svc.spec.started", "svc.spec.hits", "svc.spec.fallbacks",
        "svc.spec.fallback_delta", "svc.spec.delta_size"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(metrics.GetCounter("svc.spec.started").value(), 2u);
  EXPECT_EQ(metrics.GetCounter("svc.spec.hits").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("svc.spec.fallbacks").value(), 1u);
}

TEST(ServiceObs, CountersCoverTheSubmitAndCyclePath) {
  const workload::Scenario scenario = SmallScenario();
  obs::MetricsRegistry metrics;
  svc::ServiceConfig config;
  config.metrics = &metrics;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  const std::size_t half = scenario.requests.size() / 2;
  for (std::size_t i = 0; i < scenario.requests.size(); ++i) {
    const workload::Request& r = scenario.requests[i];
    ASSERT_EQ(service.Submit(r, r.start_time), svc::SubmitOutcome::kAccepted);
    if (i + 1 == half) {
      ASSERT_TRUE(service.CloseCycle().ok());
    }
  }
  ASSERT_TRUE(service.CloseCycle().ok());
  const std::string json = metrics.ToJson().Dump();
  for (const char* key :
       {"svc.submit.accepted", "svc.admit.committed", "svc.cycle.closed",
        "svc.cycle.close_seconds", "svc.cycle.solve_seconds",
        "svc.cycle.queue_depth"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Every close observes each stage timer exactly once.
  for (const char* timer :
       {"svc.cycle.close_seconds", "svc.cycle.admit_seconds",
        "svc.cycle.solve_seconds", "svc.cycle.validate_seconds"}) {
    EXPECT_EQ(metrics.GetTimer(timer).Snap().count, 2u) << timer;
  }
  EXPECT_EQ(metrics.GetCounter("svc.submit.accepted").value(),
            scenario.requests.size());
  EXPECT_EQ(metrics.GetCounter("svc.admit.committed").value(),
            scenario.requests.size());
}

}  // namespace
}  // namespace vor
