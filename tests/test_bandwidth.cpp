#include "ext/bandwidth.hpp"

#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "core/overflow.hpp"
#include "sim/validator.hpp"
#include "storage/stream_load.hpp"
#include "test_helpers.hpp"
#include "workload/scenario.hpp"

namespace vor::ext {
namespace {

using testing::OneVideoCatalog;

/// Chain topology with an explicit bandwidth cap on every link.
net::Topology CappedChain(std::size_t storages, double cap_streams) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  net::NodeId prev = vw;
  // 1 GB/h streams: one stream ~ 277778 B/s.
  const util::BytesPerSecond one_stream = util::GB(1.0) / util::Hours(1.0);
  for (std::size_t i = 0; i < storages; ++i) {
    const net::NodeId n =
        topo.AddStorage("IS" + std::to_string(i), util::GB(100),
                        util::StorageRate{1.0 / 3.6e12});
    topo.AddLink(prev, n, util::NetworkRate{10.0 / 1e9},
                 one_stream * cap_streams);
    prev = n;
  }
  return topo;
}

TEST(LinkLoadTrackerTest, TracksAndRemovesByFile) {
  const net::Topology topo = CappedChain(2, 1.0);
  const media::Catalog catalog = OneVideoCatalog();
  storage::StreamLoadTracker tracker(topo, catalog);
  const storage::StreamView view(&tracker);

  core::Delivery d;
  d.video = 0;
  d.route = {0, 1, 2};
  d.start = util::Hours(1);
  EXPECT_TRUE(view.RouteFeasible(d.route, d.start, 0));
  tracker.AddDelivery(d);
  // The link now carries a full stream for the playback hour.
  EXPECT_FALSE(view.RouteFeasible(d.route, util::Hours(1.5), 0));
  EXPECT_TRUE(view.RouteFeasible(d.route, util::Hours(2.5), 0));
  // ... except for the file itself, whose own stream its view leaves out.
  EXPECT_TRUE(
      tracker.ExcludingFile(0).RouteFeasible(d.route, util::Hours(1.5), 0));
  core::FileSchedule removed;
  removed.video = 0;
  tracker.ApplyCommit(removed);
  EXPECT_TRUE(view.RouteFeasible(d.route, util::Hours(1.5), 0));
}

TEST(LinkLoadTrackerTest, UncapacitatedLinksAlwaysPass) {
  net::Topology topo;
  const net::NodeId vw = topo.AddWarehouse("VW");
  const net::NodeId a = topo.AddStorage("A", util::GB(1), util::StorageRate{0});
  topo.AddLink(vw, a, util::NetworkRate{1e-9});  // no cap
  const media::Catalog catalog = OneVideoCatalog();
  storage::StreamLoadTracker tracker(topo, catalog);
  const storage::StreamView view(&tracker);
  for (int i = 0; i < 50; ++i) {
    core::Delivery d;
    d.video = 0;
    d.route = {vw, a};
    d.start = util::Hours(1);
    EXPECT_TRUE(view.RouteFeasible(d.route, d.start, 0));
    tracker.AddDelivery(d);
  }
  EXPECT_DOUBLE_EQ(tracker.WorstUtilization(), 0.0);  // nothing tracked
  EXPECT_TRUE(view.ConsultedKeys().empty());
}

TEST(LinkLoadTrackerTest, ViewRecordsCappedResourcesWithoutLoad) {
  // VW -> IS0 -> IS1, every link capped, IS0 I/O-capped.  Nothing is
  // loaded yet, but a later commit could load any of them, so the view
  // must report each one it checked.
  net::Topology topo = CappedChain(2, 2.0);
  topo.SetNodeIoCap(1, util::GB(1.0) / util::Hours(1.0));
  const media::Catalog catalog = OneVideoCatalog();
  storage::StreamLoadTracker tracker(topo, catalog);
  const storage::StreamView view = tracker.ExcludingFile(0);
  EXPECT_TRUE(view.RouteFeasible({1, 2}, util::Hours(1), 0));
  const std::vector<std::uint64_t> keys = view.ConsultedKeys();
  // Link IS0-IS1 and IS0's serving I/O.
  ASSERT_EQ(keys.size(), 2u);
  for (const std::uint64_t key : keys) EXPECT_EQ(tracker.Generation(key), 0u);
}

TEST(LinkLoadTrackerTest, CommitBumpsOnlyResourcesWhoseLoadChanged) {
  const net::Topology topo = CappedChain(2, 4.0);
  const media::Catalog catalog = OneVideoCatalog();
  storage::StreamLoadTracker tracker(topo, catalog);

  core::FileSchedule file;
  file.video = 0;
  core::Delivery far;
  far.video = 0;
  far.route = {0, 1, 2};
  far.start = util::Hours(1);
  file.deliveries.push_back(far);
  tracker.ApplyCommit(file);

  storage::StreamView probe(&tracker);
  ASSERT_TRUE(probe.RouteFeasible({0, 1, 2}, util::Hours(1), 0));
  const std::vector<std::uint64_t> keys = probe.ConsultedKeys();
  ASSERT_EQ(keys.size(), 2u);  // VW-IS0 and IS0-IS1
  std::vector<std::uint64_t> before;
  for (const std::uint64_t key : keys) {
    before.push_back(tracker.Generation(key));
  }
  EXPECT_GT(before[0], 0u);
  EXPECT_GT(before[1], 0u);

  // Re-committing the same streams changes no load: no generation moves.
  tracker.ApplyCommit(file);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(tracker.Generation(keys[i]), before[i]);
  }
  // Serving from IS0 instead frees VW-IS0 but keeps IS0-IS1 loaded the
  // same way: only the backbone link advances.
  file.deliveries[0].route = {1, 2};
  tracker.ApplyCommit(file);
  EXPECT_GT(tracker.Generation(keys[0]), before[0]);
  EXPECT_EQ(tracker.Generation(keys[1]), before[1]);
}

TEST(BandwidthSchedulerTest, NoCapsReducesToPlainScheduler) {
  const workload::Scenario scenario = workload::MakeScenario({});
  core::VorScheduler plain(scenario.topology, scenario.catalog);
  BandwidthAwareScheduler aware(scenario.topology, scenario.catalog);
  const auto a = plain.Solve(scenario.requests);
  const auto b = aware.Solve(scenario.requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->final_cost.value(), b->final_cost.value(), 1e-6);
  EXPECT_EQ(b->overloaded_links, 0u);
  EXPECT_EQ(b->forced_requests, 0u);
}

TEST(BandwidthSchedulerTest, CapsSpreadLoadWithoutOverload) {
  // 3 users want the same title at overlapping times in the same (far)
  // neighborhood; each link only carries 2 streams.  Without caps all
  // three streams would cross VW->IS0 simultaneously.
  const net::Topology topo = CappedChain(3, 2.0);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.00), 3},
      {1, 0, util::Hours(1.10), 3},
      {2, 0, util::Hours(1.20), 3},
  };
  BandwidthAwareScheduler scheduler(topo, catalog);
  const auto result = scheduler.Solve(requests);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->forced_requests, 0u);
  EXPECT_EQ(result->overloaded_links, 0u);
  EXPECT_LE(result->worst_utilization, 1.0 + 1e-9);

  sim::ValidationOptions options;
  const auto report = sim::ValidateSchedule(result->schedule, requests,
                                            scheduler.cost_model(), options);
  EXPECT_TRUE(report.ok());
}

TEST(BandwidthSchedulerTest, ImpossibleDemandIsForcedAndReported) {
  // Cap of ~0.5 streams: even one stream overloads every link, but each
  // reservation must still be honoured.
  const net::Topology topo = CappedChain(2, 0.5);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 2},
  };
  BandwidthAwareScheduler scheduler(topo, catalog);
  const auto result = scheduler.Solve(requests);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schedule.TotalDeliveries(), 1u);
  EXPECT_EQ(result->forced_requests, 1u);
  EXPECT_GT(result->worst_utilization, 1.0);
  EXPECT_GT(result->overloaded_links, 0u);
}

TEST(BandwidthSchedulerTest, CachingRelievesSaturatedBackbone) {
  // One unit-capacity backbone link; two same-title requests staggered by
  // more than a playback so the backbone is only needed once if the title
  // is cached behind it.
  const net::Topology topo = CappedChain(2, 1.0);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.0), 2},
      {1, 0, util::Hours(1.5), 2},  // overlaps the first stream
  };
  BandwidthAwareScheduler scheduler(topo, catalog);
  const auto result = scheduler.Solve(requests);
  ASSERT_TRUE(result.ok());
  // The second request cannot share the VW->IS0->IS1 path (saturated by
  // the first stream); a cache (anchored to the first stream) serves it
  // locally with no backbone use at all.
  EXPECT_EQ(result->forced_requests, 0u);
  EXPECT_EQ(result->overloaded_links, 0u);
  EXPECT_GE(result->schedule.TotalResidencies(), 1u);
}

TEST(BandwidthSchedulerTest, StorageOverflowStillResolvedUnderCaps) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  workload::Scenario scenario = workload::MakeScenario(params);
  // Add generous caps (so they bind only occasionally).
  scenario.topology.SetUniformBandwidthCap(util::BytesPerSecond{50e6});
  BandwidthAwareScheduler scheduler(scenario.topology, scenario.catalog);
  const auto result = scheduler.Solve(scenario.requests);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->sorp.Resolved());
  EXPECT_TRUE(core::DetectOverflows(result->schedule, scheduler.cost_model())
                  .empty());
}

TEST(StorageIoCapTest, TrackerLimitsOriginServing) {
  net::Topology topo = CappedChain(2, /*cap_streams=*/100.0);
  const util::BytesPerSecond one_stream = util::GB(1.0) / util::Hours(1.0);
  topo.SetUniformStorageIoCap(one_stream * 1.0);  // each IS serves 1 stream
  const media::Catalog catalog = OneVideoCatalog();
  storage::StreamLoadTracker tracker(topo, catalog);
  const storage::StreamView view(&tracker);

  core::Delivery replay;
  replay.video = 0;
  replay.route = {1, 2};  // served out of IS0's disks
  replay.start = util::Hours(1);
  EXPECT_TRUE(view.RouteFeasible(replay.route, replay.start, 0));
  tracker.AddDelivery(replay);
  // Second concurrent replay from the same storage is refused...
  EXPECT_FALSE(view.RouteFeasible(replay.route, util::Hours(1.5), 0));
  EXPECT_EQ(tracker.OverloadedNodes(), 0u);
  // ...but the warehouse is never I/O capped.
  EXPECT_TRUE(view.RouteFeasible({0, 1, 2}, util::Hours(1.5), 0));
  // And a disjoint-in-time replay is fine.
  EXPECT_TRUE(view.RouteFeasible(replay.route, util::Hours(3.0), 0));
}

TEST(StorageIoCapTest, SchedulerSpreadsReplaysAcrossStorages) {
  // Three same-title overlapping requests in a far neighborhood; each
  // storage can serve only one stream at a time, links are generous.
  net::Topology topo = CappedChain(3, /*cap_streams=*/100.0);
  const util::BytesPerSecond one_stream = util::GB(1.0) / util::Hours(1.0);
  topo.SetUniformStorageIoCap(one_stream * 1.0);
  const media::Catalog catalog = OneVideoCatalog();
  const std::vector<workload::Request> requests{
      {0, 0, util::Hours(1.00), 3},
      {1, 0, util::Hours(1.10), 3},
      {2, 0, util::Hours(1.20), 3},
  };
  BandwidthAwareScheduler scheduler(topo, catalog);
  const auto result = scheduler.Solve(requests);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->forced_requests, 0u);
  EXPECT_EQ(result->overloaded_nodes, 0u);
  EXPECT_LE(result->worst_utilization, 1.0 + 1e-9);
  // Replays must come from at least two distinct origins (or the VW).
  const auto report = sim::ValidateSchedule(result->schedule, requests,
                                            scheduler.cost_model());
  EXPECT_TRUE(report.ok());
}

TEST(StorageIoCapTest, IoCapSurvivesSerialization) {
  net::Topology topo = CappedChain(2, 4.0);
  topo.SetNodeIoCap(1, util::BytesPerSecond{123456.0});
  const auto json = io::ToJson(topo);
  const auto restored = io::TopologyFromJson(json);
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored->node(1).io_cap.value(), 123456.0);
  EXPECT_DOUBLE_EQ(restored->node(2).io_cap.value(), 0.0);
}

// ---- pinned output --------------------------------------------------------
//
// BandwidthAwareScheduler's output on every capped scenario above plus the
// bench_bandwidth sweep (caps of 2/4/8/16 concurrent streams per link),
// recorded from the serial, memo-free bandwidth engine and required
// unchanged at any thread count now that its dry runs are memoized and
// fan out.  The schedule is pinned by the FNV-1a hash of its JSON dump.

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct BandwidthCase {
  net::Topology topology;
  media::Catalog catalog;
  std::vector<workload::Request> requests;
};

struct PinnedBandwidth {
  const char* name;
  std::function<BandwidthCase()> make;
  std::uint64_t schedule_hash;
  std::size_t forced_requests;
  std::size_t overloaded_links;
  std::size_t overloaded_nodes;
  double worst_utilization;
  std::size_t victims_rescheduled;
  std::size_t evaluations;
};

BandwidthCase ChainCase(std::size_t storages, double cap_streams,
                        double io_cap_streams,
                        std::vector<workload::Request> requests) {
  BandwidthCase c{CappedChain(storages, cap_streams), OneVideoCatalog(),
                  std::move(requests)};
  if (io_cap_streams > 0.0) {
    c.topology.SetUniformStorageIoCap(util::GB(1.0) / util::Hours(1.0) *
                                      io_cap_streams);
  }
  return c;
}

BandwidthCase TightTable4Case() {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  workload::Scenario scenario = workload::MakeScenario(params);
  scenario.topology.SetUniformBandwidthCap(util::BytesPerSecond{50e6});
  return {std::move(scenario.topology), std::move(scenario.catalog),
          std::move(scenario.requests)};
}

/// bench_bandwidth's scenario at `cap` concurrent streams per link.
BandwidthCase BenchSweepCase(double cap) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(8.0);
  params.nrate_per_gb = 500.0;
  params.srate_per_gb_hour = 5.0;
  workload::Scenario scenario = workload::MakeScenario(params);
  const double one_stream = 3.3e9 / (95.0 * 60.0);
  scenario.topology.SetUniformBandwidthCap(
      util::BytesPerSecond{cap * one_stream});
  return {std::move(scenario.topology), std::move(scenario.catalog),
          std::move(scenario.requests)};
}

std::vector<PinnedBandwidth> PinnedBandwidthCases() {
  const std::vector<workload::Request> three_far{
      {0, 0, util::Hours(1.00), 3},
      {1, 0, util::Hours(1.10), 3},
      {2, 0, util::Hours(1.20), 3},
  };
  return {
      {"caps_spread_load",
       [=] { return ChainCase(3, 2.0, 0.0, three_far); },
       0x3e9ba5d45c24ad9eULL, 0, 0, 0, 0.5, 0, 0},
      {"impossible_demand",
       [] { return ChainCase(2, 0.5, 0.0, {{0, 0, util::Hours(1.0), 2}}); },
       0xcc68443c8b674460ULL, 1, 2, 0, 2.0, 0, 0},
      {"caching_relieves_backbone",
       [] {
         return ChainCase(2, 1.0, 0.0,
                          {{0, 0, util::Hours(1.0), 2},
                           {1, 0, util::Hours(1.5), 2}});
       },
       0xfaa929e334d41c2bULL, 0, 0, 0, 1.0, 0, 0},
      {"storage_overflow_under_caps", TightTable4Case,
       0x63993d4ff80330fdULL, 0, 0, 0, 0.11193709460441681, 15, 234},
      {"io_caps_spread_replays",
       [=] { return ChainCase(3, 100.0, 1.0, three_far); },
       0xf10c032a447badc4ULL, 0, 0, 0, 1.0, 0, 0},
      {"bench_cap_2", [] { return BenchSweepCase(2); },
       0xb577b2faa747436aULL, 111, 19, 0, 4.802925739816061, 14, 338},
      {"bench_cap_4", [] { return BenchSweepCase(4); },
       0xe3031892121854b8ULL, 49, 5, 0, 2.4014628699080305, 10, 176},
      {"bench_cap_8", [] { return BenchSweepCase(8); },
       0x2674e780007161c6ULL, 5, 2, 0, 1.2084118167522271, 10, 171},
      {"bench_cap_16", [] { return BenchSweepCase(16); },
       0x2674e780007161c6ULL, 0, 0, 0, 0.60420590837611354, 10, 171},
  };
}

TEST(BandwidthGoldenTest, PinnedOutputAtAnyThreadCount) {
  for (const PinnedBandwidth& pin : PinnedBandwidthCases()) {
    const BandwidthCase c = pin.make();
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(pin.name) + " threads=" +
                   std::to_string(threads));
      core::SchedulerOptions options;
      options.parallel.threads = threads;
      BandwidthAwareScheduler scheduler(c.topology, c.catalog, options);
      const auto result = scheduler.Solve(c.requests);
      ASSERT_TRUE(result.ok());
      const std::uint64_t hash =
          Fnv1a(io::ToJson(result->schedule).Dump(2));
      char actual[256];
      std::snprintf(actual, sizeof(actual),
                    "0x%016llxULL, %zu, %zu, %zu, %.17g, %zu, %zu",
                    static_cast<unsigned long long>(hash),
                    result->forced_requests, result->overloaded_links,
                    result->overloaded_nodes, result->worst_utilization,
                    result->sorp.victims_rescheduled,
                    result->sorp.evaluations);
      SCOPED_TRACE(std::string("actual: ") + actual);
      EXPECT_EQ(hash, pin.schedule_hash);
      EXPECT_EQ(result->forced_requests, pin.forced_requests);
      EXPECT_EQ(result->overloaded_links, pin.overloaded_links);
      EXPECT_EQ(result->overloaded_nodes, pin.overloaded_nodes);
      EXPECT_EQ(result->worst_utilization, pin.worst_utilization);
      EXPECT_EQ(result->sorp.victims_rescheduled, pin.victims_rescheduled);
      EXPECT_EQ(result->sorp.evaluations, pin.evaluations);
      // The memo serves the bandwidth path too: every candidate is either
      // replayed or re-run.
      EXPECT_EQ(result->sorp.memo_hits + result->sorp.memo_misses,
                result->sorp.evaluations);
    }
  }
}

}  // namespace
}  // namespace vor::ext
