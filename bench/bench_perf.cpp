// Microbenchmarks (google-benchmark) of the library's hot paths: routing,
// the analytic timelines, Zipf sampling, the phase-1 greedy, and the full
// two-phase scheduler at paper scale.
//
// `bench_perf --baseline [out.json]` skips google-benchmark and instead
// records the perf trajectory: end-to-end solve wall-time serial vs
// N-threaded (solver-internal fan-out) and a Table-5-grid sweep serial vs
// pooled, written as BENCH_perf.json so successive PRs can compare.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "baseline/online_lru.hpp"
#include "core/ivsp.hpp"
#include "core/scheduler.hpp"
#include "core/shootout.hpp"
#include "core/sorp.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "rpc/load.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "storage/usage_timeline.hpp"
#include "svc/reservation_service.hpp"
#include "util/json.hpp"
#include "util/piecewise.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"
#include "workload/generator.hpp"
#include "workload/scale.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stream.hpp"

namespace {

using namespace vor;

void BM_ZipfAliasSample(benchmark::State& state) {
  const util::ZipfDistribution zipf(
      static_cast<std::size_t>(state.range(0)), 0.271);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfAliasSample)->Arg(500)->Arg(100000);

void BM_ZipfInversionSample(benchmark::State& state) {
  const util::ZipfDistribution zipf(
      static_cast<std::size_t>(state.range(0)), 0.271);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.SampleByInversion(rng));
  }
}
BENCHMARK(BM_ZipfInversionSample)->Arg(500)->Arg(100000);

void BM_RouterConstruction(benchmark::State& state) {
  net::PaperTopologyParams params;
  params.storage_count = static_cast<std::size_t>(state.range(0));
  params.hub_count = std::max<std::size_t>(2, params.storage_count / 5);
  params.base_nrate = util::NetworkRate{5e-7};
  const net::Topology topo = net::MakePaperTopology(params);
  for (auto _ : state) {
    net::Router router(topo);
    benchmark::DoNotOptimize(router.RouteRate(0, 1));
  }
}
BENCHMARK(BM_RouterConstruction)->Arg(19)->Arg(100)->Arg(400);

void BM_PiecewiseRegionsAbove(benchmark::State& state) {
  util::Rng rng(7);
  util::PiecewiseLinear timeline;
  for (int i = 0; i < state.range(0); ++i) {
    const double t0 = rng.Uniform(0.0, 86000.0);
    const double t1 = t0 + rng.Uniform(100.0, 20000.0);
    timeline.Add(util::LinearPiece{util::Seconds{t0}, util::Seconds{t1},
                                   util::Seconds{t1 + 5400.0},
                                   rng.Uniform(1e9, 4e9),
                                   static_cast<std::uint64_t>(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(timeline.RegionsAbove(5e9));
  }
}
BENCHMARK(BM_PiecewiseRegionsAbove)->Arg(16)->Arg(64)->Arg(256);

void BM_IvspSolvePaperScale(benchmark::State& state) {
  const workload::Scenario scenario = workload::MakeScenario({});
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::IvspSolve(scenario.requests, cm, core::IvspOptions{}));
  }
}
BENCHMARK(BM_IvspSolvePaperScale);

void BM_FullSolveLooseCapacity(benchmark::State& state) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(50);
  const workload::Scenario scenario = workload::MakeScenario(params);
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  for (auto _ : state) {
    auto result = scheduler.Solve(scenario.requests);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSolveLooseCapacity);

void BM_FullSolveTightCapacity(benchmark::State& state) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  for (auto _ : state) {
    auto result = scheduler.Solve(scenario.requests);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSolveTightCapacity);

void BM_FullSolveLargeScale(benchmark::State& state) {
  // Beyond-paper scale: 50 neighborhoods x 20 users = 1000 reservations
  // over 2000 titles.
  workload::ScenarioParams params;
  params.storage_count = static_cast<std::size_t>(state.range(0));
  params.users_per_neighborhood = 20;
  params.catalog_size = 2000;
  params.is_capacity = util::GB(8);
  const workload::Scenario scenario = workload::MakeScenario(params);
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog);
  for (auto _ : state) {
    auto result = scheduler.Solve(scenario.requests);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenario.requests.size()));
}
BENCHMARK(BM_FullSolveLargeScale)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_OnlineLruLargeScale(benchmark::State& state) {
  workload::ScenarioParams params;
  params.storage_count = 50;
  params.users_per_neighborhood = 20;
  params.catalog_size = 2000;
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::OnlineLruSchedule(scenario.requests, cm));
  }
}
BENCHMARK(BM_OnlineLruLargeScale)->Unit(benchmark::kMillisecond);

void BM_UsageMapBuild(benchmark::State& state) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  const workload::Scenario scenario = workload::MakeScenario(params);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  const core::Schedule schedule =
      core::IvspSolve(scenario.requests, cm, core::IvspOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::BuildUsage(schedule, cm));
  }
}
BENCHMARK(BM_UsageMapBuild);

void BM_FullSolveTightCapacityThreaded(benchmark::State& state) {
  workload::ScenarioParams params;
  params.is_capacity = util::GB(5);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  core::SchedulerOptions options;
  options.parallel.threads = static_cast<std::size_t>(state.range(0));
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog,
                                     options);
  for (auto _ : state) {
    auto result = scheduler.Solve(scenario.requests);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullSolveTightCapacityThreaded)->Arg(1)->Arg(2)->Arg(8);

// ---- perf baseline (BENCH_perf.json) ------------------------------------

double SecondsOf(const std::function<void()>& work) {
  const auto t0 = std::chrono::steady_clock::now();
  work();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---- SORP stress scenario ------------------------------------------------
//
// The Table-4 scenarios solve in ~2ms, which is noise territory for
// algorithmic A/Bs.  This one is sized so phase 2 dominates visibly:
// 64 intermediate storages x 312 users = 19968 reservations over a
// 2000-title catalog, with capacity tight enough for a long multi-round
// overflow resolution.  Used by `--baseline` (SORP timing) and `--smoke`
// (CI guard).
workload::Scenario MakeStressScenario() {
  const auto env_or = [](const char* name, double fallback) {
    const char* value = std::getenv(name);
    return value != nullptr ? std::atof(value) : fallback;
  };
  workload::ScenarioParams params;
  params.storage_count =
      static_cast<std::size_t>(env_or("VOR_STRESS_IS", 64));
  params.users_per_neighborhood =
      static_cast<std::size_t>(env_or("VOR_STRESS_USERS", 312));
  params.catalog_size =
      static_cast<std::size_t>(env_or("VOR_STRESS_CATALOG", 2000));
  params.is_capacity = util::GB(env_or("VOR_STRESS_CAP_GB", 150));
  params.nrate_per_gb = env_or("VOR_STRESS_NRATE", 1000);
  params.srate_per_gb_hour = env_or("VOR_STRESS_SRATE", 3);
  params.zipf_alpha = env_or("VOR_STRESS_ALPHA", 0.271);

  // Like workload::MakeScenario, but with the hub tier widened: the stock
  // 4-hub metro funnels nearly all caching onto a couple of hubs, which
  // turns phase 2 into a single-node grind.  More hubs spread the
  // overflow across the tree, the shape SORP is designed for.
  workload::Scenario s;
  s.params = params;
  net::PaperTopologyParams topo;
  topo.storage_count = params.storage_count;
  topo.hub_count = static_cast<std::size_t>(
      env_or("VOR_STRESS_HUBS", params.storage_count / 4.0));
  topo.storage_capacity = params.is_capacity;
  topo.srate = params.srate();
  topo.base_nrate = params.nrate();
  topo.seed = params.seed;
  s.topology = net::MakePaperTopology(topo);

  // Hub capacity defaults to the leaf capacity (uniform tree).  The knob
  // stays for tiered experiments (generous hubs push overflow out to the
  // leaves), but the recorded baseline uses the uniform shape: every tier
  // overflows, so dry runs consult hub and leaf timelines alike and the
  // memo's consulted-node validation is exercised end to end.
  const double hub_cap_gb = env_or("VOR_STRESS_HUB_CAP_GB", 150);
  for (net::NodeId n = 0; n < s.topology.node_count(); ++n) {
    if (s.topology.node(n).name.rfind("IS-hub", 0) == 0) {
      s.topology.SetNodeCapacity(n, util::GB(hub_cap_gb));
    }
  }

  media::CatalogParams cat;
  cat.count = params.catalog_size;
  cat.mean_size = params.mean_video_size;
  cat.seed = params.seed ^ 0xCA7A106ULL;
  s.catalog = media::MakeSyntheticCatalog(cat);

  workload::WorkloadParams wl;
  wl.users_per_neighborhood = params.users_per_neighborhood;
  wl.zipf_alpha = params.zipf_alpha;
  wl.cycle_length = params.cycle_length;
  wl.profile = params.start_profile;
  wl.seed = params.seed ^ 0x3E9E575ULL;
  s.requests = workload::GenerateRequests(s.topology, s.catalog, wl);
  return s;
}

// Phase-1 overcommits the 150GB tree several-fold, so a full resolution
// would run for hundreds of rounds.  The timing bounds the loop at a fixed
// round budget instead, recorded in the output, so runs stay comparable.
constexpr std::size_t kStressMaxRounds = 16;

struct StressRun {
  double seconds = 0.0;
  core::SorpStats stats;
};

StressRun TimeSorpStress(const workload::Scenario& scenario,
                         const core::CostModel& cm,
                         const core::Schedule& phase1,
                         obs::MetricsRegistry* registry = nullptr) {
  core::Schedule schedule = phase1;  // copied outside the timed region
  core::SorpOptions options;
  options.max_iterations = kStressMaxRounds;
  options.metrics = registry;
  StressRun run;
  run.seconds = SecondsOf([&] {
    run.stats = core::SorpSolve(schedule, scenario.requests, cm, options);
  });
  return run;
}

util::Json RunSorpStressSection() {
  const workload::Scenario scenario = MakeStressScenario();
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  core::Schedule phase1;
  const double ivsp_seconds = SecondsOf([&] {
    phase1 = core::IvspSolve(scenario.requests, cm, core::IvspOptions{});
  });

  // Single-threaded, so the timing measures the algorithm, not pool
  // effects.
  const StressRun run = TimeSorpStress(scenario, cm, phase1);

  util::JsonObject doc;
  doc["scenario"] = "64 IS x 312 users (19968 req), 2000 titles, 150GB IS";
  doc["hardware_threads"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  doc["max_rounds"] = kStressMaxRounds;
  doc["requests"] = scenario.requests.size();
  doc["files"] = phase1.files.size();
  doc["residencies"] = phase1.TotalResidencies();
  doc["ivsp_seconds"] = ivsp_seconds;
  doc["seconds"] = run.seconds;
  doc["rounds"] = run.stats.victims_rescheduled;
  doc["evaluations"] = run.stats.evaluations;
  doc["resolved"] = run.stats.Resolved();
  doc["usage_rebuilds"] = run.stats.usage_rebuilds;
  doc["memo_hits"] = run.stats.memo_hits;
  doc["memo_misses"] = run.stats.memo_misses;
  return util::Json(std::move(doc));
}

/// Smoke-scale A/B of the pipelined cycle close: the same two-cycle
/// replay with speculation off and on, with the speculation deliberately
/// kicked when only half the window is in (so the close exercises the
/// delta-repair / fallback machinery, not just the full-hit fast path).
/// Returns whether the two committed schedules are byte-identical.
bool SvcSpeculationIdentityCheck(std::string* detail) {
  workload::ScenarioParams params;
  params.storage_count = 8;
  params.users_per_neighborhood = 64;
  params.catalog_size = 200;
  params.is_capacity = util::GB(20);
  params.nrate_per_gb = 1000;
  params.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(params);
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);

  std::size_t spec_closes_not_missed = 0;
  const auto replay = [&](bool speculate) {
    svc::ServiceConfig config;
    config.speculate = speculate;
    svc::ReservationService service(scenario.topology, scenario.catalog,
                                    config);
    constexpr std::size_t kCycles = 2;
    const std::size_t per_cycle = (requests.size() + kCycles - 1) / kCycles;
    for (std::size_t c = 0; c < kCycles; ++c) {
      const std::size_t begin = c * per_cycle;
      const std::size_t end = std::min(requests.size(), begin + per_cycle);
      const std::size_t mid = begin + (end - begin) / 2;
      for (std::size_t i = begin; i < mid; ++i) {
        benchmark::DoNotOptimize(
            service.Submit(requests[i], requests[i].start_time));
      }
      if (speculate) (void)service.Speculate();
      for (std::size_t i = mid; i < end; ++i) {
        benchmark::DoNotOptimize(
            service.Submit(requests[i], requests[i].start_time));
      }
      if (speculate) service.WaitForSpeculation();
      auto stats = service.CloseCycle();
      if (!stats.ok()) return std::string();  // empty fails the check
      if (speculate &&
          stats->speculation != svc::SpeculationOutcome::kMiss) {
        ++spec_closes_not_missed;
      }
    }
    return io::ToJson(service.CommittedSchedule()).Dump(2);
  };
  const std::string plain = replay(false);
  const std::string spec = replay(true);
  if (detail != nullptr) {
    *detail = "speculation engaged on " +
              std::to_string(spec_closes_not_missed) + "/2 close(s)";
  }
  return !plain.empty() && plain == spec;
}

// ---- codec A/B -----------------------------------------------------------

/// Synthetic trace in canonical replay order (no scenario machinery, so
/// record counts scale to millions without generator cost).
workload::Request SyntheticRequest(std::size_t i) {
  workload::Request r;
  r.user = static_cast<workload::UserId>(i % 100000);
  r.video = static_cast<media::VideoId>((i * 2654435761u) % 2000);
  // Strictly increasing starts (0.125 is exact in binary) keep the
  // record-at-a-time writer in canonical replay order without sorting.
  r.start_time = util::Seconds{static_cast<double>(i) * 0.125};
  r.neighborhood = static_cast<net::NodeId>(i % 64);
  return r;
}

std::vector<workload::Request> SyntheticTrace(std::size_t count) {
  std::vector<workload::Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(SyntheticRequest(i));
  }
  workload::SortForReplay(requests);
  return requests;
}

/// Encode/decode wall-times of the vor-bin codec against the JSON
/// pipeline on the same trace.  The recorded `decode_speedup_vs_json`
/// is the headline number: binary decode throughput over JSON parse +
/// deserialize throughput.
util::Json RunCodecSection() {
  constexpr std::size_t kCodecRequests = 200000;
  const std::vector<workload::Request> requests =
      SyntheticTrace(kCodecRequests);

  std::string bin;
  const double bin_encode = SecondsOf([&] { bin = io::TraceToBinary(requests); });
  util::Result<std::vector<workload::Request>> bin_decoded(
      std::vector<workload::Request>{});
  const double bin_decode =
      SecondsOf([&] { bin_decoded = io::TraceFromBinary(bin); });

  std::string json_text;
  const double json_encode =
      SecondsOf([&] { json_text = io::ToJson(requests).Dump(); });
  util::Result<std::vector<workload::Request>> json_decoded(
      std::vector<workload::Request>{});
  const double json_decode = SecondsOf([&] {
    auto parsed = util::Json::Parse(json_text);
    json_decoded = parsed.ok()
                       ? io::RequestsFromJson(*parsed)
                       : util::Result<std::vector<workload::Request>>(
                             parsed.error());
  });

  util::JsonObject doc;
  if (!bin_decoded.ok() || !json_decoded.ok() ||
      bin_decoded->size() != requests.size() ||
      json_decoded->size() != requests.size()) {
    doc["error"] = "codec round trip failed";
    return util::Json(std::move(doc));
  }
  doc["requests"] = kCodecRequests;
  doc["hardware_threads"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  doc["binary_bytes"] = bin.size();
  doc["json_bytes"] = json_text.size();
  doc["binary_encode_seconds"] = bin_encode;
  doc["binary_decode_seconds"] = bin_decode;
  doc["json_encode_seconds"] = json_encode;
  doc["json_parse_seconds"] = json_decode;
  doc["decode_speedup_vs_json"] =
      bin_decode > 0.0 ? json_decode / bin_decode : 0.0;
  doc["size_ratio_vs_json"] =
      bin.empty() ? 0.0
                  : static_cast<double>(json_text.size()) /
                        static_cast<double>(bin.size());
  return util::Json(std::move(doc));
}

#if defined(__unix__)
double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}
#endif

/// Streams a 1M-request binary trace written record-at-a-time through a
/// file sink, and checks the replay never materializes the full request
/// vector: peak RSS growth across the replay stays far below the ~30 MB
/// the vector alone would need.  Returns false (with `detail`) on any
/// failure.  Must run before the allocation-heavy smoke sections, since
/// ru_maxrss is a lifetime peak.
bool StreamingReplayRssCheck(std::string* detail) {
  constexpr std::size_t kStreamRequests = 1000000;
  const std::string path = "bench_perf_stream_trace.vorb";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      *detail = "cannot open " + path;
      return false;
    }
    io::BinaryWriter writer(
        [&out](const char* data, std::size_t n) {
          out.write(data, static_cast<std::streamsize>(n));
        },
        io::BinaryKind::kTrace);
    // One chunk's worth of records in memory at a time, never the trace.
    std::vector<workload::Request> chunk;
    chunk.reserve(io::kTraceChunkRecords);
    for (std::size_t i = 0; i < kStreamRequests; ++i) {
      chunk.push_back(SyntheticRequest(i));
      if (chunk.size() == io::kTraceChunkRecords) {
        io::WriteRequestChunk(writer, io::kSecTraceChunk, chunk.data(),
                              chunk.size());
        chunk.clear();
      }
    }
    if (!chunk.empty()) {
      io::WriteRequestChunk(writer, io::kSecTraceChunk, chunk.data(),
                            chunk.size());
    }
    writer.Finish();
  }

#if defined(__unix__)
  const double rss_before = PeakRssMb();
#endif
  std::size_t streamed = 0;
  bool ok = true;
  {
    auto stream = workload::TraceStream::OpenFile(path);
    if (!stream.ok()) {
      *detail = stream.error().message;
      std::remove(path.c_str());
      return false;
    }
    workload::Request r;
    while (true) {
      const auto more = stream->Next(r);
      if (!more.ok()) {
        *detail = more.error().message;
        ok = false;
        break;
      }
      if (!*more) break;
      benchmark::DoNotOptimize(r);
      ++streamed;
    }
  }
  std::remove(path.c_str());
  if (!ok) return false;
  if (streamed != kStreamRequests) {
    *detail = "streamed " + std::to_string(streamed) + " of " +
              std::to_string(kStreamRequests);
    return false;
  }
#if defined(__unix__)
  const double rss_after = PeakRssMb();
  const double growth = rss_after - rss_before;
  *detail = "1M requests, peak RSS growth " + std::to_string(growth) + " MB";
  // The materialized vector alone is ~30 MB (plus growth doubling);
  // the streaming window is one 4096-record chunk.
  if (growth > 8.0) return false;
#else
  *detail = "1M requests (RSS check skipped: no getrusage)";
#endif
  return true;
}

/// CI smoke: one stress solve; fails on metrics-schema drift
/// (a renamed/removed SORP counter) or a dead memo (zero hit-rate on a
/// scenario built to produce hits).
int RunSmoke() {
  // Runs first: ru_maxrss is a lifetime peak, so the bounded-memory claim
  // is only meaningful before the stress scenario inflates the footprint.
  std::string stream_detail;
  const bool stream_bounded = StreamingReplayRssCheck(&stream_detail);

  const workload::Scenario scenario = MakeStressScenario();
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  const core::Schedule phase1 =
      core::IvspSolve(scenario.requests, cm, core::IvspOptions{});
  obs::MetricsRegistry registry;
  const StressRun run =
      TimeSorpStress(scenario, cm, phase1, &registry);
  const std::string metrics_json = registry.ToJson().Dump(2);

  int failures = 0;
  const auto require = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
    if (!ok) ++failures;
  };

  require(run.stats.HadOverflow(), "stress scenario engages SORP");
  require(run.stats.victims_rescheduled > 0, "victims rescheduled > 0");
  require(run.stats.memo_hits > 0, "memo hit-rate non-zero");
  require(run.stats.memo_hits + run.stats.memo_misses ==
              run.stats.evaluations,
          "hits + misses == evaluations");
  require(run.stats.usage_rebuilds == 1,
          "SORP builds usage exactly once");
  for (const std::string key :
       {"sorp.rounds", "sorp.candidates_evaluated", "sorp.memo.hits",
        "sorp.memo.misses", "sorp.usage_rebuilds", "sorp.victims_rescheduled",
        "sorp.initial_overflow_windows", "sorp.evaluation",
        "sorp.reschedule.candidates_priced"}) {
    require(metrics_json.find('"' + key + '"') != std::string::npos,
            "metrics schema has " + key);
  }

  require(stream_bounded,
          "streaming replay keeps memory bounded (" + stream_detail + ")");

  std::string spec_detail;
  const bool spec_identical = SvcSpeculationIdentityCheck(&spec_detail);
  require(spec_identical,
          "speculative and non-speculative schedules byte-identical (" +
              spec_detail + ")");

  std::cout << "smoke: sorp " << run.seconds << "s, "
            << run.stats.victims_rescheduled << " rounds, "
            << run.stats.memo_hits << " memo hits / "
            << run.stats.memo_misses << " misses, "
            << (run.stats.Resolved() ? "resolved" : "UNRESOLVED") << '\n';
  if (failures != 0) {
    std::cerr << "bench_perf --smoke: " << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "bench_perf --smoke: all checks passed\n";
  return 0;
}

// ---- region-sharded SORP at million-user scale ---------------------------
//
// The tentpole A/B: a region-skewed scale-generator workload (full
// affinity, so the file population partitions into one shard per natural
// region) solved by the monolithic SORP loop versus the region-sharded
// engine at 1/2/4/8 worker threads.  The region win is structural even
// serially — each shard only re-sweeps its own candidate set after its
// own commits, where the monolithic loop re-sweeps every overflown
// window graph-wide — and the per-shard solves parallelize on top.
// Schedules are byte-compared against the monolithic reference at every
// thread count.  `users` is 1M for --baseline, trimmed for --region-smoke.
std::size_t RegionEnvCount(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? static_cast<std::size_t>(std::atof(value))
                          : fallback;
}

struct RegionScenario {
  net::Topology topology;
  media::Catalog catalog;
  std::vector<workload::Request> requests;
  std::string describe;
};

RegionScenario MakeRegionScenario(std::size_t users) {
  const std::size_t storages = RegionEnvCount("VOR_REGION_IS", 48);
  const std::size_t hubs = RegionEnvCount("VOR_REGION_HUBS", 16);
  const std::size_t titles = RegionEnvCount("VOR_REGION_CATALOG", 2000);
  const std::size_t cap_gb = RegionEnvCount("VOR_REGION_CAP_GB", 400);

  RegionScenario s;
  net::PaperTopologyParams topo;
  topo.storage_count = storages;
  topo.hub_count = hubs;
  topo.storage_capacity = util::GB(static_cast<double>(cap_gb));
  topo.srate = util::StorageRate{3.0 / (1e9 * 3600.0)};
  topo.base_nrate = util::NetworkRate{1000.0 / 1e9};
  s.topology = net::MakePaperTopology(topo);

  media::CatalogParams cat;
  cat.count = titles;
  s.catalog = media::MakeSyntheticCatalog(cat);

  workload::ScaleParams scale;
  scale.users = users;
  scale.region_affinity = 1.0;
  scale.diurnal_depth = 0.6;
  s.requests.reserve(users);
  workload::GenerateScaleTrace(
      s.topology, s.catalog, scale,
      [&s](const workload::Request* batch, std::size_t n) {
        s.requests.insert(s.requests.end(), batch, batch + n);
      });

  s.describe = std::to_string(storages) + " IS / " + std::to_string(hubs) +
               " hubs, " + std::to_string(titles) + " titles, " +
               std::to_string(cap_gb) + "GB IS, " +
               std::to_string(users) + " users (region-skewed)";
  return s;
}

struct RegionRun {
  double seconds = 0.0;
  core::SorpStats stats;
  std::string bytes;
};

RegionRun TimeRegionSorp(const RegionScenario& scenario,
                         const core::CostModel& cm,
                         const core::Schedule& phase1, std::size_t regions,
                         std::size_t threads) {
  core::Schedule schedule = phase1;  // copied outside the timed region
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  core::SorpOptions options;
  options.regions = regions;
  options.pool = pool.get();
  RegionRun run;
  run.seconds = SecondsOf([&] {
    run.stats = core::SorpSolve(schedule, scenario.requests, cm, options);
  });
  run.bytes = io::ScheduleToBinary(schedule);
  return run;
}

util::Json RunSorpRegionSection(std::size_t users) {
  const RegionScenario scenario = MakeRegionScenario(users);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  core::Schedule phase1;
  const double ivsp_seconds = SecondsOf([&] {
    phase1 = core::IvspSolve(scenario.requests, cm, core::IvspOptions{});
  });

  const RegionRun mono =
      TimeRegionSorp(scenario, cm, phase1, /*regions=*/1, /*threads=*/1);

  const std::size_t hardware =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  if (hardware <= 1) {
    std::cerr << "bench_perf: WARNING: 1 hardware thread; the sorp_region "
                 "scaling table measures timesharing overhead, not "
                 "parallel speedup\n";
  }

  bool all_identical = true;
  double region_serial_seconds = 0.0;
  util::JsonArray scaling;
  RegionRun region_serial;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const RegionRun run =
        TimeRegionSorp(scenario, cm, phase1, /*regions=*/0, threads);
    const bool identical = run.bytes == mono.bytes;
    all_identical = all_identical && identical;
    if (threads == 1) {
      region_serial_seconds = run.seconds;
      region_serial = run;
    }
    util::JsonObject row;
    row["threads"] = threads;
    row["seconds"] = run.seconds;
    row["speedup_vs_monolithic"] =
        run.seconds > 0.0 ? mono.seconds / run.seconds : 0.0;
    row["identical_to_monolithic"] = identical;
    scaling.emplace_back(std::move(row));
  }

  util::JsonObject doc;
  doc["scenario"] = scenario.describe;
  doc["hardware_threads"] = hardware;
  doc["requests"] = scenario.requests.size();
  doc["files"] = phase1.files.size();
  doc["ivsp_seconds"] = ivsp_seconds;
  doc["region_shards"] = region_serial.stats.region_shards;
  doc["victims"] = mono.stats.victims_rescheduled;
  doc["resolved"] = mono.stats.Resolved();
  doc["monolithic_seconds"] = mono.seconds;
  doc["monolithic_evaluations"] = mono.stats.evaluations;
  doc["region_evaluations"] = region_serial.stats.evaluations;
  doc["region_serial_seconds"] = region_serial_seconds;
  doc["serial_speedup"] = region_serial_seconds > 0.0
                              ? mono.seconds / region_serial_seconds
                              : 0.0;
  doc["scaling"] = std::move(scaling);
  doc["schedules_identical"] = all_identical;
  if (hardware <= 1) {
    doc["note"] =
        "single-core host: threads>1 rows measure timesharing overhead";
  }
  return util::Json(std::move(doc));
}

/// CI gate (asan/ubsan budget): a trimmed sorp_region run that checks the
/// invariants rather than the wall clock — byte-identity at several
/// (regions x threads) points, a genuinely multi-shard plan, and the
/// structural work reduction (the region engine must evaluate strictly
/// fewer candidates than the monolithic loop, which is what the speedup
/// is made of; wall time itself is too noisy under sanitizers).
int RunRegionSmoke() {
  const std::size_t users = RegionEnvCount("VOR_REGION_USERS", 100000);
  const RegionScenario scenario = MakeRegionScenario(users);
  const net::Router router(scenario.topology);
  const core::CostModel cm(scenario.topology, router, scenario.catalog);
  const core::Schedule phase1 =
      core::IvspSolve(scenario.requests, cm, core::IvspOptions{});

  const RegionRun mono =
      TimeRegionSorp(scenario, cm, phase1, /*regions=*/1, /*threads=*/1);

  int failures = 0;
  const auto require = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
    if (!ok) ++failures;
  };
  require(mono.stats.HadOverflow(), "scenario engages SORP");
  require(mono.stats.victims_rescheduled > 0, "victims rescheduled > 0");
  require(mono.stats.Resolved(), "monolithic run resolves");

  for (const auto& [regions, threads] :
       {std::pair<std::size_t, std::size_t>{0, 1},
        std::pair<std::size_t, std::size_t>{0, 2},
        std::pair<std::size_t, std::size_t>{4, 2}}) {
    const RegionRun run =
        TimeRegionSorp(scenario, cm, phase1, regions, threads);
    require(run.bytes == mono.bytes,
            "byte-identical at regions=" + std::to_string(regions) +
                " threads=" + std::to_string(threads));
    if (regions == 0 && threads == 1) {
      require(run.stats.region_shards > 1,
              "auto plan forms >1 shard (" +
                  std::to_string(run.stats.region_shards) + ")");
      require(run.stats.evaluations < mono.stats.evaluations,
              "region engine evaluates fewer candidates (" +
                  std::to_string(run.stats.evaluations) + " < " +
                  std::to_string(mono.stats.evaluations) + ")");
      require(run.stats.Resolved(), "region run resolves");
    }
  }

  if (failures != 0) {
    std::cerr << "bench_perf --region-smoke: " << failures
              << " check(s) failed\n";
    return 1;
  }
  std::cout << "bench_perf --region-smoke: all checks passed ("
            << scenario.requests.size() << " requests)\n";
  return 0;
}

// ---- service soak --------------------------------------------------------
//
// A Table-4 tight-capacity cycle replayed through the online
// ReservationService: the trace is cut into kSoakCycles virtual-time
// windows, each submitted by kSoakProducers concurrent threads before the
// cycle closes and replans incrementally.  Run twice — speculation off and
// on (the pipelined close: the background solve is kicked once the window
// is submitted and the close harvests it) — recording close-latency
// percentiles for both and asserting the committed schedules are
// byte-identical, so successive PRs catch regressions in the drain +
// solve + validate path AND any determinism drift in the pipeline.
constexpr std::size_t kSoakCycles = 8;
constexpr std::size_t kSoakProducers = 4;

struct SoakRun {
  std::vector<double> close_seconds;
  std::vector<double> solve_seconds;
  std::size_t deferred_total = 0;
  std::size_t committed = 0;
  std::size_t spec_hits = 0;
  std::size_t spec_repairs = 0;
  std::size_t spec_fallbacks = 0;
  /// Serialized committed schedule — the byte-identity witness.
  std::string schedule_json;
  std::string error;
};

SoakRun RunSoak(const workload::Scenario& scenario,
                const std::vector<workload::Request>& requests,
                bool speculate) {
  SoakRun run;
  svc::ServiceConfig config;
  config.speculate = speculate;
  svc::ReservationService service(scenario.topology, scenario.catalog,
                                  config);
  const std::size_t per_cycle =
      (requests.size() + kSoakCycles - 1) / kSoakCycles;
  for (std::size_t c = 0; c < kSoakCycles; ++c) {
    const std::size_t begin = c * per_cycle;
    const std::size_t end = std::min(requests.size(), begin + per_cycle);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kSoakProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = begin + p; i < end; i += kSoakProducers) {
          benchmark::DoNotOptimize(
              service.Submit(requests[i], requests[i].start_time));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    if (speculate) {
      // Pipelined close: the window is fully submitted, so the
      // background solve sees the final batch and the close reuses it
      // outright — close latency measures the pipeline overhead, not
      // the solve.
      (void)service.Speculate();
      service.WaitForSpeculation();
    }
    auto stats = service.CloseCycle();
    if (!stats.ok()) {
      run.error = stats.error().message;
      return run;
    }
  }

  for (const svc::CycleStats& s : service.History()) {
    run.close_seconds.push_back(s.close_seconds);
    run.solve_seconds.push_back(s.solve_seconds);
    run.deferred_total += s.deferred_out;
    run.spec_hits += s.speculation == svc::SpeculationOutcome::kHit;
    run.spec_repairs += s.speculation == svc::SpeculationOutcome::kRepair;
    run.spec_fallbacks += s.speculation == svc::SpeculationOutcome::kFallback;
  }
  run.committed = service.CommittedRequests().size();
  run.schedule_json = io::ToJson(service.CommittedSchedule()).Dump(2);
  return run;
}

util::Json SoakSide(const SoakRun& run) {
  util::JsonObject side;
  side["committed"] = run.committed;
  side["deferred_total"] = run.deferred_total;
  side["close_p50_seconds"] = util::Percentile(run.close_seconds, 50);
  side["close_p95_seconds"] = util::Percentile(run.close_seconds, 95);
  side["close_max_seconds"] = util::Percentile(run.close_seconds, 100);
  side["solve_p50_seconds"] = util::Percentile(run.solve_seconds, 50);
  side["solve_p95_seconds"] = util::Percentile(run.solve_seconds, 95);
  side["spec_hits"] = run.spec_hits;
  side["spec_repairs"] = run.spec_repairs;
  side["spec_fallbacks"] = run.spec_fallbacks;
  return util::Json(std::move(side));
}

util::Json RunSvcSoakSection() {
  workload::ScenarioParams tight;
  tight.is_capacity = util::GB(5);
  tight.nrate_per_gb = 1000;
  tight.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(tight);
  std::vector<workload::Request> requests = scenario.requests;
  workload::SortForReplay(requests);

  const SoakRun plain = RunSoak(scenario, requests, /*speculate=*/false);
  const SoakRun spec = RunSoak(scenario, requests, /*speculate=*/true);
  util::JsonObject doc;
  if (!plain.error.empty() || !spec.error.empty()) {
    doc["error"] = plain.error.empty() ? spec.error : plain.error;
    return util::Json(std::move(doc));
  }
  doc["scenario"] = "table4 tight (5GB, nrate 1000)";
  doc["hardware_threads"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  doc["cycles"] = kSoakCycles;
  doc["producers"] = kSoakProducers;
  doc["requests"] = requests.size();
  doc["baseline"] = SoakSide(plain);
  doc["speculative"] = SoakSide(spec);
  doc["schedules_identical"] = plain.schedule_json == spec.schedule_json;
  const double p95_plain = util::Percentile(plain.close_seconds, 95);
  const double p95_spec = util::Percentile(spec.close_seconds, 95);
  doc["close_p95_speedup"] = p95_spec > 0.0 ? p95_plain / p95_spec : 0.0;
  return util::Json(std::move(doc));
}

/// One RPC loopback replay: fresh service + rpc::Server on an ephemeral
/// port, the trace streamed through rpc::RunLoad at `connections`
/// concurrent connections.  Reports per-submit latency percentiles,
/// throughput, and the committed-schedule JSON for the identity check.
util::Json RpcLoopbackSide(const workload::Scenario& scenario,
                           std::size_t connections,
                           std::string* schedule_json) {
  util::JsonObject side;
  svc::ReservationService service(scenario.topology, scenario.catalog, {});
  rpc::ServerConfig server_config;
  server_config.listen = rpc::Endpoint{"127.0.0.1", 0};
  server_config.poll_seconds = 0.02;
  rpc::Server server(service, server_config);
  if (const util::Status s = server.Start(); !s.ok()) {
    side["error"] = s.error().message;
    return util::Json(std::move(side));
  }
  rpc::LoadConfig load_config;
  load_config.endpoints = {rpc::Endpoint{"127.0.0.1", server.port()}};
  load_config.connections = connections;
  load_config.cycle_seconds = scenario.params.cycle_length.value() / 8.0;
  workload::TraceStream stream =
      workload::TraceStream::FromVector(scenario.requests);
  const auto report = rpc::RunLoad(stream, load_config);
  server.Stop();
  if (!report.ok()) {
    side["error"] = report.error().message;
    return util::Json(std::move(side));
  }
  side["connections"] = connections;
  side["submitted"] = report->submitted;
  side["cycles_closed"] = report->CyclesClosed();
  side["transport_errors"] = report->transport_errors;
  side["wall_seconds"] = report->wall_seconds;
  side["submits_per_second"] =
      report->wall_seconds > 0.0
          ? static_cast<double>(report->submitted) / report->wall_seconds
          : 0.0;
  side["ack_p50_seconds"] = util::Percentile(report->ack_seconds, 50);
  side["ack_p95_seconds"] = util::Percentile(report->ack_seconds, 95);
  side["commit_p50_seconds"] = util::Percentile(report->commit_seconds, 50);
  side["commit_p95_seconds"] = util::Percentile(report->commit_seconds, 95);
  *schedule_json = io::ToJson(service.CommittedSchedule()).Dump(2);
  return util::Json(std::move(side));
}

/// vor-rpc/1 front-end over loopback: the same trace replayed at 1, 4,
/// and 8 connections.  Beyond the latency/throughput trajectory, the
/// section asserts the subsystem's core invariant — every connection
/// count commits a byte-identical schedule.
util::Json RunRpcLoopbackSection() {
  workload::ScenarioParams params;
  params.storage_count = 9;
  params.users_per_neighborhood = 8;
  params.catalog_size = 120;
  params.is_capacity = util::GB(20);
  params.seed = 71;
  const workload::Scenario scenario = workload::MakeScenario(params);

  util::JsonObject doc;
  doc["scenario"] = "9 IS x 72 users, 120 titles, 20GB IS";
  doc["hardware_threads"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  doc["requests"] = scenario.requests.size();
  std::vector<std::string> schedules;
  for (const std::size_t connections : {std::size_t{1}, std::size_t{4},
                                        std::size_t{8}}) {
    std::string schedule_json;
    doc["connections_" + std::to_string(connections)] =
        RpcLoopbackSide(scenario, connections, &schedule_json);
    schedules.push_back(std::move(schedule_json));
  }
  doc["schedules_identical"] =
      schedules[0] == schedules[1] && schedules[1] == schedules[2] &&
      !schedules[0].empty();
  return util::Json(std::move(doc));
}

/// Wall-times the scheduler end-to-end (tight capacity, SORP engaged) at
/// a given thread count, repeated to amortize noise.
double TimeSolves(const workload::Scenario& scenario, std::size_t threads,
                  int repeats) {
  core::SchedulerOptions options;
  options.parallel.threads = threads;
  const core::VorScheduler scheduler(scenario.topology, scenario.catalog,
                                     options);
  return SecondsOf([&] {
    for (int r = 0; r < repeats; ++r) {
      auto result = scheduler.Solve(scenario.requests);
      benchmark::DoNotOptimize(result);
    }
  });
}

int RunBaseline(const std::string& out_path, std::size_t threads) {
  // Scheduler-internal parallelism: one tight-capacity Table-4 solve.
  workload::ScenarioParams tight;
  tight.is_capacity = util::GB(5);
  tight.nrate_per_gb = 1000;
  tight.srate_per_gb_hour = 3;
  const workload::Scenario scenario = workload::MakeScenario(tight);
  constexpr int kSolveRepeats = 20;
  const double solve_serial = TimeSolves(scenario, 1, kSolveRepeats);
  const double solve_parallel = TimeSolves(scenario, threads, kSolveRepeats);

  // Sweep-level parallelism: a stride-sampled slice of the Table-5 grid
  // (every run is an independent four-metric shootout combo).
  // One extra instrumented solve for the phase breakdown: where the wall
  // time goes (IVSP vs SORP rounds) and the solver's decision mix.
  obs::MetricsRegistry registry;
  core::SchedulerOptions instrumented;
  instrumented.metrics = &registry;
  const core::VorScheduler profiled(scenario.topology, scenario.catalog,
                                    instrumented);
  {
    auto result = profiled.Solve(scenario.requests);
    benchmark::DoNotOptimize(result);
  }

  const std::vector<workload::ScenarioParams> grid = workload::Table4Grid();
  std::vector<workload::ScenarioParams> subset;
  for (std::size_t i = 0; i < grid.size(); i += 16) subset.push_back(grid[i]);
  const double sweep_serial =
      SecondsOf([&] { benchmark::DoNotOptimize(core::RunShootout(subset)); });
  util::ThreadPool pool(threads);
  const double sweep_parallel = SecondsOf(
      [&] { benchmark::DoNotOptimize(core::RunShootout(subset, &pool)); });

  const bool single_core = std::thread::hardware_concurrency() <= 1;
  if (single_core) {
    std::cerr << "bench_perf: WARNING: hardware_concurrency() reports "
              << std::thread::hardware_concurrency()
              << " thread(s); parallel sections measure pool overhead, not "
                 "scaling\n";
  }
  const auto section = [single_core](double serial, double parallel,
                                     std::size_t n, util::JsonObject extra) {
    extra["hardware_threads"] =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    extra["serial_seconds"] = serial;
    extra["threads"] = n;
    extra["parallel_seconds"] = parallel;
    extra["speedup"] = parallel > 0.0 ? serial / parallel : 0.0;
    if (single_core) {
      extra["note"] =
          "single-core host: parallel numbers measure pool overhead, "
          "not scaling";
    }
    return util::Json(std::move(extra));
  };
  util::JsonObject doc;
  doc["version"] = "vor-bench-perf/1";
  doc["hardware_threads"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  doc["solve"] = section(solve_serial, solve_parallel, threads,
                         {{"repeats", kSolveRepeats},
                          {"scenario", "table4 tight (5GB, nrate 1000)"}});
  doc["sweep"] = section(sweep_serial, sweep_parallel, threads,
                         {{"combos", subset.size()},
                          {"scenario", "table5 grid, stride 16"}});
  doc["phases"] = registry.ToJson();
  doc["sorp_stress"] = RunSorpStressSection();
  doc["sorp_region"] = RunSorpRegionSection(1000000);
  doc["svc_soak"] = RunSvcSoakSection();
  doc["codec"] = RunCodecSection();
  doc["rpc_loopback"] = RunRpcLoopbackSection();
  const std::string text = util::Json(std::move(doc)).Dump(2) + "\n";
  if (const util::Status s = io::WriteFile(out_path, text); !s.ok()) {
    std::cerr << "bench_perf: " << s.error().message << '\n';
    return 1;
  }
  std::cout << text << "wrote " << out_path << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      return RunSmoke();
    }
    if (std::string(argv[i]) == "--region-smoke") {
      return RunRegionSmoke();
    }
    if (std::string(argv[i]) == "--baseline") {
      std::string out = "BENCH_perf.json";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        out = argv[i + 1];
      }
      std::size_t threads = 8;
      for (int j = 1; j < argc - 1; ++j) {
        if (std::string(argv[j]) == "--threads") {
          const std::string value = argv[j + 1];
          try {
            std::size_t consumed = 0;
            threads = std::stoul(value, &consumed);
            if (consumed != value.size()) throw std::invalid_argument(value);
          } catch (const std::exception&) {
            std::cerr << "bench_perf: --threads expects a non-negative "
                         "integer, got '"
                      << value << "'\n";
            return 1;
          }
        }
      }
      return RunBaseline(out, threads);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
