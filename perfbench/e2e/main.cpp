// vor_e2e — end-to-end benchmark of the reservation service over
// vor-rpc/1 loopback.
//
//   vor_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--smoke] [--out-dir DIR]
//
// Each replay deploys a fresh svc::ReservationService behind an
// rpc::Server on 127.0.0.1 and drives it with the product's own load
// client, rpc::RunLoad: a closed loop of 4 connections, each waiting for
// its ack, one cycle close per virtual-time window, then the backlog
// drain.  With --trace 0 the run replays its three traces in turn, each
// at least three times and on until S seconds have passed, and reports
// the end-to-end metrics of each window's fastest pass; with --trace 1 it
// makes one untraced and one traced replay and reports the per-layer
// ledger, writing spans and registry exports to
// DIR/<workload>-seed<N>.trace.json.  Every run
// checks its outputs and exits 1 when a check fails.  The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/binary.hpp"
#include "obs/metrics.hpp"
#include "rpc/load.hpp"
#include "sim/validator.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workload/trace_stream.hpp"

#include "e2e/ledger.hpp"
#include "e2e/workloads.hpp"

namespace {

using namespace vor;
using perfbench::Deployment;
using perfbench::SpanLog;
using perfbench::WorkloadSpec;

/// Replays of each trace per --trace 0 run, at least: each window's
/// fastest of them represents it.  Every replay sets up afresh, so setup_s
/// is the median of at least kTracesPerRun * kMinReplaysPerTrace set-ups.
constexpr std::size_t kMinReplaysPerTrace = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

/// One metric as printed: name, value, unit.  A metric that is not in
/// the contract (BENCHMARK.json) is printed but left out of the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool in_result = true;
};

/// One non-empty window of one replay as the client saw it.
struct WindowPass {
  /// First submit of the window until its close returns.
  double wall_s = 0.0;
  /// Client-observed close call: the last ack of the window until the
  /// close returns (includes joining the submit threads, microseconds).
  double close_call_s = 0.0;
  /// The window's submit -> ack and ack -> commit samples.
  std::vector<double> ack_s;
  std::vector<double> commit_s;
};

/// What one replay produced, reduced to what the metrics and checks need.
struct ReplayResult {
  /// Which of the run's traces was replayed.
  std::size_t trace_index = 0;
  /// RunLoad's report; its per-submit sample vectors are moved into
  /// `windows` and folded into the run's fastest passes, so memory does
  /// not grow with the number of replays a run makes.
  rpc::LoadReport report;
  double ack_sum_s = 0.0;
  /// RunLoad's own clock: first submit until the last drain close returns.
  double wall_s = 0.0;
  /// Non-empty windows in order.  Closes of empty windows and drain
  /// closes have no client-side stamp in the report and are not sampled.
  std::vector<WindowPass> windows;
  /// Sum over non-empty windows of first submit .. last ack.
  double submit_phase_s = 0.0;
  /// Sum of the sampled close calls, and that minus the service's
  /// CycleStats.close_seconds of those closes.
  double close_call_s = 0.0;
  double close_overhead_s = 0.0;
  /// Service-side close time of the closes not sampled client-side.
  double unsampled_close_s = 0.0;
  /// Process peak RSS when this replay's last close returned.
  double peak_rss_mb = 0.0;
  std::string schedule_bytes;
  double cost_usd = 0.0;
  std::size_t committed = 0;
};

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "vor_e2e: " << message << "\n"
            << "usage: vor_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR]\n";
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (used != value.size() || !(options.seconds > 0.0)) {
          Usage("--seconds expects a positive number");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
        options.trace = value == "1";
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage(flag + " expects a number");
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!have_seed) Usage("--seed expects a non-negative integer");
  if (options.seconds == 0.0) Usage("--seconds is required");
  return options;
}

/// Percentile reported as close_tail_s over `n` closes: the highest
/// standard one (p99, p95, p90, p75) that leaves at least ten closes above
/// it, else the median.
double CloseTailPercentile(std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if ((1.0 - p / 100.0) * static_cast<double>(n) >= 10.0) return p;
  }
  return 50.0;
}

/// Peak resident memory of the process so far, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

/// Splits RunLoad's per-submit samples back into windows: the report
/// lists each window's successful submits together, in window order, and
/// commit = close return - ack stamp, so per window
///   close call   = min(commit)          (last ack -> close return)
///   window wall  = max(commit + ack)    (first submit -> close return).
/// Only exact when no submit was lost; callers check transport_errors.
void SplitWindows(const std::vector<std::size_t>& window_sizes,
                  ReplayResult& result) {
  const rpc::LoadReport& report = result.report;
  std::size_t offset = 0;
  for (std::size_t w = 0; w < report.closes.size(); ++w) {
    const double service_close = report.closes[w].close_seconds;
    const std::size_t n = w < window_sizes.size() ? window_sizes[w] : 0;
    if (n == 0 || offset + n > report.ack_seconds.size()) {
      result.unsampled_close_s += service_close;
      continue;
    }
    WindowPass pass;
    pass.ack_s.assign(report.ack_seconds.begin() + offset,
                      report.ack_seconds.begin() + offset + n);
    pass.commit_s.assign(report.commit_seconds.begin() + offset,
                         report.commit_seconds.begin() + offset + n);
    offset += n;
    pass.close_call_s = *std::min_element(pass.commit_s.begin(),
                                          pass.commit_s.end());
    for (std::size_t i = 0; i < n; ++i) {
      pass.wall_s = std::max(pass.wall_s, pass.commit_s[i] + pass.ack_s[i]);
    }
    result.submit_phase_s += pass.wall_s - pass.close_call_s;
    result.close_call_s += pass.close_call_s;
    result.close_overhead_s += pass.close_call_s - service_close;
    result.windows.push_back(std::move(pass));
  }
}

/// Replays the deployment's trace through rpc::RunLoad and verifies the
/// committed outcome.  Check failures are appended to `failures`.
util::Result<ReplayResult> Replay(const WorkloadSpec& spec, Deployment& dep,
                                  SpanLog& spans,
                                  std::vector<std::string>& failures) {
  auto stream = workload::TraceStream::FromBytes(dep.trace_bytes);
  if (!stream.ok()) return stream.error();
  rpc::LoadConfig config;
  config.endpoints = {rpc::Endpoint{"127.0.0.1", dep.server->port()}};
  config.connections = perfbench::kConnections;
  config.cycle_seconds = spec.window_seconds;
  config.metrics = dep.registry.get();

  ReplayResult result;
  {
    const SpanLog::Scope span(spans, "rpc.run_load");
    auto report = rpc::RunLoad(*stream, config);
    if (!report.ok()) return report.error();
    result.report = std::move(*report);
  }
  result.peak_rss_mb = PeakRssMb();
  result.wall_s = result.report.wall_seconds;
  SplitWindows(perfbench::WindowSizes(dep.trace, spec.window_seconds), result);
  for (const double ack : result.report.ack_seconds) result.ack_sum_s += ack;
  std::vector<double>().swap(result.report.ack_seconds);
  std::vector<double>().swap(result.report.commit_seconds);

  const rpc::LoadReport& report = result.report;
  const svc::ReservationService& service = *dep.service;
  const core::Schedule schedule = service.CommittedSchedule();
  const std::vector<workload::Request> committed = service.CommittedRequests();
  {
    const SpanLog::Scope span(spans, "sim.validate");
    const sim::ValidationReport validation =
        sim::ValidateSchedule(schedule, committed, *dep.cost_model);
    if (!validation.ok()) {
      failures.push_back("committed schedule fails sim::ValidateSchedule (" +
                         std::to_string(validation.violations.size()) +
                         " violations)");
    }
  }
  {
    const SpanLog::Scope span(spans, "io.schedule_encode");
    result.schedule_bytes = io::ScheduleToBinary(schedule);
  }
  result.cost_usd = dep.cost_model->TotalCost(schedule).value();
  result.committed = committed.size();

  // Submit accounting: every submit got a verdict, and every request the
  // service took in is committed, expired or still in its backlog.
  const std::size_t verdicts = report.accepted + report.deferred +
                               report.rejected_invalid +
                               report.rejected_backpressure +
                               report.transport_errors;
  if (report.submitted != dep.trace.size() || verdicts != report.submitted) {
    failures.push_back("submit accounting: " + std::to_string(dep.trace.size()) +
                       " in trace, " + std::to_string(report.submitted) +
                       " submitted, " + std::to_string(verdicts) + " verdicts");
  }
  std::size_t dropped = 0;
  for (const svc::CycleStats& close : report.closes) {
    dropped += close.rejected_expired + close.rejected_deferred_full;
  }
  const std::size_t taken = report.accepted + report.deferred;
  const std::size_t placed = committed.size() + dropped +
                             service.DeferredCount() + service.PendingCount();
  if (taken != placed) {
    failures.push_back("intake accounting: " + std::to_string(taken) +
                       " taken in, " + std::to_string(placed) +
                       " committed + expired + backlog");
  }
  return result;
}

/// The in-process twin of the RPC replay: the same windows submitted
/// straight to ReservationService::Submit, CloseCycle per window, then
/// the same backlog drain.  Returns the committed schedule bytes.
util::Result<std::string> InProcessReplay(const WorkloadSpec& spec,
                                          const Deployment& dep) {
  svc::ReservationService service(dep.environment.topology,
                                  dep.environment.catalog,
                                  perfbench::DeploymentConfig(nullptr));
  std::size_t next = 0;
  for (const std::size_t size :
       perfbench::WindowSizes(dep.trace, spec.window_seconds)) {
    for (std::size_t i = 0; i < size; ++i, ++next) {
      (void)service.Submit(dep.trace[next], dep.trace[next].start_time);
    }
    if (auto stats = service.CloseCycle(); !stats.ok()) return stats.error();
  }
  std::size_t backlog = service.DeferredCount();
  for (int extra = 0; backlog > 0 && extra < 16; ++extra) {
    if (auto stats = service.CloseCycle(); !stats.ok()) return stats.error();
    const std::size_t now = service.DeferredCount();
    if (now >= backlog) break;
    backlog = now;
  }
  return io::ScheduleToBinary(service.CommittedSchedule());
}

/// Streams the whole trace through workload::TraceStream (the span times
/// io.trace_decode_s) and checks that every request comes back.
util::Status DecodeTrace(const Deployment& dep, SpanLog& spans) {
  const SpanLog::Scope span(spans, "io.trace_decode");
  auto stream = workload::TraceStream::FromBytes(dep.trace_bytes);
  if (!stream.ok()) return stream.error();
  workload::Request r;
  std::size_t count = 0;
  while (true) {
    auto more = stream->Next(r);
    if (!more.ok()) return more.error();
    if (!*more) break;
    ++count;
  }
  if (count != dep.trace.size()) {
    return util::Internal("trace decode yielded " + std::to_string(count) +
                          " of " + std::to_string(dep.trace.size()));
  }
  return util::Status::Ok();
}

/// Deterministic outcomes must repeat exactly across replays of one
/// trace.  Keeps the first replay's schedule bytes per trace and drops
/// the bytes of later replays once compared.
void VerifyRepeat(std::vector<ReplayResult>& replays,
                  std::vector<std::string>& failures) {
  ReplayResult& latest = replays.back();
  for (ReplayResult& earlier : replays) {
    if (&earlier == &latest) break;
    if (earlier.trace_index != latest.trace_index) continue;
    if (latest.schedule_bytes != earlier.schedule_bytes ||
        latest.cost_usd != earlier.cost_usd ||
        latest.committed != earlier.committed) {
      failures.push_back("trace " + std::to_string(latest.trace_index) +
                         " committed different schedules on two replays");
    }
    std::string().swap(latest.schedule_bytes);
    return;
  }
}

/// The fastest pass of every window of one trace, over its replays.
/// Every replay of a trace does the same work and commits the same bytes,
/// so a pass of a window is slower than another only when other tenants
/// of the host took the CPU while it ran; the fastest pass of each window
/// drops those bursts, even when every replay was hit by one somewhere.
struct TraceBest {
  /// Per window, the pass with the least wall time, and the least close
  /// call of any pass.
  std::vector<WindowPass> windows;
  std::vector<double> close_s;
  /// Per replay, the wall time outside the sampled windows: closes of
  /// empty windows and the backlog drain.
  std::vector<double> other_s;
  std::size_t submitted = 0;
  double cost_usd = 0.0;
  std::size_t committed = 0;
};

/// Folds a replay's windows into its trace's fastest passes, releasing
/// the samples of the slower pass of each window.
void FoldFastest(ReplayResult& replay, TraceBest& best) {
  double windows_wall = 0.0;
  for (const WindowPass& pass : replay.windows) windows_wall += pass.wall_s;
  best.other_s.push_back(replay.wall_s - windows_wall);
  if (best.windows.empty()) {
    for (const WindowPass& pass : replay.windows) {
      best.close_s.push_back(pass.close_call_s);
    }
    best.windows = std::move(replay.windows);
    best.submitted = replay.report.submitted;
    best.cost_usd = replay.cost_usd;
    best.committed = replay.committed;
  } else {
    for (std::size_t w = 0; w < best.windows.size(); ++w) {
      best.close_s[w] =
          std::min(best.close_s[w], replay.windows[w].close_call_s);
      if (replay.windows[w].wall_s < best.windows[w].wall_s) {
        std::swap(best.windows[w], replay.windows[w]);
      }
    }
  }
  std::vector<WindowPass>().swap(replay.windows);
}

/// Every timing comes from the traces' fastest window passes: the rate is
/// the reservations over the sum of the fastest passes plus the median
/// time outside the windows; the ack and commit percentiles are taken over
/// the pooled samples of those passes, the close percentiles over each
/// window's least close call.  Cost and commits are summed over the
/// traces.
std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s,
                                    const std::vector<TraceBest>& traces,
                                    double peak_rss_mb) {
  double submitted = 0.0;
  double wall = 0.0;
  double cost = 0.0;
  double committed = 0.0;
  std::vector<double> acks;
  std::vector<double> commits;
  std::vector<double> closes;
  for (const TraceBest& trace : traces) {
    submitted += static_cast<double>(trace.submitted);
    wall += util::Percentile(trace.other_s, 50.0);
    cost += trace.cost_usd;
    committed += static_cast<double>(trace.committed);
    for (const WindowPass& pass : trace.windows) {
      wall += pass.wall_s;
      acks.insert(acks.end(), pass.ack_s.begin(), pass.ack_s.end());
      commits.insert(commits.end(), pass.commit_s.begin(), pass.commit_s.end());
    }
    closes.insert(closes.end(), trace.close_s.begin(), trace.close_s.end());
  }
  // The tails and the close times are printed only: from one run to the
  // next on a shared host they spread too widely for the largest
  // regression bound a contract metric may have (see perfbench/README.md).
  return {
      {"setup_s", util::Percentile(setup_s, 50.0), "s"},
      {"reservations_per_s", submitted / wall, "1/s"},
      {"ack_p50_s", util::Percentile(acks, 50.0), "s"},
      {"ack_p99_s", util::Percentile(acks, 99.0), "s", false},
      {"commit_p50_s", util::Percentile(commits, 50.0), "s"},
      {"commit_p99_s", util::Percentile(commits, 99.0), "s", false},
      {"close_p50_s", util::Percentile(closes, 50.0), "s", false},
      {"close_tail_s",
       util::Percentile(closes, CloseTailPercentile(closes.size())), "s",
       false},
      {"schedule_cost_usd", cost, "usd"},
      {"committed_ratio", committed / submitted, "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const ReplayResult& traced,
                                    const ReplayResult& untraced,
                                    obs::MetricsRegistry& registry,
                                    const SpanLog& spans) {
  auto timer_sum = [&](const char* name) {
    return registry.GetTimer(name).Snap().sum;
  };
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name).value());
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  const rpc::LoadReport& report = traced.report;
  const double client_ack = traced.ack_sum_s;
  double close_s = 0.0;
  double solve_s = 0.0;
  double attempts = 0.0;
  double solving_closes = 0.0;
  double deferred_out = 0.0;
  double expired = 0.0;
  for (const svc::CycleStats& c : report.closes) {
    close_s += c.close_seconds;
    solve_s += c.solve_seconds;
    attempts += static_cast<double>(c.solve_attempts);
    solving_closes += c.solve_attempts > 0 ? 1.0 : 0.0;
    deferred_out += static_cast<double>(c.deferred_out);
    expired += static_cast<double>(c.rejected_expired);
  }
  const double server_submit = timer_sum("rpc.server.submit_seconds");
  const double incremental = timer_sum("incremental_solve");
  const double sorp = timer_sum("incremental_solve/sorp");
  const double memo_hits = counter("sorp.memo.hits");
  const double memo_misses = counter("sorp.memo.misses");
  const double rescheduled = counter("incremental.files_rescheduled");
  const double files_seen = counter("incremental.files_carried_over") +
                            rescheduled +
                            counter("incremental.files_reused_from_base");
  return {
      {"rpc.submit_phase_s", traced.submit_phase_s, "s"},
      {"rpc.server_submit_s", server_submit, "s"},
      {"rpc.wire_share", 1.0 - ratio(server_submit, client_ack), "ratio"},
      {"rpc.close_overhead_s", traced.close_overhead_s, "s"},
      {"rpc.frames", counter("rpc.server.frames"), "count"},
      {"rpc.transport_errors", static_cast<double>(report.transport_errors),
       "count"},
      {"svc.close_s", close_s, "s"},
      {"svc.solve_s", solve_s, "s"},
      {"svc.close_other_s", close_s - solve_s, "s"},
      {"svc.solve_attempts_per_close",
       attempts > 0 ? solving_closes / attempts : 1.0, "ratio"},
      {"svc.deferred_out", deferred_out, "count"},
      {"svc.rejected_expired", expired, "count"},
      {"svc.admit.deferred_capacity", counter("svc.admit.deferred_capacity"),
       "count"},
      {"svc.submit.rejected_backpressure",
       counter("svc.submit.rejected_backpressure"), "count"},
      {"core.incremental_solve_s", incremental, "s"},
      {"core.ivsp_s", incremental - sorp, "s"},
      {"core.sorp_s", sorp, "s"},
      {"core.sorp.evaluation_busy_s", timer_sum("sorp.evaluation"), "s"},
      {"core.sorp.rounds", counter("sorp.rounds"), "count"},
      {"core.sorp.evaluations",
       static_cast<double>(registry.GetTimer("sorp.evaluation").Snap().count),
       "count"},
      {"core.sorp.candidates_priced",
       counter("sorp.reschedule.candidates_priced"), "count"},
      {"core.sorp.memo_hit_ratio", ratio(memo_hits, memo_hits + memo_misses),
       "ratio"},
      {"core.sorp.shards", counter("sorp.regions.shards"), "count"},
      {"core.incremental.rescheduled_ratio", ratio(rescheduled, files_seen),
       "ratio"},
      {"storage.usage_rebuilds", counter("sorp.usage_rebuilds"), "count"},
      {"sim.validate_s", spans.TotalSeconds("sim.validate"), "s"},
      {"workload.generate_s", spans.TotalSeconds("workload.generate"), "s"},
      {"io.trace_encode_s", spans.TotalSeconds("io.trace_encode"), "s"},
      {"io.schedule_encode_s", spans.TotalSeconds("io.schedule_encode"), "s"},
      {"io.trace_decode_s", spans.TotalSeconds("io.trace_decode"), "s"},
      {"unaccounted_s",
       traced.wall_s - (traced.submit_phase_s + traced.close_call_s +
                        traced.unsampled_close_s),
       "s"},
      {"obs.trace_overhead_ratio", ratio(traced.wall_s, untraced.wall_s),
       "ratio"},
  };
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit
              << (m.in_result ? "" : " (printed only)") << "\n";
  }
}

std::string ResultLine(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  util::JsonObject values;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    values[m.name] = util::JsonObject{{"value", m.value}, {"unit", m.unit}};
  }
  return util::Json(util::JsonObject{{"correct", correct},
                                     {"attempted", attempted},
                                     {"failed", failed},
                                     {"metrics", std::move(values)}})
      .Dump();
}

/// Failed operations: submits lost in transport, refused by backpressure
/// or rejected as invalid.  (A close that errors aborts the replay.)
std::size_t FailedOps(const rpc::LoadReport& r) {
  return r.transport_errors + r.rejected_backpressure + r.rejected_invalid;
}

int Run(const Options& options) {
  const auto found = perfbench::FindWorkload(options.workload, options.smoke);
  if (!found) {
    std::string names;
    for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
    Usage("unknown workload '" + options.workload + "' (one of:" + names + ")");
  }
  const WorkloadSpec& spec = *found;
  std::vector<std::string> failures;
  // Untraced spans only time (nothing is recorded); the traced log holds
  // the spans written out at exit.
  SpanLog quiet(false);
  SpanLog traced_log(true);

  std::vector<double> setup_s;
  std::vector<ReplayResult> replays;
  std::vector<TraceBest> fastest(options.trace ? 0 : perfbench::kTracesPerRun);
  std::unique_ptr<Deployment> kept;    // trace 0, for the checks
  std::unique_ptr<Deployment> traced;  // the traced replay's registry
  const obs::Stopwatch run_clock;

  // --trace 0: replay the run's traces in turn, each at least
  // kMinReplaysPerTrace times, and then start another replay only while
  // one of median length (set-up included) still ends within the run's
  // seconds.  --trace 1: one untraced replay, then one traced replay, of
  // trace 0.
  const std::size_t min_replays =
      perfbench::kTracesPerRun * kMinReplaysPerTrace;
  std::vector<double> iteration_s;
  auto replay_due = [&] {
    const std::size_t n = replays.size();
    if (options.trace) return n < 2;
    return n < min_replays ||
           run_clock.Seconds() + util::Percentile(iteration_s, 50.0) <
               options.seconds;
  };
  while (replay_due()) {
    const obs::Stopwatch iteration_clock;
    const std::size_t n = replays.size();
    const bool traced_replay = options.trace && n == 1;
    const std::size_t trace_index =
        options.trace ? 0 : n % perfbench::kTracesPerRun;
    SpanLog& spans = traced_replay ? traced_log : quiet;

    std::unique_ptr<Deployment> dep;
    {
      const SpanLog::Scope setup(spans, "setup");
      auto deployed = perfbench::Deploy(
          spec, perfbench::TraceSeed(options.seed, trace_index), traced_replay,
          spans);
      if (!deployed.ok()) {
        std::cerr << "vor_e2e: setup failed: " << deployed.error().message << "\n";
        return 1;
      }
      dep = std::move(*deployed);
      setup_s.push_back(setup.Seconds());
    }
    auto result = [&] {
      const SpanLog::Scope span(spans, "replay");
      return Replay(spec, *dep, spans, failures);
    }();
    if (!result.ok()) {
      std::cerr << "vor_e2e: replay failed: " << result.error().message << "\n";
      return 1;
    }
    result->trace_index = trace_index;
    replays.push_back(std::move(*result));
    VerifyRepeat(replays, failures);
    if (!options.trace) {
      TraceBest& best = fastest[trace_index];
      if (!best.windows.empty() &&
          best.windows.size() != replays.back().windows.size()) {
        failures.push_back("trace " + std::to_string(trace_index) +
                           " replays saw different window counts");
      } else {
        FoldFastest(replays.back(), best);
      }
    }
    // The server and service go; the first replay's environment and trace
    // stay for the checks, the traced replay's registry for the export.
    dep->server.reset();
    dep->service.reset();
    if (traced_replay) {
      traced = std::move(dep);
    } else if (!kept) {
      kept = std::move(dep);
    }
    iteration_s.push_back(iteration_clock.Seconds());
  }

  // Untimed checks, once per invocation: the trace decodes whole, and the
  // RPC-served schedule equals an in-process replay of the same windows.
  SpanLog& check_spans = options.trace ? traced_log : quiet;
  {
    const SpanLog::Scope span(check_spans, "check");
    if (auto decoded = DecodeTrace(*kept, check_spans); !decoded.ok()) {
      failures.push_back("trace decode: " + decoded.error().message);
    }
    util::Result<std::string> in_process = [&] {
      const SpanLog::Scope replay_span(check_spans, "check.in_process_replay");
      return InProcessReplay(spec, *kept);
    }();
    if (!in_process.ok()) {
      failures.push_back("in-process replay: " + in_process.error().message);
    } else if (*in_process != replays.front().schedule_bytes) {
      failures.push_back(
          "RPC-served schedule differs from the in-process replay");
    }
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const ReplayResult& r : replays) {
    attempted += r.report.submitted + r.report.closes.size();
    failed += FailedOps(r.report);
    if (r.report.transport_errors > 0) {
      failures.push_back("transport errors: per-window close samples are "
                         "misaligned");
    }
  }

  const std::size_t traces = options.trace ? 1 : perfbench::kTracesPerRun;
  std::cout << "workload " << spec.name << " seed " << options.seed << ": "
            << replays.size() << " replay(s), " << setup_s.size()
            << " setup(s), " << traces << " trace(s) of "
            << replays.front().report.submitted << " reservations, "
            << replays.front().report.closes.size()
            << " closes in the first\n  replay walls (s):";
  for (const ReplayResult& r : replays) {
    std::cout << " " << r.wall_s;
  }
  std::cout << "\n  replay peak RSS (MB):";
  for (const ReplayResult& r : replays) {
    std::cout << " " << r.peak_rss_mb;
  }
  std::cout << "\n";
  std::vector<Metric> metrics;
  if (!options.trace) {
    // Peak RSS as the first replay of the fresh process left it: one
    // deployment's footprint, before allocator pools kept from earlier
    // replays blur it.
    metrics = EndToEndMetrics(setup_s, fastest, replays.front().peak_rss_mb);
    PrintMetrics(metrics);
    std::size_t close_samples = 0;
    for (const TraceBest& t : fastest) close_samples += t.windows.size();
    std::cout << "  close_tail_s is p" << CloseTailPercentile(close_samples)
              << " of "
              << close_samples << " fastest window closes\n"
              << "  failed_ratio = "
              << static_cast<double>(failed) / static_cast<double>(attempted)
              << " ratio (" << failed << " of " << attempted << ")\n";
  } else {
    metrics = PerLayerMetrics(replays[1], replays[0], *traced->registry,
                              traced_log);
    PrintMetrics(metrics);
    std::cout << "  self time by span:\n";
    for (const auto& [name, self] : traced_log.SelfSecondsByName()) {
      std::cout << "    " << name << " = " << self << " s\n";
    }
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    const std::string path = options.out_dir + "/" + spec.name + "-seed" +
                             std::to_string(options.seed) + ".trace.json";
    std::ofstream out(path, std::ios::trunc);
    out << util::Json(util::JsonObject{{"workload", spec.name},
                                       {"seed", options.seed},
                                       {"trace", traced_log.ToJson()},
                                       {"registry", traced->registry->ToJson()}})
               .Dump(1)
        << "\n";
    out.close();
    if (!out) failures.push_back("cannot write " + path);
    std::cout << "  wrote " << path << "\n";
  }
  for (const std::string& f : failures) std::cerr << "vor_e2e: FAILED " << f << "\n";
  const bool correct = failures.empty();
  std::cout << ResultLine(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout.precision(10);
  return Run(ParseOptions(argc, argv));
}
