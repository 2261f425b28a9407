// Individual Video Scheduling (Sec. 3.2) and its constrained variant, the
// Rejective Greedy (Sec. 4.4), share this implementation.
//
// For one video file, requests are processed in chronological order; for
// each request u_k the scheduler evaluates every way of updating the
// existing partial schedule (the decision set the paper enumerates):
//
//   (A) deliver directly from the video warehouse;
//   (B) serve from an intermediate storage already caching the file,
//       extending that residency's interval to t_k;
//   (C) introduce a new caching IS, anchored to a previously scheduled
//       stream of this file that passed through it (caches are filled by
//       copying blocks out of on-going streams, so anchoring is free on
//       the network).
//
// The update with the minimum incremental cost wins.  When a ConstraintSet
// is supplied (phase 2), candidates that would cache inside a forbidden
// (IS, interval) window, exceed an IS's remaining capacity, or overload a
// capped link or storage I/O are rejected — the "rejective" greedy.
#pragma once

#include <memory>
#include <vector>

#include "core/cost_model.hpp"
#include "core/schedule.hpp"
#include "storage/stream_load.hpp"
#include "storage/usage_timeline.hpp"
#include "util/interval.hpp"
#include "util/piecewise.hpp"
#include "util/thread_pool.hpp"
#include "workload/request.hpp"

namespace vor::obs {
class MetricsRegistry;
}  // namespace vor::obs

namespace vor::core {

struct IvspOptions {
  /// Master switch; false degenerates to direct-from-VW for every request
  /// (the paper's "network only system" reference line in Figs. 5 and 7).
  bool enable_caching = true;
  /// Allow opening a cache at an IS other than the requester's local one.
  bool allow_remote_caching = true;
  /// Allow serving a request from a cache in another neighborhood.
  bool allow_remote_cache_service = true;
};

/// Decision/rejection tallies of one greedy run.  Collected inline (a few
/// integer increments per request — cheap enough to be always-on); callers
/// aggregate them into an obs::MetricsRegistry.  Values are fully
/// deterministic for a deterministic input.
struct GreedyStats {
  /// Requests placed.
  std::size_t requests = 0;
  /// Winning update kinds (the paper's decision set A/B/C).
  std::size_t direct = 0;
  std::size_t extend = 0;
  std::size_t new_cache = 0;
  /// Candidate updates priced across all requests (direct + each
  /// extension + each new-cache anchor that survived the cheap filters).
  std::size_t candidates = 0;
  /// Rejective-greedy rejections by cause (phase 2 only; all zero when no
  /// ConstraintSet is supplied).
  std::size_t rejected_forbidden = 0;
  std::size_t rejected_capacity = 0;
  std::size_t rejected_route = 0;
  /// Requests with no feasible candidate, forced onto the VW route.
  std::size_t forced_direct = 0;

  GreedyStats& operator+=(const GreedyStats& o) {
    requests += o.requests;
    direct += o.direct;
    extend += o.extend;
    new_cache += o.new_cache;
    candidates += o.candidates;
    rejected_forbidden += o.rejected_forbidden;
    rejected_capacity += o.rejected_capacity;
    rejected_route += o.rejected_route;
    forced_direct += o.forced_direct;
    return *this;
  }
};

/// Phase-2 constraints for the rejective greedy.
struct ConstraintSet {
  /// The victim file must not be resident at `node` during `window`
  /// (occupancy support vs. window overlap test).
  std::vector<std::pair<net::NodeId, util::Interval>> forbidden;

  /// Space already reserved at each IS by all *other* files.  Candidate
  /// residencies must keep total usage within the node's capacity.
  /// May be nullptr (no capacity enforcement).  The view records which
  /// nodes were consulted, enabling SORP's cross-round memoization.
  const storage::UsageView* other_usage = nullptr;

  /// Stream load on capped links and storage I/O; candidates whose route
  /// would overload one are rejected.  May be nullptr (no bandwidth caps).
  /// Like `other_usage`, the view records what it consulted.
  const storage::StreamView* streams = nullptr;

  /// When set, every delivery the greedy records is added to this tracker,
  /// so the later requests of the same file see it through `streams`
  /// (phase 1 of the bandwidth scheduler).
  storage::StreamLoadTracker* record_streams = nullptr;

  [[nodiscard]] bool ForbidsResidency(net::NodeId node,
                                      util::Interval support) const;
};

/// Computes S_i for one file.  `indices` are positions into `requests`,
/// already sorted by start time; all must reference `video`.
/// `constraints` may be nullptr (pure phase-1 behaviour: capacity ignored).
/// A non-null `stats` receives this run's decision/rejection tallies.
[[nodiscard]] FileSchedule ScheduleFileGreedy(
    media::VideoId video, const std::vector<workload::Request>& requests,
    const std::vector<std::size_t>& indices, const CostModel& cost_model,
    const IvspOptions& options, const ConstraintSet* constraints,
    GreedyStats* stats = nullptr);

/// One schedule file's requests: the video and its request indices in
/// workload::GroupByVideo order.  The list is shared so that a later
/// IncrementalSolve carries an unaffected video's group without copying.
struct VideoGroup {
  media::VideoId video = 0;
  std::shared_ptr<const std::vector<std::size_t>> indices;
};

/// workload::GroupByVideo of `requests` as a per-video request index:
/// entry i is the group of the i-th distinct video in ascending id.
[[nodiscard]] std::vector<VideoGroup> IndexByVideo(
    const std::vector<workload::Request>& requests);

/// Phase 1, IVSP-solve (Table 2 of the paper): independent greedy per file,
/// capacity ignored.  Returns one FileSchedule per distinct requested video,
/// ordered by video id.
///
/// Files are scheduled independently (the definition of phase 1), so the
/// per-file greedies are embarrassingly parallel: pass a thread pool to
/// shard them across cores (null runs serially; the per-file greedy itself
/// is always sequential).  Results are identical to the serial run.
///
/// A non-null `metrics` registry receives the phase span ("ivsp"),
/// per-file greedy timings, and aggregated decision counters; counter and
/// series values are identical at any thread count (per-file tallies are
/// collected slot-indexed and folded in serially).
///
/// A non-null `index` receives IndexByVideo(requests), the groups the
/// files were scheduled from (entry i is files[i]'s group).
[[nodiscard]] Schedule IvspSolve(const std::vector<workload::Request>& requests,
                                 const CostModel& cost_model,
                                 const IvspOptions& options,
                                 util::ThreadPool* pool = nullptr,
                                 obs::MetricsRegistry* metrics = nullptr,
                                 std::vector<VideoGroup>* index = nullptr);

}  // namespace vor::core
