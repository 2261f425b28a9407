#include "core/incremental.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/ivsp.hpp"
#include "core/rejective_greedy.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace vor::core {

namespace {

/// True when the two request lists agree at every index in `indices` —
/// together with index equality, the exact condition under which a
/// per-file greedy plan computed over `a` can be reused against `b`
/// (GreedyRun reads nothing else, and the plan stores the indices
/// verbatim in its deliveries and residency service lists).
bool SameRequestsAt(const std::vector<std::size_t>& indices,
                    const std::vector<workload::Request>& a,
                    const std::vector<workload::Request>& b) {
  for (const std::size_t i : indices) {
    const workload::Request& ra = a[i];
    const workload::Request& rb = b[i];
    if (ra.user != rb.user || ra.video != rb.video ||
        ra.start_time.value() != rb.start_time.value() ||
        ra.neighborhood != rb.neighborhood) {
      return false;
    }
  }
  return true;
}

/// Marks a group whose plan is due for a fresh greedy (no carried slot).
constexpr std::size_t kReschedule = static_cast<std::size_t>(-1);

/// True when `previous.video_groups` can stand for GroupByVideo over the
/// `request_count` requests `previous` was solved for: one group per
/// schedule file, slot i holding group i's video, videos strictly
/// ascending, and the groups' sizes summing to the request count.
bool IndexCovers(const SolveOutput& previous, std::size_t request_count) {
  const std::vector<VideoGroup>& index = previous.video_groups;
  if (index.size() != previous.schedule.files.size()) return false;
  std::size_t total = 0;
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (index[i].indices == nullptr ||
        index[i].video != previous.schedule.files[i].video ||
        (i > 0 && index[i - 1].video >= index[i].video)) {
      return false;
    }
    total += index[i].indices->size();
  }
  return total == request_count;
}

/// GroupByVideo(merged) built from the previous solve's index, where
/// `merged` is that solve's `first_late` requests followed by the late
/// ones.  One merge walk over the two video-sorted lists: a video without
/// late requests keeps its shared group and its slot (carried); an
/// affected video gets the ascending list GroupByVideo would build — its
/// old indices, then the appended late ones — and GroupByVideo's own sort,
/// so even tied start times land in the same order.
void ExtendIndex(const std::vector<VideoGroup>& previous,
                 const std::vector<workload::Request>& merged,
                 std::size_t first_late, std::vector<VideoGroup>* groups,
                 std::vector<std::size_t>* carry_from) {
  std::vector<std::pair<media::VideoId, std::size_t>> late;
  late.reserve(merged.size() - first_late);
  for (std::size_t i = first_late; i < merged.size(); ++i) {
    late.emplace_back(merged[i].video, i);
  }
  std::sort(late.begin(), late.end());

  groups->reserve(previous.size() + late.size());
  carry_from->reserve(previous.size() + late.size());
  std::size_t p = 0;
  std::size_t l = 0;
  while (p < previous.size() || l < late.size()) {
    if (l == late.size() ||
        (p < previous.size() && previous[p].video < late[l].first)) {
      groups->push_back(previous[p]);
      carry_from->push_back(p);
      ++p;
      continue;
    }
    const media::VideoId video = late[l].first;
    std::size_t late_end = l;
    while (late_end < late.size() && late[late_end].first == video) ++late_end;
    const bool known = p < previous.size() && previous[p].video == video;
    std::vector<std::size_t> indices;
    indices.reserve((known ? previous[p].indices->size() : 0) + late_end - l);
    if (known) {
      indices.assign(previous[p].indices->begin(), previous[p].indices->end());
      std::sort(indices.begin(), indices.end());
      ++p;
    }
    for (; l < late_end; ++l) indices.push_back(late[l].second);
    workload::SortByStartTime(merged, indices);
    groups->push_back(VideoGroup{
        video, std::make_shared<const std::vector<std::size_t>>(
                   std::move(indices))});
    carry_from->push_back(kReschedule);
  }
}

}  // namespace

util::Result<SolveOutput> IncrementalSolve(
    const VorScheduler& scheduler, const SolveOutput& previous,
    const std::vector<workload::Request>& original_requests,
    const std::vector<workload::Request>& late_requests,
    std::vector<workload::Request>* merged_requests,
    IncrementalStats* stats, const SpeculativeSolution* base,
    SpeculativeSolution* capture) {
  if (merged_requests == nullptr) {
    return util::InvalidArgument("merged_requests must not be null");
  }
  const CostModel& cm = scheduler.cost_model();
  for (const workload::Request& r : late_requests) {
    if (!cm.catalog().Contains(r.video)) {
      return util::NotFound("late request for unknown video id " +
                            std::to_string(r.video));
    }
    if (!cm.topology().IsStorage(r.neighborhood)) {
      return util::InvalidArgument(
          "late request neighborhood is not an intermediate storage node");
    }
  }

  if (!IndexCovers(previous, original_requests.size())) {
    return util::InvalidArgument(
        "previous solve's video_groups do not index original_requests");
  }

  *merged_requests = original_requests;
  merged_requests->insert(merged_requests->end(), late_requests.begin(),
                          late_requests.end());

  // Phase 1, incrementally: recompute only affected files; everything
  // else carries over (request indices into the original prefix stay
  // valid because late requests are appended).  The carried-over /
  // rescheduled split is decided serially, then both kinds of slot fill
  // through the same shard-parallel per-file path as IvspSolve.
  SolveOutput out;
  IncrementalStats local_stats;
  obs::MetricsRegistry* metrics = scheduler.options().metrics;
  const obs::ScopedSpan span(metrics, "incremental_solve");
  std::vector<std::size_t> carry_from;
  ExtendIndex(previous.video_groups, *merged_requests,
              original_requests.size(), &out.video_groups, &carry_from);
  const std::vector<VideoGroup>& groups = out.video_groups;
  for (const std::size_t from : carry_from) {
    ++(from == kReschedule ? local_stats.files_rescheduled
                           : local_stats.files_carried_over);
  }

  // Foreign-base mining: a slot due for a fresh greedy copies the base's
  // plan instead when the base solved the identical greedy instance.  The
  // comparison is exact (index lists and the requests behind them), so a
  // base from any speculation point — or none — yields the same bytes.
  std::vector<std::size_t> reuse_from(groups.size(), kReschedule);
  if (base != nullptr) {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (carry_from[i] != kReschedule) continue;
      const media::VideoId video = groups[i].video;
      if (!std::binary_search(base->recomputed.begin(),
                              base->recomputed.end(), video)) {
        continue;
      }
      const auto it = std::lower_bound(
          base->video_groups.begin(), base->video_groups.end(), video,
          [](const VideoGroup& group, media::VideoId v) {
            return group.video < v;
          });
      if (it == base->video_groups.end() || it->video != video) continue;
      if (*it->indices != *groups[i].indices ||
          !SameRequestsAt(*groups[i].indices, base->merged,
                          *merged_requests)) {
        continue;
      }
      reuse_from[i] =
          static_cast<std::size_t>(it - base->video_groups.begin());
      ++local_stats.files_reused_from_base;
    }
  }

  out.schedule.files.resize(groups.size());
  const auto fill_slot = [&](std::size_t i) {
    if (carry_from[i] != kReschedule) {
      out.schedule.files[i] = previous.schedule.files[carry_from[i]];
    } else if (reuse_from[i] != kReschedule) {
      out.schedule.files[i] = base->phase1.files[reuse_from[i]];
    } else {
      out.schedule.files[i] = ScheduleFileGreedy(
          groups[i].video, *merged_requests, *groups[i].indices, cm,
          scheduler.options().sorp.ivsp, nullptr);
    }
  };
  // The scheduler's pool serves both phases, as in VorScheduler::Solve.
  util::ThreadPool* pool = scheduler.pool();
  if (pool != nullptr && groups.size() > 1) {
    pool->ParallelFor(groups.size(), fill_slot);
  } else {
    for (std::size_t i = 0; i < groups.size(); ++i) fill_slot(i);
  }
  obs::Add(metrics, "incremental.files_carried_over",
           local_stats.files_carried_over);
  obs::Add(metrics, "incremental.files_rescheduled",
           local_stats.files_rescheduled);
  obs::Add(metrics, "incremental.files_reused_from_base",
           local_stats.files_reused_from_base);

  // Capture before SORP: phase 2 mutates the schedule in place, and only
  // the pre-SORP plans are pure per-file greedy outputs a future repair
  // may copy.  Base-reused slots qualify too — they equal the greedy's.
  if (capture != nullptr) {
    capture->phase1 = out.schedule;
    capture->merged = *merged_requests;
    capture->video_groups = groups;
    capture->recomputed.clear();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (carry_from[i] == kReschedule) {
        capture->recomputed.push_back(groups[i].video);
      }
    }
  }

  // Phase 2 runs on the merged schedule as usual: overflow interactions
  // are global, so no shortcut is sound there.
  SorpOptions sorp_options = scheduler.options().sorp;
  sorp_options.pool = pool;
  sorp_options.metrics = metrics;
  out.sorp = SorpSolve(out.schedule, *merged_requests, cm, sorp_options);
  // SORP priced the merged phase-1 schedule before resolving it.
  out.phase1_cost = out.sorp.cost_before;
  out.final_cost = out.sorp.cost_after;

  if (stats != nullptr) *stats = local_stats;
  return out;
}

}  // namespace vor::core
