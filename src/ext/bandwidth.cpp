#include "ext/bandwidth.hpp"

#include <algorithm>

#include "core/ivsp.hpp"
#include "obs/metrics.hpp"
#include "workload/generator.hpp"

namespace vor::ext {

std::uint64_t LinkLoadTracker::Key(net::NodeId a, net::NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

LinkLoadTracker::LinkLoadTracker(const net::Topology& topology,
                                 const media::Catalog& catalog)
    : topology_(&topology), catalog_(&catalog) {
  for (const net::Link& l : topology.links()) {
    if (l.bandwidth_cap.value() > 0.0) {
      // Parallel capacitated links between the same pair share the key;
      // keep the larger cap (conservative for detection, permissive for
      // admission — parallel links are not used by the paper topology).
      auto [it, inserted] = caps_.emplace(Key(l.a, l.b), l.bandwidth_cap.value());
      if (!inserted) it->second = std::max(it->second, l.bandwidth_cap.value());
    }
  }
  for (const net::NodeInfo& n : topology.nodes()) {
    if (n.kind == net::NodeKind::kStorage && n.io_cap.value() > 0.0) {
      node_caps_.emplace(n.id, n.io_cap.value());
    }
  }
}

bool LinkLoadTracker::RouteFeasible(const std::vector<net::NodeId>& route,
                                    util::Seconds t,
                                    media::VideoId video) const {
  if ((caps_.empty() && node_caps_.empty()) || route.empty()) return true;
  const media::Video& v = catalog_->video(video);
  const util::StepPiece piece{util::Interval{t, t + v.playback},
                              v.bandwidth.value(), 0};
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const auto cap_it = caps_.find(Key(route[i], route[i + 1]));
    if (cap_it == caps_.end()) continue;  // uncapacitated link
    const auto load_it = load_.find(cap_it->first);
    if (load_it == load_.end()) {
      if (piece.height > cap_it->second) return false;
      continue;
    }
    if (!load_it->second.FitsUnder(piece, cap_it->second)) return false;
  }
  // Serving-I/O at the originating storage.  Local replays (single-node
  // routes) also stream off the origin's disks.
  const auto node_cap = node_caps_.find(route.front());
  if (node_cap != node_caps_.end()) {
    const auto load_it = node_load_.find(node_cap->first);
    if (load_it == node_load_.end()) {
      if (piece.height > node_cap->second) return false;
    } else if (!load_it->second.FitsUnder(piece, node_cap->second)) {
      return false;
    }
  }
  return true;
}

void LinkLoadTracker::AddDelivery(const core::Delivery& d,
                                  std::uint64_t file_tag) {
  if ((caps_.empty() && node_caps_.empty()) || d.route.empty()) return;
  const media::Video& v = catalog_->video(d.video);
  const util::StepPiece piece{util::Interval{d.start, d.start + v.playback},
                              v.bandwidth.value(), file_tag};
  for (std::size_t i = 0; i + 1 < d.route.size(); ++i) {
    const std::uint64_t key = Key(d.route[i], d.route[i + 1]);
    if (!caps_.count(key)) continue;
    load_[key].Add(piece);
  }
  if (node_caps_.count(d.route.front())) {
    node_load_[d.route.front()].Add(piece);
  }
}

void LinkLoadTracker::AddFile(const core::FileSchedule& file,
                              std::uint64_t file_tag) {
  for (const core::Delivery& d : file.deliveries) AddDelivery(d, file_tag);
}

void LinkLoadTracker::RemoveFile(std::uint64_t file_tag) {
  for (auto& [key, timeline] : load_) timeline.RemoveByTag(file_tag);
  for (auto& [node, timeline] : node_load_) timeline.RemoveByTag(file_tag);
}

double LinkLoadTracker::WorstUtilization() const {
  double worst = 0.0;
  for (const auto& [key, timeline] : load_) {
    const double cap = caps_.at(key);
    if (cap > 0.0) worst = std::max(worst, timeline.Max() / cap);
  }
  for (const auto& [node, timeline] : node_load_) {
    const double cap = node_caps_.at(node);
    if (cap > 0.0) worst = std::max(worst, timeline.Max() / cap);
  }
  return worst;
}

std::size_t LinkLoadTracker::OverloadedNodes() const {
  std::size_t count = 0;
  for (const auto& [node, timeline] : node_load_) {
    if (timeline.Max() > node_caps_.at(node) * (1.0 + 1e-12)) ++count;
  }
  return count;
}

std::size_t LinkLoadTracker::OverloadedLinks() const {
  std::size_t count = 0;
  for (const auto& [key, timeline] : load_) {
    if (timeline.Max() > caps_.at(key) * (1.0 + 1e-12)) ++count;
  }
  return count;
}

BandwidthAwareScheduler::BandwidthAwareScheduler(
    const net::Topology& topology, const media::Catalog& catalog,
    core::SchedulerOptions options)
    : topology_(&topology),
      catalog_(&catalog),
      options_(options),
      router_(topology),
      cost_model_(topology, router_, catalog, options.pricing) {}

util::Result<BandwidthSolveOutput> BandwidthAwareScheduler::Solve(
    const std::vector<workload::Request>& requests) const {
  if (const util::Status s = topology_->Validate(); !s.ok()) return s.error();
  if (const util::Status s = catalog_->Validate(); !s.ok()) return s.error();

  LinkLoadTracker tracker(*topology_, *catalog_);
  BandwidthSolveOutput out;
  obs::MetricsRegistry* metrics = options_.metrics;
  const obs::ScopedSpan solve_span(metrics, "solve");

  // ---- Phase 1: bandwidth-aware individual video scheduling ----------
  std::size_t forced = 0;
  const auto groups = workload::GroupByVideo(requests);
  out.schedule.files.reserve(groups.size());
  {
    const obs::ScopedSpan ivsp_span(metrics, "ivsp");
    core::GreedyStats phase1_greedy;
    for (std::size_t file_index = 0; file_index < groups.size();
         ++file_index) {
      const auto& [video, indices] = groups[file_index];
      core::ConstraintSet constraints;
      constraints.route_ok = [&tracker](const std::vector<net::NodeId>& route,
                                        util::Seconds t, media::VideoId v) {
        return tracker.RouteFeasible(route, t, v);
      };
      constraints.on_commit = [&tracker, &forced, file_index](
                                  const core::Delivery& d) {
        // The greedy falls back to a (possibly infeasible) direct delivery
        // when every candidate is saturated; detect that here.
        // Feasibility is re-tested before accounting so forced streams are
        // counted exactly once.
        tracker.AddDelivery(d, file_index);
      };
      // Count forced requests: a request is forced when even the VW route
      // fails the feasibility test at selection time.  The greedy signals
      // this implicitly; re-check after the fact.
      core::GreedyStats file_stats;
      core::FileSchedule file = core::ScheduleFileGreedy(
          video, requests, indices, cost_model_, options_.sorp.ivsp,
          &constraints, metrics != nullptr ? &file_stats : nullptr);
      phase1_greedy += file_stats;
      out.schedule.files.push_back(std::move(file));
    }
    if (metrics != nullptr) {
      obs::Add(metrics, "ivsp.files", groups.size());
      obs::Add(metrics, "ivsp.requests", phase1_greedy.requests);
      obs::Add(metrics, "ivsp.decision.direct", phase1_greedy.direct);
      obs::Add(metrics, "ivsp.decision.extend", phase1_greedy.extend);
      obs::Add(metrics, "ivsp.decision.new_cache", phase1_greedy.new_cache);
      obs::Add(metrics, "ivsp.candidates_evaluated", phase1_greedy.candidates);
      obs::Add(metrics, "ivsp.forced_direct", phase1_greedy.forced_direct);
      obs::Add(metrics, "ivsp.reject.route", phase1_greedy.rejected_route);
    }
  }
  out.phase1_cost = cost_model_.TotalCost(out.schedule);

  // ---- Phase 2: storage overflow resolution with bandwidth admission --
  // The hooks force the serial monolithic loop, so no pool is needed.
  core::SorpOptions sorp = options_.sorp;
  sorp.route_ok = [&tracker](const std::vector<net::NodeId>& route,
                             util::Seconds t, media::VideoId v) {
    return tracker.RouteFeasible(route, t, v);
  };
  sorp.on_file_excluded = [&tracker](std::size_t file_index) {
    tracker.RemoveFile(file_index);
  };
  sorp.on_file_included = [&tracker](std::size_t file_index,
                                     const core::FileSchedule& file) {
    tracker.AddFile(file, file_index);
  };
  sorp.metrics = metrics;
  out.sorp = core::SorpSolve(out.schedule, requests, cost_model_, sorp);
  out.final_cost = out.sorp.cost_after;

  // ---- residual bandwidth report --------------------------------------
  // Rebuild the tracker from the final schedule (the SORP hooks keep it
  // current, but a fresh build is the authoritative accounting).
  LinkLoadTracker final_tracker(*topology_, *catalog_);
  for (std::size_t f = 0; f < out.schedule.files.size(); ++f) {
    final_tracker.AddFile(out.schedule.files[f], f);
  }
  out.overloaded_links = final_tracker.OverloadedLinks();
  out.overloaded_nodes = final_tracker.OverloadedNodes();
  out.worst_utilization = final_tracker.WorstUtilization();

  // Forced requests: count deliveries whose route violates a cap in the
  // final accounting (every such stream was admitted by the fallback).
  LinkLoadTracker replay(*topology_, *catalog_);
  for (std::size_t f = 0; f < out.schedule.files.size(); ++f) {
    for (const core::Delivery& d : out.schedule.files[f].deliveries) {
      if (!replay.RouteFeasible(d.route, d.start, d.video)) ++forced;
      replay.AddDelivery(d, f);
    }
  }
  out.forced_requests = forced;
  return out;
}

}  // namespace vor::ext
