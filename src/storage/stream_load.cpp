#include "storage/stream_load.hpp"

#include <algorithm>
#include <utility>

namespace vor::storage {

bool StreamView::RouteFeasible(const std::vector<net::NodeId>& route,
                               util::Seconds t, media::VideoId video) const {
  if (tracker_->resources_.empty() || route.empty()) return true;
  const util::StepPiece piece = tracker_->PieceOf(video, t);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    if (!Fits(StreamLoadTracker::Key(route[i], route[i + 1]), piece)) {
      return false;
    }
  }
  // Local replays (single-node routes) also stream off the origin's disks.
  return Fits(StreamLoadTracker::Key(route.front(), route.front()), piece);
}

bool StreamView::Fits(std::uint64_t key, const util::StepPiece& piece) const {
  const auto it = tracker_->resources_.find(key);
  if (it == tracker_->resources_.end()) return true;  // uncapacitated
  if (std::count(consulted_.begin(), consulted_.end(), key) == 0) {
    consulted_.push_back(key);
  }
  return it->second.load.FitsUnder(piece, it->second.cap, excluded_tag_);
}

StreamLoadTracker::StreamLoadTracker(const net::Topology& topology,
                                     const media::Catalog& catalog)
    : catalog_(&catalog) {
  for (const net::Link& l : topology.links()) {
    // A self-loop is on no route (and would share a storage's key).
    if (l.bandwidth_cap.value() <= 0.0 || l.a == l.b) continue;
    // Parallel capped links between one pair share the key; keep the
    // larger cap (the paper topology has none).
    Resource& r = resources_[Key(l.a, l.b)];
    r.cap = std::max(r.cap, l.bandwidth_cap.value());
  }
  for (const net::NodeInfo& n : topology.nodes()) {
    if (n.kind == net::NodeKind::kStorage && n.io_cap.value() > 0.0) {
      resources_[Key(n.id, n.id)].cap = n.io_cap.value();
    }
  }
}

std::uint64_t StreamLoadTracker::Key(net::NodeId a, net::NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

util::StepPiece StreamLoadTracker::PieceOf(media::VideoId video,
                                           util::Seconds t) const {
  const media::Video& v = catalog_->video(video);
  return {util::Interval{t, t + v.playback}, v.bandwidth.value(), video};
}

void StreamLoadTracker::AddDelivery(const core::Delivery& d) {
  if (resources_.empty() || d.route.empty()) return;
  const util::StepPiece piece = PieceOf(d.video, d.start);
  const auto load = [&](std::uint64_t key) {
    const auto it = resources_.find(key);
    if (it != resources_.end()) it->second.load.Add(piece);
  };
  for (std::size_t i = 0; i + 1 < d.route.size(); ++i) {
    load(Key(d.route[i], d.route[i + 1]));
  }
  load(Key(d.route.front(), d.route.front()));
}

void StreamLoadTracker::ApplyCommit(const core::FileSchedule& replacement) {
  // A commit is rare next to the dry runs, so it compares every
  // resource's whole timeline.  Removal is order-stable and the sorted
  // insert puts the file back at its tag, so an unchanged file leaves its
  // timelines piece-identical (and every sum over them bit-identical).
  std::vector<std::vector<util::StepPiece>> before;
  before.reserve(resources_.size());
  for (auto& [key, r] : resources_) {
    before.push_back(r.load.pieces());
    r.load.RemoveByTag(replacement.video);
  }
  for (const core::Delivery& d : replacement.deliveries) AddDelivery(d);
  std::size_t i = 0;
  for (auto& [key, r] : resources_) {
    if (r.load.pieces() != before[i++]) ++r.generation;
  }
}

std::uint64_t StreamLoadTracker::Generation(std::uint64_t key) const {
  const auto it = resources_.find(key);
  return it == resources_.end() ? 0 : it->second.generation;
}

double StreamLoadTracker::WorstUtilization() const {
  double worst = 0.0;
  for (const auto& [key, r] : resources_) {
    worst = std::max(worst, r.load.Max() / r.cap);
  }
  return worst;
}

std::size_t StreamLoadTracker::Overloaded(bool nodes) const {
  std::size_t count = 0;
  for (const auto& [key, r] : resources_) {
    const bool is_node = (key >> 32) == (key & 0xffffffffULL);
    if (is_node == nodes && r.load.Max() > r.cap * (1.0 + 1e-12)) ++count;
  }
  return count;
}

}  // namespace vor::storage
