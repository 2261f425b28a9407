// Stream load on capped links and storage serving I/O — the bandwidth
// constraints the paper leaves as future work (Sec. 6).
//
// A delivery occupies its video's bandwidth on every link of its route,
// and on the serving I/O of the storage it originates at, for the
// playback duration.  Links with bandwidth_cap > 0 and storages with
// io_cap > 0 are the tracked resources; the rest (the warehouse included)
// are uncapacitated and never consulted.
//
// StreamLoadTracker keeps UsageTracker's contract for the SORP loop.  A
// file is keyed by its video (a schedule holds one file per video), and
// each stream is tagged with it: pieces stay sorted by video, a file's
// streams in delivery order; ExcludingFile(v) is a read-only view without
// v's streams that records the resources it consults; and a resource's
// generation moves only when a commit changes its load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "core/schedule.hpp"
#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/step_timeline.hpp"

namespace vor::storage {

class StreamLoadTracker;

/// Read-only view of a tracker, optionally without one file's streams.
/// Records every capped resource it checks, loaded or not (a later commit
/// can load it), so a dry run can be validated against Generation().
class StreamView {
 public:
  /// Shows every stream unless `excluded_file` names a file's video.
  explicit StreamView(
      const StreamLoadTracker* tracker,
      std::uint64_t excluded_file = util::StepTimeline::kNoTag)
      : tracker_(tracker), excluded_tag_(excluded_file) {}

  /// True iff a stream of `video` starting at `t` along `route` keeps
  /// every capped link on it, and a capped origin's serving I/O, in cap.
  [[nodiscard]] bool RouteFeasible(const std::vector<net::NodeId>& route,
                                   util::Seconds t, media::VideoId video) const;

  /// Resource keys consulted since construction, first-consulted first.
  [[nodiscard]] const std::vector<std::uint64_t>& ConsultedKeys() const {
    return consulted_;
  }

 private:
  [[nodiscard]] bool Fits(std::uint64_t key,
                          const util::StepPiece& piece) const;

  const StreamLoadTracker* tracker_;
  std::uint64_t excluded_tag_;
  mutable std::vector<std::uint64_t> consulted_;  // distinct, a handful
};

class StreamLoadTracker {
 public:
  StreamLoadTracker(const net::Topology& topology,
                    const media::Catalog& catalog);

  /// Accounts one delivery (building; generations count commits).
  void AddDelivery(const core::Delivery& d);

  /// Load minus the streams of `file`'s video, read in place; safe to use
  /// concurrently while nothing commits.
  [[nodiscard]] StreamView ExcludingFile(media::VideoId file) const {
    return StreamView(this, file);
  }

  /// Swaps the streams of `replacement`'s video for its deliveries and
  /// bumps the generation of every resource whose timeline changed.
  void ApplyCommit(const core::FileSchedule& replacement);

  /// Per-resource commit counter (0 for resources no commit changed).
  [[nodiscard]] std::uint64_t Generation(std::uint64_t key) const;

  /// (peak load)/(cap) over all capped resources; <= 1 means feasible.
  [[nodiscard]] double WorstUtilization() const;
  /// Capped links / storages whose load exceeds the cap somewhere.
  [[nodiscard]] std::size_t OverloadedLinks() const {
    return Overloaded(false);
  }
  [[nodiscard]] std::size_t OverloadedNodes() const { return Overloaded(true); }

 private:
  friend class StreamView;

  struct Resource {
    double cap = 0.0;
    util::StepTimeline load;
    std::uint64_t generation = 0;
  };

  /// Link (a, b) is keyed (min << 32 | max), storage n (n << 32 | n).
  [[nodiscard]] static std::uint64_t Key(net::NodeId a, net::NodeId b);
  /// A stream of `video` from `t`, tagged with its file (the video).
  [[nodiscard]] util::StepPiece PieceOf(media::VideoId video,
                                        util::Seconds t) const;
  [[nodiscard]] std::size_t Overloaded(bool nodes) const;

  const media::Catalog* catalog_;
  std::map<std::uint64_t, Resource> resources_;
};

}  // namespace vor::storage
