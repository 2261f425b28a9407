// Exact piecewise-constant aggregate profiles.
//
// Network streams consume a constant bandwidth B over their playback
// window [t, t+P].  Aggregate link load is therefore a step function.
// This is the analogue of PiecewiseLinear for the bandwidth constraints
// (Sec. 6 "future work" of the paper), aggregated per link and per
// storage by storage::StreamLoadTracker.
//
// Like PiecewiseLinear, the sorted breakpoint list is cached per mutation
// epoch (double-checked atomic + mutex) so repeated capacity probes on a
// shared timeline do not re-sort on every call; mutations must still be
// externally serialized against reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/interval.hpp"
#include "util/units.hpp"

namespace vor::util {

/// A constant contribution `height` over window [start, end).
struct StepPiece {
  Interval window;
  double height = 0.0;
  std::uint64_t tag = 0;

  friend bool operator==(const StepPiece&, const StepPiece&) = default;
};

/// A region where the aggregate step function exceeds a threshold.
struct StepExcessRegion {
  Interval window;
  double peak = 0.0;
  std::vector<std::uint64_t> contributors;
};

class StepTimeline {
 public:
  /// A tag no piece carries: the default `skip_tag` below.
  static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

  StepTimeline() = default;
  // The breakpoint cache holds a mutex, so copies/moves transfer the piece
  // set only and start with a cold cache.
  StepTimeline(const StepTimeline& other) : pieces_(other.pieces_) {}
  StepTimeline(StepTimeline&& other) noexcept
      : pieces_(std::move(other.pieces_)) {}
  StepTimeline& operator=(const StepTimeline& other) {
    if (this != &other) {
      pieces_ = other.pieces_;
      InvalidateCache();
    }
    return *this;
  }
  StepTimeline& operator=(StepTimeline&& other) noexcept {
    if (this != &other) {
      pieces_ = std::move(other.pieces_);
      InvalidateCache();
    }
    return *this;
  }

  /// Adds a contribution.  Pieces stay sorted by tag, equal tags in
  /// insertion order, so sums over them are independent of the order in
  /// which differently tagged pieces were added.
  void Add(const StepPiece& piece);
  std::size_t RemoveByTag(std::uint64_t tag);

  [[nodiscard]] const std::vector<StepPiece>& pieces() const { return pieces_; }

  /// Right-continuous aggregate value at t, leaving out pieces tagged
  /// `skip_tag`.
  [[nodiscard]] double ValueAt(Seconds t,
                               std::uint64_t skip_tag = kNoTag) const;

  /// Global maximum of the aggregate.
  [[nodiscard]] double Max() const;

  /// Maximum over a window.
  [[nodiscard]] double MaxOver(Interval window) const;

  /// Maximal disjoint regions where the aggregate is strictly above the
  /// threshold.
  [[nodiscard]] std::vector<StepExcessRegion> RegionsAbove(double threshold) const;

  /// True iff adding `piece` keeps the aggregate <= threshold on its
  /// window.  Pieces tagged `skip_tag` are left out, with exactly the
  /// result of a copy without them (their breakpoints only add probes
  /// where the reduced aggregate is already probed).
  [[nodiscard]] bool FitsUnder(const StepPiece& piece, double threshold,
                               std::uint64_t skip_tag = kNoTag) const;

 private:
  /// Returns the cached sorted unique breakpoints, recomputing when stale.
  [[nodiscard]] const std::vector<double>& Breakpoints() const;
  void InvalidateCache() {
    cache_valid_.store(false, std::memory_order_release);
  }

  std::vector<StepPiece> pieces_;
  mutable std::mutex cache_mutex_;
  mutable std::atomic<bool> cache_valid_{false};
  mutable std::vector<double> breakpoints_cache_;
};

}  // namespace vor::util
