#include "util/step_timeline.hpp"

#include <algorithm>
#include <cassert>

namespace vor::util {

void StepTimeline::Add(const StepPiece& piece) {
  assert(piece.height >= 0.0);
  if (piece.window.empty()) return;
  const auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), piece.tag,
      [](std::uint64_t tag, const StepPiece& p) { return tag < p.tag; });
  pieces_.insert(it, piece);
  InvalidateCache();
}

std::size_t StepTimeline::RemoveByTag(std::uint64_t tag) {
  const auto it = std::remove_if(pieces_.begin(), pieces_.end(),
                                 [tag](const StepPiece& p) { return p.tag == tag; });
  const auto removed = static_cast<std::size_t>(std::distance(it, pieces_.end()));
  if (removed != 0) {
    pieces_.erase(it, pieces_.end());
    InvalidateCache();
  }
  return removed;
}

double StepTimeline::ValueAt(Seconds t, std::uint64_t skip_tag) const {
  double total = 0.0;
  for (const StepPiece& p : pieces_) {
    if (p.tag != skip_tag && p.window.contains(t)) total += p.height;
  }
  return total;
}

const std::vector<double>& StepTimeline::Breakpoints() const {
  if (cache_valid_.load(std::memory_order_acquire)) return breakpoints_cache_;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_valid_.load(std::memory_order_relaxed)) return breakpoints_cache_;
  std::vector<double> bps;
  bps.reserve(pieces_.size() * 2);
  for (const StepPiece& p : pieces_) {
    bps.push_back(p.window.start.value());
    bps.push_back(p.window.end.value());
  }
  std::sort(bps.begin(), bps.end());
  bps.erase(std::unique(bps.begin(), bps.end()), bps.end());
  breakpoints_cache_ = std::move(bps);
  cache_valid_.store(true, std::memory_order_release);
  return breakpoints_cache_;
}

double StepTimeline::Max() const {
  double best = 0.0;
  for (const double t : Breakpoints()) best = std::max(best, ValueAt(Seconds{t}));
  return best;
}

double StepTimeline::MaxOver(Interval window) const {
  if (window.empty()) return 0.0;
  double best = ValueAt(window.start);
  for (const double t : Breakpoints()) {
    if (t > window.start.value() && t < window.end.value()) {
      best = std::max(best, ValueAt(Seconds{t}));
    }
  }
  return best;
}

std::vector<StepExcessRegion> StepTimeline::RegionsAbove(double threshold) const {
  std::vector<StepExcessRegion> regions;
  const std::vector<double>& bps = Breakpoints();
  bool open = false;
  StepExcessRegion current;

  auto close_region = [&](double end) {
    current.window.end = Seconds{end};
    current.peak = MaxOver(current.window);
    for (const StepPiece& p : pieces_) {
      if (Overlaps(p.window, current.window)) current.contributors.push_back(p.tag);
    }
    std::sort(current.contributors.begin(), current.contributors.end());
    current.contributors.erase(
        std::unique(current.contributors.begin(), current.contributors.end()),
        current.contributors.end());
    regions.push_back(std::move(current));
    current = StepExcessRegion{};
    open = false;
  };

  for (const double t : bps) {
    const bool above = ValueAt(Seconds{t}) > threshold;
    if (above && !open) {
      open = true;
      current.window.start = Seconds{t};
    } else if (!above && open) {
      close_region(t);
    }
  }
  // The aggregate is zero after the last breakpoint, so an open region is
  // impossible here unless threshold < 0; close defensively at the end.
  if (open && !bps.empty()) close_region(bps.back());
  return regions;
}

bool StepTimeline::FitsUnder(const StepPiece& piece, double threshold,
                             std::uint64_t skip_tag) const {
  if (piece.window.empty()) return true;
  if (ValueAt(piece.window.start, skip_tag) + piece.height > threshold) {
    return false;
  }
  for (const double t : Breakpoints()) {
    if (t > piece.window.start.value() && t < piece.window.end.value()) {
      if (ValueAt(Seconds{t}, skip_tag) + piece.height > threshold) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace vor::util
