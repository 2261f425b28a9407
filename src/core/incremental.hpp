// Incremental re-solve for late reservations.
//
// A VOR provider keeps accepting bookings until the cycle's cutoff.  In
// phase 1 files are scheduled independently, so when late requests
// arrive only the *affected titles'* greedy runs need repeating; every
// other title's current plan carries over verbatim, and phase 2 then
// re-resolves storage overflows on the merged schedule.
//
// Two properties follow:
//   * when the previous run was overflow free, carried-over plans equal
//     their phase-1 plans, so the incremental result is IDENTICAL to
//     re-solving the enlarged cycle from scratch (tests assert this);
//   * when it was not, carrying over the previous *resolved* plans keeps
//     unaffected titles' schedules stable (operationally desirable — the
//     provider has likely already pre-staged those transfers) at a
//     possibly slightly different cost than a scratch re-solve.
#pragma once

#include <vector>

#include "core/scheduler.hpp"
#include "util/result.hpp"
#include "workload/request.hpp"

namespace vor::core {

struct IncrementalStats {
  /// Titles whose phase-1 plan was recomputed.
  std::size_t files_rescheduled = 0;
  /// Titles whose plan carried over untouched (before phase 2).
  std::size_t files_carried_over = 0;
  /// Titles whose fresh plan was copied from a foreign base instead of
  /// re-running the greedy (see SpeculativeSolution).
  std::size_t files_reused_from_base = 0;
};

/// Phase-1 artifacts of one IncrementalSolve, captured so a *later* solve
/// over a grown (or shifted) late-request list can mine it for per-file
/// work — the delta-repair half of the pipelined cycle close.
///
/// `phase1` is the schedule BEFORE phase 2 (SORP mutates in place);
/// `merged` is the exact request list it was computed over and
/// `video_groups` its per-video index (entry i is phase1.files[i]'s
/// group); `recomputed` lists the videos whose plans were greedy-fresh in
/// that run (sorted by id).  Only those plans are minable: the rest
/// carried over from the same `previous` and will carry over again anyway.
struct SpeculativeSolution {
  Schedule phase1;
  std::vector<workload::Request> merged;
  std::vector<VideoGroup> video_groups;
  std::vector<media::VideoId> recomputed;
};

/// Extends a previous solution with `late_requests`.
///
/// `previous` must be the output of VorScheduler::Solve (or a prior
/// IncrementalSolve) over `original_requests` with the same scheduler, or
/// a restored schedule whose `video_groups` is IndexByVideo of them.
/// Returns a fresh SolveOutput over the concatenated request list
/// (original order preserved; late requests appended — request indices in
/// the result refer to that concatenation, which is also returned via
/// `merged_requests`).
///
/// The per-video request index carries over too: only the videos of
/// `late_requests` are regrouped (see SolveOutput::video_groups), so the
/// bookkeeping costs what the late requests cost, and the groups are
/// exactly IndexByVideo of the merged list.  An index that does not cover
/// `original_requests` (one group per schedule file, sizes summing to the
/// request count) is rejected with InvalidArgument.
///
/// `base`, when non-null, is a foreign SpeculativeSolution (typically
/// from a speculative solve over an earlier snapshot of the same cycle).
/// A file due for a fresh greedy copies the base's plan instead whenever
/// the base solved the *identical* greedy instance — same video, same
/// request indices, same requests at those indices.  The greedy is a pure
/// function of exactly those inputs and the plan stores the indices
/// verbatim, so the result is byte-identical with or without a base, for
/// any base.  `capture`, when non-null, receives this solve's own
/// phase-1 artifacts for use as a future base.
[[nodiscard]] util::Result<SolveOutput> IncrementalSolve(
    const VorScheduler& scheduler, const SolveOutput& previous,
    const std::vector<workload::Request>& original_requests,
    const std::vector<workload::Request>& late_requests,
    std::vector<workload::Request>* merged_requests,
    IncrementalStats* stats = nullptr,
    const SpeculativeSolution* base = nullptr,
    SpeculativeSolution* capture = nullptr);

}  // namespace vor::core
