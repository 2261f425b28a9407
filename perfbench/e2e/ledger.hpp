// The benchmark's own span log.
//
// Spans are recorded only around the public calls the benchmark makes
// into each layer (it adds no instrumentation to the product).  They are
// kept in memory and written once at exit.  A span's self time is its
// duration minus the time covered by its child spans; the benchmark is
// single-threaded on its control path, so children never overlap.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /// Index of the enclosing span, -1 at the root.
    int parent = -1;
  };

  /// RAII span.  It always times (so callers can read Seconds() even with
  /// the log disabled) but records only when the log is enabled.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Seconds since the span opened.
    [[nodiscard]] double Seconds() const;

   private:
    SpanLog& log_;
    int index_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  explicit SpanLog(bool enabled);

  /// Summed duration / self time of every span with this name.
  [[nodiscard]] double TotalSeconds(const std::string& name) const;
  [[nodiscard]] std::map<std::string, double> SelfSecondsByName() const;

  /// {"spans": [{"name", "start_s", "end_s", "parent"}...]} — start/end
  /// relative to the log's creation.
  [[nodiscard]] vor::util::Json ToJson() const;

 private:
  [[nodiscard]] double Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  /// Open spans, innermost last.
  std::vector<int> stack_;
};

}  // namespace perfbench
