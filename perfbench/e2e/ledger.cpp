#include "e2e/ledger.hpp"

#include <utility>

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), start_(std::chrono::steady_clock::now()) {
  if (!log_.enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start = log_.Now();
  span.parent = log_.stack_.empty() ? -1 : log_.stack_.back();
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(std::move(span));
  log_.stack_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_.spans_[static_cast<std::size_t>(index_)].end = log_.Now();
  log_.stack_.pop_back();
}

double SpanLog::Scope::Seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

std::map<std::string, double> SpanLog::SelfSecondsByName() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

vor::util::Json SpanLog::ToJson() const {
  vor::util::JsonArray spans;
  spans.reserve(spans_.size());
  for (const Span& span : spans_) {
    spans.emplace_back(vor::util::JsonObject{{"name", span.name},
                                             {"start_s", span.start},
                                             {"end_s", span.end},
                                             {"parent", span.parent}});
  }
  return vor::util::JsonObject{{"spans", std::move(spans)}};
}

}  // namespace perfbench
