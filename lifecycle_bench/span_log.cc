#include "span_log.h"

#include <cstdio>

namespace lifecycle {

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::Begin(std::string name) {
  if (!enabled_) {
    return -1;
  }
  const int index = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), Now(), 0, parent});
  children_.emplace_back();
  if (parent >= 0) {
    children_[parent].push_back(index);
  }
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  if (index < 0) {
    return;
  }
  spans_[index].end_ns = Now();
  open_.pop_back();
}

double SpanLog::SelfMs(int index) const {
  // Spans nest strictly on one thread, so children never overlap and lie
  // inside their parent.
  const Span& span = spans_[index];
  int64_t self_ns = span.end_ns - span.start_ns;
  for (int child : children_[index]) {
    self_ns -= spans_[child].end_ns - spans_[child].start_ns;
  }
  return static_cast<double>(self_ns) / 1e6;
}

double SpanLog::LastSelfMs(const std::string& name) const {
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
    if (spans_[i].name == name && spans_[i].end_ns > 0) {
      return SelfMs(i);
    }
  }
  return 0.0;
}

std::string SpanLog::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"self_ms\":%.6f}}",
                  i == 0 ? "" : ",", span.name.c_str(), span.start_ns / 1e3,
                  (span.end_ns - span.start_ns) / 1e3, i, span.parent, SelfMs(i));
    out += buffer;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace lifecycle
