// In-memory span recording for the traced run: each call the benchmark
// makes into a layer's public function becomes a span (name, start, end,
// parent), kept in memory and written out when the run ends. Self time is a
// span's duration minus the time its children cover. Disabled, it records
// nothing and only runs the wrapped call.
#ifndef LIFECYCLE_BENCH_SPAN_LOG_H_
#define LIFECYCLE_BENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lifecycle {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  // Host steady-clock time since the log began.
    int64_t end_ns = 0;
    int parent = -1;       // Index of the enclosing span, -1 at the top.
  };

  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled). Spans close in reverse order of opening.
  int Begin(std::string name);
  void End(int index);

  // Runs `fn` inside a span called `name` and returns what it returns.
  template <typename F>
  decltype(auto) Wrap(const char* name, F&& fn) {
    struct Closer {
      SpanLog* log;
      int index;
      ~Closer() { log->End(index); }
    } closer{this, Begin(name)};
    return std::forward<F>(fn)();
  }

  // Self time of span `index` in milliseconds.
  double SelfMs(int index) const;
  // Self time of the most recent closed span called `name` (0 if none).
  double LastSelfMs(const std::string& name) const;

  // Chrome trace-event JSON of every span, with self time as an argument.
  std::string ToChromeJson() const;

 private:
  int64_t Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
  std::vector<int> open_;
};

}  // namespace lifecycle

#endif  // LIFECYCLE_BENCH_SPAN_LOG_H_
