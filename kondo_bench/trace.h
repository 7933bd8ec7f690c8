// Spans recorded by the benchmark around its own calls into each layer.
//
// A span has a name ("<layer>.<what>", e.g. "carve.rasterize"), a start and
// end on the steady clock, the recording thread, and the id of the span that
// caused it. The parent is the thread's innermost open span unless the
// caller names one explicitly (a debloat test running on a pool thread
// names the fuzz-schedule span that scheduled it). Spans stay in memory and
// are written out as Chrome trace-event JSON when the benchmark ends.
//
// A Span always measures its own duration, so the same object serves as a
// timer on untraced runs; only recording is switched by the tracer.

#ifndef KONDO_BENCH_TRACE_H_
#define KONDO_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace kondo_bench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  uint64_t NextId();
  void Record(SpanRecord record);

  /// Copy of every span recorded so far.
  std::vector<SpanRecord> Spans() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Nanoseconds on the steady clock.
int64_t NowNanos();

/// Stable small id of the calling thread (1, 2, ... in first-use order).
uint32_t ThreadOrdinal();

/// RAII span. Construct around one call into a layer.
class Span {
 public:
  /// Parent = the calling thread's innermost open span.
  Span(Tracer& tracer, const char* name);
  /// Explicit parent, for work that runs on another thread than its cause.
  Span(Tracer& tracer, const char* name, uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when the tracer is disabled.
  uint64_t id() const { return id_; }
  double ElapsedSeconds() const {
    return static_cast<double>(NowNanos() - start_ns_) * 1e-9;
  }

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t saved_current_ = 0;
  int64_t start_ns_ = 0;
};

/// Per-name totals over a set of spans. Self time is a span's duration
/// minus the part of its interval covered by its children's intervals
/// (children on other threads included; overlapping children count once).
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans);

/// Self time summed per layer (the name's prefix before the first '.').
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans);

}  // namespace kondo_bench

#endif  // KONDO_BENCH_TRACE_H_
