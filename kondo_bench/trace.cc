#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace kondo_bench {
namespace {

thread_local uint64_t g_current_span = 0;

std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

// Length of the union of [begin, end) intervals clipped to [lo, hi).
int64_t CoveredNanos(std::vector<std::pair<int64_t, int64_t>> intervals,
                     int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_begin = 0;
  int64_t run_end = 0;
  bool open = false;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, lo);
    end = std::min(end, hi);
    if (end <= begin) {
      continue;
    }
    if (open && begin <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) {
      covered += run_end - run_begin;
    }
    run_begin = begin;
    run_end = end;
    open = true;
  }
  if (open) {
    covered += run_end - run_begin;
  }
  return covered;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = spans.front().start_ns;
    for (const SpanRecord& span : spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // Span names are compile-time "<layer>.<what>" literals: no escaping.
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 i == 0 ? "" : ",", span.name.c_str(),
                 LayerOf(span.name).c_str(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.tid, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

Span::Span(Tracer& tracer, const char* name)
    : Span(tracer, name, g_current_span) {}

Span::Span(Tracer& tracer, const char* name, uint64_t parent)
    : tracer_(tracer), name_(name), parent_(parent) {
  if (tracer_.enabled()) {
    id_ = tracer_.NextId();
    saved_current_ = g_current_span;
    g_current_span = id_;
  }
  start_ns_ = NowNanos();
}

Span::~Span() {
  const int64_t end_ns = NowNanos();
  if (id_ == 0) {
    return;
  }
  g_current_span = saved_current_;
  tracer_.Record(SpanRecord{id_, parent_, name_, start_ns_, end_ns,
                            ThreadOrdinal()});
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    int64_t covered = 0;
    if (auto it = children.find(span.id); it != children.end()) {
      covered = CoveredNanos(it->second, span.start_ns, span.end_ns);
    }
    SpanTotals& entry = totals[span.name];
    entry.count += 1;
    entry.total_s += static_cast<double>(duration) * 1e-9;
    entry.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return totals;
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> layers;
  for (const auto& [name, totals] : TotalsByName(spans)) {
    layers[LayerOf(name)] += totals.self_s;
  }
  return layers;
}

}  // namespace kondo_bench
