#include "bench_util.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "array/index_set.h"
#include "core/metrics.h"
#include "fleet/fleet_worker.h"
#include "pack/pack_reader.h"
#include "serve/server.h"

namespace kondo_bench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},           {"campaign_s", "s"},
      {"recall", "ratio"},        {"precision", "ratio"},
      {"retained_ratio", "ratio"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"fuzz.evaluations", "count"},
      {"fuzz.useful_ratio", "ratio"},
      {"fuzz.restarts", "count"},
      {"fuzz.self_s", "s"},
      {"exec.tests_run", "count"},
      {"exec.speculative_waste_ratio", "ratio"},
      {"exec.test_busy_s", "s"},
      {"exec.utilization", "ratio"},
      {"audit.test_us_p50", "us"},
      {"audit.test_us_p99", "us"},
      {"audit.events_per_test", "count"},
      {"provenance.persist_s", "s"},
      {"provenance.persist_share", "ratio"},
      {"provenance.bytes_per_event", "B"},
      {"provenance.close_s", "s"},
      {"provenance.lineage_bytes", "B"},
      {"provenance.query_us_p50", "us"},
      {"carve.carve_s", "s"},
      {"carve.input_points", "count"},
      {"carve.cell_hulls", "count"},
      {"carve.merges", "count"},
      {"carve.final_hulls", "count"},
      {"carve.rasterize_s", "s"},
      {"carve.points_out", "count"},
      {"carve.rasterize_points_per_s", "1/s"},
      {"array.kdf_read_s", "s"},
      {"array.package_s", "s"},
      {"pack.write_s", "s"},
      {"pack.write_mb_per_s", "MB/s"},
      {"pack.chunks_hole", "count"},
      {"pack.chunks_coded", "count"},
      {"pack.chunks_raw", "count"},
      {"pack.kdp_bytes_ratio", "ratio"},
      {"pack.open_us", "us"},
      {"pack.read_range_us_p50", "us"},
      {"serve.fetch_p50_us", "us"},
      {"serve.fetch_p99_us", "us"},
      {"serve.query_p50_us", "us"},
      {"serve.rps", "1/s"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.fetch_server_us_mean", "us"},
      {"serve.query_server_us_mean", "us"},
      {"serve.transport_us", "us"},
      {"fleet.dispatches", "count"},
      {"fleet.shards_per_worker_max", "count"},
      {"fleet.worker_test_busy_s", "s"},
      {"fleet.overhead_s", "s"},
      {"shard.artifact_bytes", "B"},
      {"shard.merged_lineage_bytes", "B"},
      {"trace.overhead_ratio", "ratio"},
      {"process.peak_rss_mb", "MB"},
  };
  return metrics;
}

void Results::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

void Results::Count(bool ok, const std::string& what, bool is_check) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (is_check) {
      correct_ = false;
    }
    std::fprintf(stderr, "kondo_bench: %s: %s\n",
                 is_check ? "CHECK FAILED" : "operation failed", what.c_str());
  }
}

void Results::CountOk(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

bool Results::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_ && failed_ == 0;
}

bool Results::PrintJson(bool per_layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<MetricSpec>& specs =
      per_layer ? PerLayerMetrics() : EndToEndMetrics();
  bool complete = true;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    if (auto it = values_.find(spec.name); it != values_.end()) {
      value = it->second;
    } else if (!per_layer) {
      std::fprintf(stderr, "kondo_bench: metric %s was not measured\n",
                   spec.name);
      complete = false;
    }
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += entry;
  }
  const bool correct = correct_ && failed_ == 0 && complete;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted_, 1)),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return complete;
}

void AccuracyTally::Add(const kondo::IndexSet& truth,
                        const kondo::IndexSet& approx) {
  const kondo::AccuracyMetrics accuracy = kondo::ComputeAccuracy(truth, approx);
  min_recall_ = std::min(min_recall_, accuracy.recall);
  min_precision_ = std::min(min_precision_, accuracy.precision);
  retained_ += static_cast<double>(approx.size());
  elements_ += static_cast<double>(approx.shape().NumElements());
}

void AccuracyTally::EndPass() {
  recall_.push_back(min_recall_);
  precision_.push_back(min_precision_);
  retained_ratio_.push_back(elements_ > 0 ? retained_ / elements_ : 0.0);
  min_recall_ = 1.0;
  min_precision_ = 1.0;
  retained_ = 0.0;
  elements_ = 0.0;
}

void AccuracyTally::Publish(Results& results) const {
  results.Set("recall", Median(recall_));
  results.Set("precision", Median(precision_));
  results.Set("retained_ratio", Median(retained_ratio_));
}

uint64_t SplitMix::Next() {
  state_ += 0x9E3779B97F4A7C15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t SplitMix::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t DeriveSeed(uint64_t seed, const std::string& tag) {
  SplitMix mix(seed ^ Fnv1a(tag.data(), tag.size()));
  // Campaign seeds stay positive int64 so they survive every wire format.
  return mix.Next() >> 1;
}

uint64_t HashFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return 0;
  }
  uint64_t hash = 1469598103934665603ull;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    hash = Fnv1a(buffer, got, hash);
  }
  std::fclose(in);
  return hash;
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return -1;
  }
  return static_cast<int64_t>(st.st_size);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool CheckModelOff(const kondo::ServeOptions* serve,
                   const kondo::PackReadOptions* pack,
                   const kondo::FleetWorkerOptions* fleet) {
  bool ok = true;
  auto knob = [&ok](const char* name, int64_t value) {
    std::printf("model-off: %s = %lld\n", name,
                static_cast<long long>(value));
    if (value != 0) {
      std::fprintf(stderr, "kondo_bench: model knob %s is %lld, want 0\n",
                   name, static_cast<long long>(value));
      ok = false;
    }
  };
  if (serve != nullptr) {
    knob("ServeOptions::fetch_sleep_micros", serve->fetch_sleep_micros);
    knob("ServeOptions::job_spin_micros", serve->job_spin_micros);
  }
  if (pack != nullptr) {
    knob("PackReadOptions::chunk_fetch_sleep_micros",
         pack->chunk_fetch_sleep_micros);
  }
  if (fleet != nullptr) {
    knob("FleetWorkerOptions::result_stall_micros",
         fleet->result_stall_micros);
  }
  // The costed debloat test (MakeCostedDebloatTest) lives in the old bench
  // helpers, which this benchmark neither includes nor links; its busy-wait
  // knob must not be set either, so no reader mistakes a run for modelled.
  const char* exec_micros = std::getenv("KONDO_BENCH_EXEC_MICROS");
  const bool exec_off = exec_micros == nullptr || std::atoll(exec_micros) == 0;
  std::printf("model-off: KONDO_BENCH_EXEC_MICROS = %s; "
              "MakeCostedDebloatTest unused\n",
              exec_micros == nullptr ? "unset" : exec_micros);
  if (!exec_off) {
    std::fprintf(stderr, "kondo_bench: KONDO_BENCH_EXEC_MICROS must be "
                         "unset or 0\n");
    ok = false;
  }
  return ok;
}

void PrintTraceTables(const std::string& workload,
                      const std::vector<SpanRecord>& spans,
                      const char* root_span) {
  const std::map<std::string, SpanTotals> by_name = TotalsByName(spans);
  double self_total = 0.0;
  for (const auto& [name, totals] : by_name) {
    self_total += totals.self_s;
  }
  std::printf("\n[%s] self time per span (traced pass)\n", workload.c_str());
  std::printf("  %-28s %8s %12s %12s %8s\n", "span", "count", "total_s",
              "self_s", "self%");
  for (const auto& [name, totals] : by_name) {
    std::printf("  %-28s %8lld %12.6f %12.6f %7.1f%%\n", name.c_str(),
                static_cast<long long>(totals.count), totals.total_s,
                totals.self_s,
                self_total > 0 ? 100.0 * totals.self_s / self_total : 0.0);
  }
  std::printf("\n[%s] self time per layer\n", workload.c_str());
  for (const auto& [layer, self_s] : SelfSecondsByLayer(spans)) {
    std::printf("  %-12s %12.6f s %7.1f%%\n", layer.c_str(), self_s,
                self_total > 0 ? 100.0 * self_s / self_total : 0.0);
  }

  // Direct children of the root spans partition the campaign wall (they
  // run one after another on the driving thread).
  double root_total = 0.0;
  std::map<uint64_t, bool> roots;
  for (const SpanRecord& span : spans) {
    if (span.name == root_span) {
      roots[span.id] = true;
      root_total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> stage_seconds;
  for (const SpanRecord& span : spans) {
    if (roots.count(span.parent) > 0) {
      stage_seconds[span.name] +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  // Concurrent children (serve clients) overlap: their shares are of the
  // children's summed time instead of the wall.
  double stage_total = 0.0;
  for (const auto& [name, seconds] : stage_seconds) {
    stage_total += seconds;
  }
  const bool concurrent = stage_total > root_total * 1.01;
  const double base = concurrent ? stage_total : root_total;
  std::printf("\n[%s] share of %s %s (%.6f s) by stage span\n",
              workload.c_str(), root_span,
              concurrent ? "summed client time" : "wall", base);
  for (const auto& [name, seconds] : stage_seconds) {
    std::printf("  %-28s %12.6f s %7.1f%%\n", name.c_str(), seconds,
                base > 0 ? 100.0 * seconds / base : 0.0);
  }
  std::printf("\n");
}

}  // namespace kondo_bench
