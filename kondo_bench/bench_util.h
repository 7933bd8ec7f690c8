// Shared plumbing of the kondo benchmark: command-line arguments, the
// result sink that prints the final JSON line, seed derivation, summary
// statistics, and the model-off guard.

#ifndef KONDO_BENCH_BENCH_UTIL_H_
#define KONDO_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace.h"

namespace kondo {
class IndexSet;
struct ServeOptions;
struct PackReadOptions;
struct FleetWorkerOptions;
}  // namespace kondo

namespace kondo_bench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the smoke test; never used for measurements.
  bool tiny = false;
  /// Generate inputs, print their hashes, and exit without measuring.
  bool inputs_only = false;
  /// Scratch directory for this run (created and removed by main).
  std::string work_dir;
};

/// Everything one run reports. Thread-safe: client and pool threads count
/// their own operations.
class Results {
 public:
  void Set(const std::string& name, double value);

  /// Counts one operation; a failed one also marks the run incorrect when
  /// `is_check` (a correctness gate rather than a refused request).
  void Count(bool ok, const std::string& what, bool is_check = false);
  /// Counts `n` operations that all succeeded.
  void CountOk(int64_t n);

  bool correct() const;

  /// The final JSON line: the end-to-end metrics (untraced run) or the
  /// per-layer metrics (traced run). Per-layer metrics a workload does not
  /// exercise read 0. Returns false if an end-to-end metric is missing.
  bool PrintJson(bool per_layer) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Seed for one named input of the workload, a pure function of the
/// workload seed and the input's tag (SplitMix64 over FNV-1a of the tag).
uint64_t DeriveSeed(uint64_t seed, const std::string& tag);

/// SplitMix64 stream: the benchmark's own generator, so that its inputs do
/// not change when the library's RNG does.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Unit();  // [0, 1)
  int64_t Below(int64_t n);

 private:
  uint64_t state_;
};

/// FNV-1a 64 over bytes, chainable through `hash`.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 1469598103934665603ull);
uint64_t HashFile(const std::string& path);
int64_t FileBytes(const std::string& path);

double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double PeakRssMb();

/// recall and precision (per pass, the minimum over the workload's
/// programs or files against their ground truths) and retained_ratio (per
/// pass, elements kept over elements in all the workload's arrays), each
/// published as the median over passes.
class AccuracyTally {
 public:
  void Add(const kondo::IndexSet& truth, const kondo::IndexSet& approx);
  void EndPass();
  void Publish(Results& results) const;

 private:
  double min_recall_ = 1.0;
  double min_precision_ = 1.0;
  double retained_ = 0.0;
  double elements_ = 0.0;
  std::vector<double> recall_, precision_, retained_ratio_;
};

/// Records setup_s: the median wall time of `reps` repetitions of
/// `setup(rep)` (which must leave its last repetition's state in place)
/// plus the time of one call of `ground_truth()`. Ground truths do not
/// depend on the seed, so they are computed once rather than per
/// repetition, but their cost is part of set-up.
template <typename Setup, typename GroundTruth>
void TimeSetup(Results& results, int reps, Setup&& setup,
               GroundTruth&& ground_truth) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t start = NowNanos();
    setup(rep);
    seconds.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
  }
  const int64_t start = NowNanos();
  ground_truth();
  results.Set("setup_s", Median(seconds) +
                             static_cast<double>(NowNanos() - start) * 1e-9);
}

/// Asserts and prints that every latency/stall model knob the benchmark
/// hands to the library is 0 and that no modelled execution cost is in
/// use. Null options are skipped. Returns false (and says why) otherwise.
bool CheckModelOff(const kondo::ServeOptions* serve,
                   const kondo::PackReadOptions* pack,
                   const kondo::FleetWorkerOptions* fleet);

/// Prints the traced run's tables: self time per layer and the share of
/// the campaign wall attributed to each direct child of the campaign span.
void PrintTraceTables(const std::string& workload,
                      const std::vector<SpanRecord>& spans,
                      const char* root_span);

}  // namespace kondo_bench

#endif  // KONDO_BENCH_BENCH_UTIL_H_
