// The fuzz -> carve -> rasterise path shared by the campaign workloads,
// driven from outside the library so each layer call gets its own span:
// the same sequence of calls KondoPipeline::RunWithCandidateTest makes.

#ifndef KONDO_BENCH_CAMPAIGN_COMMON_H_
#define KONDO_BENCH_CAMPAIGN_COMMON_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "bench_util.h"
#include "carve/carver.h"
#include "core/kondo.h"
#include "exec/result_collector.h"
#include "exec/test_candidate.h"
#include "trace.h"

namespace kondo_bench {

/// Wraps the candidate test the benchmark hands to the fuzz schedule and
/// records every call: latency, busy time and audited event counts.
class TestProbe {
 public:
  TestProbe(Tracer& tracer, Results& results)
      : tracer_(tracer), results_(results) {}

  /// `parent` is the fuzz-schedule span; tests run on pool threads.
  kondo::CandidateTestFn Wrap(kondo::CandidateTestFn inner, uint64_t parent);

  std::vector<double> latencies_us() const;
  int64_t calls() const;
  double busy_s() const;
  int64_t events() const;

 private:
  Tracer& tracer_;
  Results& results_;
  mutable std::mutex mu_;
  std::vector<double> latencies_us_;
  double busy_s_ = 0.0;
  int64_t events_ = 0;
};

struct CampaignRun {
  kondo::FuzzResult fuzz;
  kondo::CarveStats carve_stats;
  kondo::IndexSet approx;
  double fuzz_s = 0.0;
  double carve_s = 0.0;
  double rasterize_s = 0.0;
};

/// FuzzSchedule::Run, Carver::Carve and Carver::Rasterize, each under its
/// own span ("fuzz.schedule", "carve.carve", "carve.rasterize").
CampaignRun RunFuzzCarve(const kondo::KondoConfig& config,
                         const kondo::ParamSpace& space,
                         const kondo::Shape& shape,
                         const kondo::CandidateTestFn& test,
                         kondo::ResultCollector* collector, Tracer& tracer,
                         TestProbe& probe);

/// Hash of an index set's sorted linear ids.
uint64_t HashIndexSet(const kondo::IndexSet& set);

/// Per-layer totals over the campaigns of one traced pass.
struct LayerTotals {
  int64_t evaluations = 0;
  int64_t useful = 0;
  int64_t restarts = 0;
  int64_t consumed = 0;  // Evaluations plus retries.
  double fuzz_wall_s = 0.0;
  int64_t input_points = 0;
  int64_t cell_hulls = 0;
  int64_t merges = 0;
  int64_t final_hulls = 0;
  int64_t points_out = 0;
  double carve_s = 0.0;
  double rasterize_s = 0.0;

  void Add(const CampaignRun& run);
};

/// Sets the fuzz.*, exec.*, carve.* (and, when `audited`, audit.*) metrics
/// from one traced pass.
void SetCampaignLayerMetrics(Results& results, const LayerTotals& totals,
                             const TestProbe& probe,
                             const std::vector<SpanRecord>& spans, int jobs,
                             bool audited);

}  // namespace kondo_bench

#endif  // KONDO_BENCH_CAMPAIGN_COMMON_H_
