#include "campaign_common.h"

#include <algorithm>
#include <utility>

#include "exec/campaign_executor.h"
#include "exec/thread_pool.h"
#include "fuzz/fuzz_schedule.h"

namespace kondo_bench {

kondo::CandidateTestFn TestProbe::Wrap(kondo::CandidateTestFn inner,
                                       uint64_t parent) {
  return [this, inner = std::move(inner),
          parent](const kondo::TestCandidate& candidate) {
    const int64_t start = NowNanos();
    kondo::CandidateResult result;
    {
      Span span(tracer_, "exec.test", parent);
      result = inner(candidate);
    }
    const double seconds = static_cast<double>(NowNanos() - start) * 1e-9;
    results_.Count(result.status.ok(), "debloat test: " +
                                           result.status.ToString());
    std::lock_guard<std::mutex> lock(mu_);
    latencies_us_.push_back(seconds * 1e6);
    busy_s_ += seconds;
    if (result.log != nullptr) {
      events_ += result.log->NumEvents();
    }
    return result;
  };
}

std::vector<double> TestProbe::latencies_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latencies_us_;
}

int64_t TestProbe::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(latencies_us_.size());
}

double TestProbe::busy_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_s_;
}

int64_t TestProbe::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

CampaignRun RunFuzzCarve(const kondo::KondoConfig& config,
                         const kondo::ParamSpace& space,
                         const kondo::Shape& shape,
                         const kondo::CandidateTestFn& test,
                         kondo::ResultCollector* collector, Tracer& tracer,
                         TestProbe& probe) {
  CampaignRun run;
  kondo::CampaignExecutor executor(kondo::ClampJobs(config.jobs));
  {
    Span span(tracer, "fuzz.schedule");
    kondo::FuzzSchedule schedule(space, shape, config.fuzz, config.rng_seed);
    run.fuzz = schedule.Run(executor, probe.Wrap(test, span.id()), collector);
    run.fuzz_s = span.ElapsedSeconds();
  }
  kondo::CarvedSubset carved;
  {
    Span span(tracer, "carve.carve");
    const kondo::Carver carver(config.carve);
    carved = carver.Carve(run.fuzz.discovered, &run.carve_stats);
    run.carve_s = span.ElapsedSeconds();
  }
  {
    Span span(tracer, "carve.rasterize");
    run.approx = kondo::Carver::Rasterize(carved, executor);
    run.rasterize_s = span.ElapsedSeconds();
  }
  return run;
}

uint64_t HashIndexSet(const kondo::IndexSet& set) {
  const std::vector<int64_t> ids = set.ToSortedLinearIds();
  return Fnv1a(ids.data(), ids.size() * sizeof(int64_t));
}

void LayerTotals::Add(const CampaignRun& run) {
  evaluations += run.fuzz.stats.evaluations;
  useful += run.fuzz.stats.useful_evaluations;
  restarts += run.fuzz.stats.restarts;
  consumed += run.fuzz.stats.evaluations + run.fuzz.stats.retries;
  fuzz_wall_s += run.fuzz_s;
  input_points += static_cast<int64_t>(run.fuzz.discovered.size());
  cell_hulls += run.carve_stats.initial_hulls;
  merges += run.carve_stats.merge_operations;
  final_hulls += run.carve_stats.final_hulls;
  points_out += static_cast<int64_t>(run.approx.size());
  carve_s += run.carve_s;
  rasterize_s += run.rasterize_s;
}

void SetCampaignLayerMetrics(Results& results, const LayerTotals& totals,
                             const TestProbe& probe,
                             const std::vector<SpanRecord>& spans, int jobs,
                             bool audited) {
  const std::map<std::string, SpanTotals> by_name = TotalsByName(spans);
  auto self_of = [&by_name](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.self_s;
  };
  const auto evals = static_cast<double>(totals.evaluations);
  results.Set("fuzz.evaluations", evals);
  results.Set("fuzz.useful_ratio",
              evals > 0 ? static_cast<double>(totals.useful) / evals : 0.0);
  results.Set("fuzz.restarts", static_cast<double>(totals.restarts));
  results.Set("fuzz.self_s", self_of("fuzz.schedule"));

  const auto calls = static_cast<double>(probe.calls());
  results.Set("exec.tests_run", calls);
  results.Set("exec.speculative_waste_ratio",
              calls > 0 ? std::max(0.0, calls - static_cast<double>(
                                                    totals.consumed)) /
                              calls
                        : 0.0);
  results.Set("exec.test_busy_s", probe.busy_s());
  results.Set("exec.utilization",
              totals.fuzz_wall_s > 0
                  ? probe.busy_s() / (totals.fuzz_wall_s * jobs)
                  : 0.0);

  if (audited) {
    const std::vector<double> latencies = probe.latencies_us();
    results.Set("audit.test_us_p50", Quantile(latencies, 0.50));
    results.Set("audit.test_us_p99", Quantile(latencies, 0.99));
    results.Set("audit.events_per_test",
                calls > 0 ? static_cast<double>(probe.events()) / calls : 0.0);
  }

  results.Set("carve.carve_s", totals.carve_s);
  results.Set("carve.input_points", static_cast<double>(totals.input_points));
  results.Set("carve.cell_hulls", static_cast<double>(totals.cell_hulls));
  results.Set("carve.merges", static_cast<double>(totals.merges));
  results.Set("carve.final_hulls", static_cast<double>(totals.final_hulls));
  results.Set("carve.rasterize_s", totals.rasterize_s);
  results.Set("carve.points_out", static_cast<double>(totals.points_out));
  results.Set("carve.rasterize_points_per_s",
              totals.rasterize_s > 0
                  ? static_cast<double>(totals.points_out) / totals.rasterize_s
                  : 0.0);
}

}  // namespace kondo_bench
