// campaign_3d: the offset-mode evaluate path (fuzz -> carve -> rasterise,
// no files) on MSI (50x65x1024) and PRL3D (64^3), jobs 2, one campaign per
// program per pass. Carve and rasterise dominate; debloat tests are cheap.
// MSI is rasterise-heavy (one 130k-point hull), PRL3D merge-heavy (63 cell
// hulls merged into 8). ARD is not used: its carve and rasterise cost moves
// by +-25% with the campaign seed (2 to 5 final hulls), too wide for a gate.

#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "campaign_common.h"
#include "core/debloat_test.h"
#include "core/metrics.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace kondo_bench {
namespace {

constexpr int kJobs = 2;
constexpr int kPasses = 3;  // Minimum passes, one seed set each.

struct Input {
  std::string name;
  int64_t n = 0;
  int64_t max_evals = 0;  // 0 = the schedule's own stopping rules.
  std::unique_ptr<kondo::Program> program;
  kondo::KondoConfig config;
};

// MSI always runs its full 2000-iteration schedule. PRL3D would stop by
// stagnation after 600 to 900 tests depending on the seed; a fixed budget
// below that keeps the work of a pass the same for every seed (and carves
// the same 247431 points).
constexpr int64_t kPrl3dMaxEvals = 400;

std::vector<Input> MakeInputs(const Args& args) {
  std::vector<Input> inputs;
  if (args.tiny) {
    inputs.push_back({"LDC3D", 16, 0, nullptr, {}});
    inputs.push_back({"PRL3D", 16, 0, nullptr, {}});
  } else {
    inputs.push_back({"MSI", 0, 0, nullptr, {}});
    inputs.push_back({"PRL3D", 0, kPrl3dMaxEvals, nullptr, {}});
  }
  for (Input& input : inputs) {
    input.program = kondo::CreateProgram(input.name, input.n);
    input.config = kondo::ScaledKondoConfig(input.program->data_shape());
    input.config.jobs = kJobs;
    input.config.fuzz.max_evals = input.max_evals;
  }
  return inputs;
}

}  // namespace

int RunCampaign3d(const Args& args, Tracer& tracer, Results& results) {
  std::vector<Input> inputs;
  TimeSetup(
      results, 3, [&](int) { inputs = MakeInputs(args); },
      [&] {
        for (const Input& input : inputs) {
          (void)input.program->GroundTruth();  // Cached for the checks.
        }
      });
  if (args.inputs_only) {
    uint64_t hash = Fnv1a("campaign_3d", 11);
    for (const Input& input : inputs) {
      for (int pass = 0; pass < kPasses; ++pass) {
        const uint64_t seed = SetSeed(args, "campaign_3d/" + input.name, pass);
        hash = Fnv1a(&seed, sizeof(seed), hash);
      }
    }
    PrintInputsHash(args, hash);
    return 0;
  }
  if (!CheckModelOff(nullptr, nullptr, nullptr)) {
    return 1;
  }

  std::vector<double> pass_seconds;
  std::map<std::pair<size_t, int>, uint64_t> approx_hash;  // (input, seeds)
  AccuracyTally accuracy;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const int64_t start = NowNanos();
  for (int pass = 0; MorePasses(args, pass, start, kPasses); ++pass) {
    const bool traced = args.trace && pass == 1;
    tracer.set_enabled(traced);
    TestProbe probe(tracer, results);
    LayerTotals totals;
    double seconds = 0.0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Input& input = inputs[i];
      kondo::KondoConfig config = input.config;
      config.rng_seed = SetSeed(args, "campaign_3d/" + input.name,
                                SeedPass(args, pass, kPasses));
      CampaignRun run;
      {
        Span root(tracer, "bench.campaign");
        run = RunFuzzCarve(config, input.program->param_space(),
                           input.program->data_shape(),
                           kondo::MakeCandidateTest(*input.program), nullptr,
                           tracer, probe);
        seconds += root.ElapsedSeconds();
      }
      totals.Add(run);
      std::fprintf(stderr,
                   "%s: fuzz %.3f s (%d tests), carve %.3f s (%d -> %d "
                   "hulls), rasterize %.3f s (%zu points)\n",
                   input.name.c_str(), run.fuzz_s, run.fuzz.stats.evaluations,
                   run.carve_s, run.carve_stats.initial_hulls,
                   run.carve_stats.final_hulls, run.rasterize_s,
                   run.approx.size());
      // Gates: the carved subset covers every discovered point, and a
      // pass that repeats another's seeds carves the same subset.
      results.Count(run.fuzz.discovered.IsSubsetOf(run.approx),
                    input.name + ": approx misses a discovered point", true);
      const uint64_t hash = HashIndexSet(run.approx);
      const auto key = std::make_pair(i, SeedPass(args, pass, kPasses));
      if (auto seen = approx_hash.find(key); seen != approx_hash.end()) {
        results.Count(hash == seen->second,
                      input.name + ": approx differs between repeats", true);
      }
      approx_hash[key] = hash;
      results.Count(run.fuzz.status.ok(),
                    input.name + ": campaign " + run.fuzz.status.ToString());
      accuracy.Add(input.program->GroundTruth(), run.approx);
    }
    accuracy.EndPass();
    if (traced) {
      traced_s = seconds;
      SetCampaignLayerMetrics(results, totals, probe, tracer.Spans(), kJobs,
                              /*audited=*/false);
    } else {
      untraced_s = seconds;
      pass_seconds.push_back(seconds);
    }
  }
  tracer.set_enabled(false);

  results.Set("campaign_s", Median(pass_seconds));
  accuracy.Publish(results);
  if (args.trace) {
    results.Set("trace.overhead_ratio", traced_s / untraced_s);
    PrintTraceTables("campaign_3d", tracer.Spans(), "bench.campaign");
  }
  return 0;
}

}  // namespace kondo_bench
