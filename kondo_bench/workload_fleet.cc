// sharded_fleet: STORM and CLIMATE at extent 256, 4 shards, dispatched by
// RunFleetCampaign to 2 in-process FleetWorkers (jobs 1 each) over unix
// sockets, a fresh campaign directory per campaign. The only workload that
// runs shard planning, per-shard KSS/KEL2 commits, KPC shard-result
// shipping and MergeShardCampaigns.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/metrics.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/fleet_worker.h"
#include "shard/shard_manifest.h"
#include "shard/shard_scheduler.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace kondo_bench {
namespace {

constexpr int kWorkers = 2;
constexpr int kShards = 4;
constexpr int kCoordinatorJobs = 2;
// Schedule iterations per campaign. The default (2000) stops STORM and
// CLIMATE at extent 256 anywhere between 0.82 and 0.90 recall depending on
// the campaign seed; 4000 brings every seed tried to 0.94 to 0.97.
constexpr int kMaxIter = 4000;
// Minimum passes, one seed set each (a campaign's cost and recall follow
// its seed), each checked against its own set-up reference.
constexpr int kPasses = 3;

/// What one worker's wrapped programs measured.
struct WorkerProbe {
  std::atomic<int64_t> busy_ns{0};
  std::mutex mu;
  std::vector<double> latencies_us;
};

/// The program a fleet worker instantiates, with Execute timed: one call is
/// one debloat test on that worker.
class ProbedProgram final : public kondo::MultiFileProgram {
 public:
  ProbedProgram(std::unique_ptr<kondo::MultiFileProgram> inner,
                WorkerProbe* probe, Tracer* tracer,
                const std::atomic<uint64_t>* parent)
      : inner_(std::move(inner)), probe_(probe), tracer_(tracer),
        parent_(parent) {}

  std::string_view name() const override { return inner_->name(); }
  const kondo::ParamSpace& param_space() const override {
    return inner_->param_space();
  }
  int num_files() const override { return inner_->num_files(); }
  std::string_view file_name(int file) const override {
    return inner_->file_name(file);
  }
  const kondo::Shape& file_shape(int file) const override {
    return inner_->file_shape(file);
  }
  void Execute(const kondo::ParamValue& v,
               const kondo::MultiReadFn& read) const override {
    const int64_t start = NowNanos();
    {
      Span span(*tracer_, "fleet.worker_test", parent_->load());
      inner_->Execute(v, read);
    }
    const int64_t elapsed = NowNanos() - start;
    probe_->busy_ns += elapsed;
    std::lock_guard<std::mutex> lock(probe_->mu);
    probe_->latencies_us.push_back(static_cast<double>(elapsed) * 1e-3);
  }

 private:
  std::unique_ptr<kondo::MultiFileProgram> inner_;
  WorkerProbe* probe_;
  Tracer* tracer_;
  const std::atomic<uint64_t>* parent_;
};

struct Input {
  std::string name;
  std::unique_ptr<kondo::MultiFileProgram> program;
  kondo::KondoConfig config;
  kondo::MultiIndexSets truths;
  std::vector<uint64_t> reference_hash;  // Per seed set.
};

int64_t ShardArtifactBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (int s = 0; s < kShards; ++s) {
    bytes += FileBytes(dir + "/" + kondo::ShardLineageFileName(s));
    bytes += FileBytes(dir + "/" + kondo::ShardStateFileName(s));
  }
  return bytes;
}

}  // namespace

int RunShardedFleet(const Args& args, Tracer& tracer, Results& results) {
  const int64_t extent = args.tiny ? 32 : 256;
  std::vector<Input> inputs;
  std::vector<std::unique_ptr<WorkerProbe>> probes;
  std::vector<std::unique_ptr<kondo::FleetWorker>> workers;
  std::vector<kondo::SocketAddress> endpoints;
  std::atomic<uint64_t> campaign_span{0};
  kondo::FleetWorkerOptions checked_options;
  bool setup_ok = true;
  TimeSetup(results, 3, [&](int) {
    workers.clear();  // Stops the previous repetition's workers.
    probes.clear();
    endpoints.clear();
    inputs.clear();
    for (const char* name : {"STORM", "CLIMATE"}) {
      Input input;
      input.name = name;
      input.program = kondo::CreateMultiFileProgram(name, extent);
      input.config.fuzz.max_iter = kMaxIter;
      input.config.jobs = kCoordinatorJobs;
      inputs.push_back(std::move(input));
    }
    for (int w = 0; w < kWorkers; ++w) {
      auto probe = std::make_unique<WorkerProbe>();
      kondo::FleetWorkerOptions options;
      options.address.unix_path =
          args.work_dir + "/w" + std::to_string(w) + ".sock";
      options.scratch_dir = args.work_dir + "/w" + std::to_string(w);
      options.jobs = 1;
      options.program_factory =
          [probe = probe.get(), &tracer, &campaign_span](
              const std::string& name, int64_t size)
          -> std::unique_ptr<kondo::MultiFileProgram> {
        std::unique_ptr<kondo::MultiFileProgram> inner =
            kondo::CreateFleetProgram(name, size);
        if (inner == nullptr) {
          return nullptr;
        }
        return std::make_unique<ProbedProgram>(std::move(inner), probe,
                                               &tracer, &campaign_span);
      };
      checked_options = options;
      std::filesystem::create_directories(options.scratch_dir);
      auto worker = std::make_unique<kondo::FleetWorker>(options);
      setup_ok = setup_ok && worker->Start().ok();
      endpoints.push_back(worker->bound_address());
      workers.push_back(std::move(worker));
      probes.push_back(std::move(probe));
    }
  }, [&] {
    for (Input& input : inputs) {
      input.truths = input.program->GroundTruths();
    }
  });
  // References, one per seed set the run uses: the local single-process
  // sharded campaign on the same plan. Every fleet campaign's merged.kel2
  // must match its seed set's reference byte for byte. Correctness
  // oracles, so they are not part of setup_s.
  const int sets = args.trace ? 1 : kPasses;
  for (Input& input : inputs) {
    for (int set = 0; set < sets && !args.inputs_only; ++set) {
      kondo::KondoConfig config = input.config;
      config.rng_seed = SetSeed(args, "sharded_fleet/" + input.name, set);
      kondo::ShardOptions local;
      local.shards = kShards;
      local.output_dir = args.work_dir + "/reference-" + input.name;
      kondo::StatusOr<kondo::ShardedRunResult> reference =
          kondo::RunShardedCampaign(*input.program, config, local);
      setup_ok = setup_ok && reference.ok() && reference->complete;
      input.reference_hash.push_back(
          reference.ok() ? HashFile(reference->merged_lineage_path) : 0);
      std::error_code ec;
      std::filesystem::remove_all(local.output_dir, ec);
    }
  }
  if (!setup_ok) {
    return 1;
  }
  if (args.inputs_only) {
    uint64_t hash = Fnv1a("sharded_fleet", 13);
    for (const Input& input : inputs) {
      for (int set = 0; set < kPasses; ++set) {
        const uint64_t seed = SetSeed(args, "sharded_fleet/" + input.name, set);
        hash = Fnv1a(&seed, sizeof(seed), hash);
      }
    }
    PrintInputsHash(args, hash);
    return 0;
  }
  if (!CheckModelOff(nullptr, nullptr, &checked_options)) {
    return 1;
  }

  std::vector<double> pass_seconds;
  AccuracyTally accuracy;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const int64_t start = NowNanos();
  for (int pass = 0; MorePasses(args, pass, start, kPasses); ++pass) {
    const bool traced = args.trace && pass == 1;
    tracer.set_enabled(traced);
    std::vector<int64_t> busy_before;
    std::vector<int64_t> served_before;
    for (int w = 0; w < kWorkers; ++w) {
      busy_before.push_back(probes[static_cast<size_t>(w)]->busy_ns.load());
      served_before.push_back(workers[static_cast<size_t>(w)]->shards_served());
      std::lock_guard<std::mutex> lock(probes[static_cast<size_t>(w)]->mu);
      probes[static_cast<size_t>(w)]->latencies_us.clear();
    }
    double seconds = 0.0;
    int64_t dispatches = 0;
    int64_t artifact_bytes = 0;
    int64_t merged_bytes = 0;
    int64_t evaluations = 0;
    int64_t useful = 0;
    int64_t restarts = 0;
    for (const Input& input : inputs) {
      const std::string dir = args.work_dir + "/pass" + std::to_string(pass) +
                              "-" + input.name;
      const int set = SeedPass(args, pass, sets);
      kondo::KondoConfig config = input.config;
      config.rng_seed = SetSeed(args, "sharded_fleet/" + input.name, set);
      kondo::FleetOptions options;
      options.shards = kShards;
      options.output_dir = dir;
      options.workers = endpoints;
      options.program_extent = extent;
      kondo::StatusOr<kondo::ShardedRunResult> run =
          kondo::InternalError("not run");
      {
        Span root(tracer, "bench.campaign");
        Span span(tracer, "fleet.campaign");
        campaign_span = span.id();
        run = kondo::RunFleetCampaign(*input.program, config, options);
        seconds += root.ElapsedSeconds();
      }
      const bool complete = run.ok() && run->complete;
      results.Count(complete, input.name + ": fleet campaign " +
                                  run.status().ToString());
      if (!complete) {
        continue;
      }
      results.Count(HashFile(run->merged_lineage_path) ==
                        input.reference_hash[static_cast<size_t>(set)],
                    input.name +
                        ": merged.kel2 differs from the local reference",
                    true);
      for (size_t f = 0; f < input.truths.size(); ++f) {
        accuracy.Add(input.truths[f], run->merged.per_file_approx[f]);
      }
      kondo::StatusOr<kondo::ShardManifest> manifest =
          kondo::LoadShardManifest(dir + "/" + kondo::kShardManifestFileName);
      if (manifest.ok()) {
        for (int count : manifest->dispatch_counts) {
          dispatches += count;
        }
      }
      artifact_bytes += ShardArtifactBytes(dir);
      merged_bytes += FileBytes(run->merged_lineage_path);
      evaluations += run->merged.fuzz_stats.evaluations;
      useful += run->merged.fuzz_stats.useful_evaluations;
      restarts += run->merged.fuzz_stats.restarts;
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    std::vector<double> latencies;
    int64_t busiest_ns = 0;
    int64_t most_shards = 0;
    for (int w = 0; w < kWorkers; ++w) {
      WorkerProbe& probe = *probes[static_cast<size_t>(w)];
      busiest_ns =
          std::max(busiest_ns, probe.busy_ns.load() -
                                   busy_before[static_cast<size_t>(w)]);
      most_shards = std::max(most_shards,
                             workers[static_cast<size_t>(w)]->shards_served() -
                                 served_before[static_cast<size_t>(w)]);
      std::lock_guard<std::mutex> lock(probe.mu);
      latencies.insert(latencies.end(), probe.latencies_us.begin(),
                       probe.latencies_us.end());
    }
    results.CountOk(static_cast<int64_t>(latencies.size()));
    accuracy.EndPass();
    if (traced) {
      traced_s = seconds;
      const double busiest_s = static_cast<double>(busiest_ns) * 1e-9;
      results.Set("fuzz.evaluations", static_cast<double>(evaluations));
      results.Set("fuzz.useful_ratio",
                  evaluations > 0 ? static_cast<double>(useful) /
                                        static_cast<double>(evaluations)
                                  : 0.0);
      results.Set("fuzz.restarts", static_cast<double>(restarts));
      results.Set("fleet.dispatches", static_cast<double>(dispatches));
      results.Set("fleet.shards_per_worker_max",
                  static_cast<double>(most_shards));
      results.Set("fleet.worker_test_busy_s", busiest_s);
      results.Set("fleet.overhead_s", seconds - busiest_s);
      results.Set("shard.artifact_bytes", static_cast<double>(artifact_bytes));
      results.Set("shard.merged_lineage_bytes",
                  static_cast<double>(merged_bytes));
      results.Set("provenance.lineage_bytes",
                  static_cast<double>(merged_bytes));
    } else {
      untraced_s = seconds;
      pass_seconds.push_back(seconds);
    }
  }
  tracer.set_enabled(false);
  for (auto& worker : workers) {
    worker->Stop();
  }

  results.Set("campaign_s", Median(pass_seconds));
  accuracy.Publish(results);
  if (args.trace) {
    results.Set("trace.overhead_ratio", traced_s / untraced_s);
    PrintTraceTables("sharded_fleet", tracer.Spans(), "bench.campaign");
  }
  return 0;
}

}  // namespace kondo_bench
