// Sharded campaign scheduler speedup: wall-clock of identical multi-file
// campaigns at (shards, jobs) = (1,1) / (2,4) / (4,4) / (4,8) on the STORM
// and CLIMATE workloads. Emits BENCH_shard.json in the working directory.
//
// Latency model. A real sharded deployment pays two per-test costs:
//
//  * application execution — the audited process run. Replicated per shard
//    (every shard replays the full schedule), modelled as a fixed sleep
//    inside the program's Execute.
//  * lineage persistence — writing the audit trace. In the shard subsystem
//    this cost is *partitioned*, not replicated: each shard persists only
//    the canonical event log of its own slices (see RunShardCampaign), so a
//    1/K shard pays ~1/K of the trace latency. Modelled as a sleep inside
//    the per-shard AuditPersistFn, proportional to the bytes the log
//    covers. Persistence is serial within a shard (the single-writer
//    consumption thread) but overlaps across shards — which is exactly the
//    scaling the scheduler is designed to buy.
//
// Sleeps, not busy-waits: blocking waits overlap across pool workers even
// on one hardware thread (like real process waits and disk writes), so the
// benchmark measures scheduling efficiency rather than core count.
//
// Every configuration is fingerprinted (merged per-file index sets, seed
// sequence, counters); the gates fail if any (shards, jobs) setting
// diverges from (1,1) or if shards=4/jobs=8 is not at least 2x faster than
// the serial unsharded run.
//
// Knobs: KONDO_BENCH_SHARD_EVALS       eval budget per campaign (default 320)
//        KONDO_BENCH_SHARD_EXEC_MICROS per-test exec latency (default 200)
//        KONDO_BENCH_SHARD_NS_PER_BYTE persist latency per byte (default 500)
//        KONDO_BENCH_SHARD_REPS        timing reps, best-of (default 2)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "audit/event_log.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "exec/thread_pool.h"
#include "shard/merge_stage.h"
#include "shard/shard_campaign.h"
#include "shard/shard_plan.h"
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

struct BenchConfig {
  int shards = 1;
  int jobs = 1;
};

/// The (1,1) serial run is the baseline every other config must reproduce
/// bit-identically. The (8,8) leg exists for the skew story: CLIMATE's
/// wind file absorbs most of the accessed bytes, so the per-file partition
/// at shards=4 leaves one shard holding ~70% of the persistence work —
/// at shards=8 the chunk-range splitter breaks that file up and restores
/// near-balanced scaling.
constexpr BenchConfig kConfigs[] = {{1, 1}, {2, 4}, {4, 4}, {4, 8}, {8, 8}};

/// Wraps a multi-file program with the modelled application-execution
/// latency. Depends only on the parameter value, as Execute requires.
class LatencyModelledProgram final : public MultiFileProgram {
 public:
  LatencyModelledProgram(std::unique_ptr<MultiFileProgram> inner,
                         int64_t exec_micros)
      : inner_(std::move(inner)), exec_micros_(exec_micros) {}

  std::string_view name() const override { return inner_->name(); }
  const ParamSpace& param_space() const override {
    return inner_->param_space();
  }
  int num_files() const override { return inner_->num_files(); }
  std::string_view file_name(int file) const override {
    return inner_->file_name(file);
  }
  const Shape& file_shape(int file) const override {
    return inner_->file_shape(file);
  }
  void Execute(const ParamValue& v, const MultiReadFn& read) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(exec_micros_));
    inner_->Execute(v, read);
  }

 private:
  std::unique_ptr<MultiFileProgram> inner_;
  int64_t exec_micros_;
};

/// FNV-1a over the merged campaign: per-file discovered + approx ids in
/// sorted order, the seed sequence, and the deterministic counters. Equal
/// fingerprints <=> bit-identical merged outcome.
uint64_t Fingerprint(const MergedCampaign& merged) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  auto mix_set = [&mix](const IndexSet& set) {
    for (int64_t id : set.ToSortedLinearIds()) {
      mix(static_cast<uint64_t>(id));
    }
    mix(0xfeedfacefeedfaceull);
  };
  for (const IndexSet& set : merged.per_file_discovered) {
    mix_set(set);
  }
  for (const IndexSet& set : merged.per_file_approx) {
    mix_set(set);
  }
  for (const Seed& seed : merged.seeds) {
    for (double v : seed.value) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
    mix(seed.useful ? 1 : 0);
  }
  mix(static_cast<uint64_t>(merged.fuzz_stats.iterations));
  mix(static_cast<uint64_t>(merged.fuzz_stats.evaluations));
  mix(static_cast<uint64_t>(merged.fuzz_stats.useful_evaluations));
  mix(static_cast<uint64_t>(merged.fuzz_stats.restarts));
  return hash;
}

/// The modelled persistence hook: sleep proportionally to the bytes the
/// shard's canonical log covers, i.e. to the shard's share of the trace.
AuditPersistFn ModelledPersist(int64_t ns_per_byte) {
  return [ns_per_byte](const EventLog& log) {
    int64_t bytes = 0;
    for (const Event& event : log.events()) {
      bytes += event.size;
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(bytes * ns_per_byte));
    return OkStatus();
  };
}

struct ConfigRun {
  BenchConfig config;
  double seconds = 0.0;
  double speedup = 1.0;
  int evaluations = 0;
  uint64_t fingerprint = 0;
};

struct WorkloadResult {
  std::string workload;
  std::vector<ConfigRun> runs;
};

/// One sharded campaign over the library's planner / per-shard campaign /
/// merge stages, scheduled by RunShardedCampaign's RunOnSharedPool. (The
/// bench drives these pieces directly rather than RunShardedCampaign so
/// the modelled persistence hook can stand in for the KEL2 sinks.)
MergedCampaign RunSharded(const MultiFileProgram& program,
                          const KondoConfig& config, const BenchConfig& bench,
                          int64_t ns_per_byte) {
  StatusOr<ShardPlan> plan = PlanShards(program.FileShapes(), bench.shards);
  KONDO_CHECK(plan.ok()) << plan.status();

  const AuditPersistFn persist = ModelledPersist(ns_per_byte);
  std::vector<ShardCampaignResult> results(
      static_cast<size_t>(plan->num_shards()));
  RunOnSharedPool(bench.jobs, results.size(),
                  [&](size_t s, CampaignExecutor& executor) {
                    StatusOr<ShardCampaignResult> run = RunShardCampaign(
                        program, *plan, plan->shards[s], config, executor,
                        persist);
                    KONDO_CHECK(run.ok()) << run.status();
                    results[s] = *std::move(run);
                  });

  CampaignExecutor merge_executor(bench.jobs);
  StatusOr<MergedCampaign> merged =
      MergeShardCampaigns(*plan, results, config, merge_executor);
  KONDO_CHECK(merged.ok()) << merged.status();
  return *std::move(merged);
}

WorkloadResult RunWorkload(const std::string& name, int64_t max_evals,
                           int64_t exec_micros, int64_t ns_per_byte,
                           int reps) {
  const LatencyModelledProgram program(CreateMultiFileProgram(name, 48),
                                       exec_micros);
  KondoConfig config;
  config.rng_seed = 29;
  config.fuzz.max_evals = max_evals;

  WorkloadResult out;
  out.workload = name;
  for (const BenchConfig& bench : kConfigs) {
    config.jobs = bench.jobs;
    double best_seconds = 0.0;
    MergedCampaign merged;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch stopwatch;
      merged = RunSharded(program, config, bench, ns_per_byte);
      const double seconds = stopwatch.ElapsedSeconds();
      if (rep == 0 || seconds < best_seconds) {
        best_seconds = seconds;
      }
    }

    ConfigRun run;
    run.config = bench;
    run.seconds = best_seconds;
    run.evaluations = merged.fuzz_stats.evaluations;
    run.fingerprint = Fingerprint(merged);
    run.speedup = out.runs.empty() ? 1.0
                                   : out.runs.front().seconds /
                                         std::max(best_seconds, 1e-9);
    out.runs.push_back(run);

    std::printf("%-8s shards=%d jobs=%d  %7.3f s  speedup %5.2fx  "
                "evals %4d  fp %016llx\n",
                name.c_str(), bench.shards, bench.jobs, run.seconds,
                run.speedup, run.evaluations,
                static_cast<unsigned long long>(run.fingerprint));
  }
  return out;
}

void WriteJson(const std::vector<WorkloadResult>& results, int64_t max_evals,
               int64_t exec_micros, int64_t ns_per_byte,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"shard_scheduler\",\n"
               "  \"max_evals\": %lld,\n  \"exec_sleep_micros\": %lld,\n"
               "  \"persist_ns_per_byte\": %lld,\n"
               "  \"hardware_threads\": %d,\n  \"workloads\": [\n",
               static_cast<long long>(max_evals),
               static_cast<long long>(exec_micros),
               static_cast<long long>(ns_per_byte), HardwareThreads());
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& result = results[w];
    std::fprintf(f, "    {\"workload\": \"%s\", \"runs\": [\n",
                 result.workload.c_str());
    for (size_t i = 0; i < result.runs.size(); ++i) {
      const ConfigRun& run = result.runs[i];
      std::fprintf(f,
                   "      {\"shards\": %d, \"jobs\": %d, "
                   "\"seconds\": %.6f, \"speedup_vs_serial\": %.4f,\n"
                   "       \"evaluations\": %d, "
                   "\"fingerprint\": \"%016llx\", "
                   "\"bit_identical_to_serial\": %s}%s\n",
                   run.config.shards, run.config.jobs, run.seconds,
                   run.speedup, run.evaluations,
                   static_cast<unsigned long long>(run.fingerprint),
                   run.fingerprint == result.runs.front().fingerprint
                       ? "true"
                       : "false",
                   i + 1 < result.runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", w + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  const int64_t max_evals = bench::EnvInt("KONDO_BENCH_SHARD_EVALS", 320);
  const int64_t exec_micros =
      bench::EnvInt("KONDO_BENCH_SHARD_EXEC_MICROS", 200);
  const int64_t ns_per_byte =
      bench::EnvInt("KONDO_BENCH_SHARD_NS_PER_BYTE", 500);
  const int reps = bench::EnvInt("KONDO_BENCH_SHARD_REPS", 2);

  std::vector<WorkloadResult> results;
  results.push_back(
      RunWorkload("STORM", max_evals, exec_micros, ns_per_byte, reps));
  results.push_back(
      RunWorkload("CLIMATE", max_evals, exec_micros, ns_per_byte, reps));
  WriteJson(results, max_evals, exec_micros, ns_per_byte,
            "BENCH_shard.json");

  // Acceptance gates: every (shards, jobs) bit-identical to the serial
  // unsharded run; STORM at least 2x faster at shards=4/jobs=8; and every
  // workload at least 2x faster at its best config (CLIMATE only gets
  // there at shards=8, where the chunk-range splitter rebalances its
  // skewed wind file — the per-file partition tops out lower).
  bool ok = true;
  for (const WorkloadResult& result : results) {
    double best_speedup = 1.0;
    for (const ConfigRun& run : result.runs) {
      if (run.fingerprint != result.runs.front().fingerprint) {
        std::fprintf(stderr,
                     "FAIL: %s shards=%d jobs=%d diverged from serial\n",
                     result.workload.c_str(), run.config.shards,
                     run.config.jobs);
        ok = false;
      }
      best_speedup = std::max(best_speedup, run.speedup);
      if (&result == &results.front() && run.config.shards == 4 &&
          run.config.jobs == 8 && run.speedup < 2.0) {
        std::fprintf(stderr,
                     "FAIL: %s shards=4 jobs=8 speedup %.2fx < 2.0x\n",
                     result.workload.c_str(), run.speedup);
        ok = false;
      }
    }
    if (best_speedup < 2.0) {
      std::fprintf(stderr, "FAIL: %s best speedup %.2fx < 2.0x\n",
                   result.workload.c_str(), best_speedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kondo

int main() { return kondo::Run(); }
