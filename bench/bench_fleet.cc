// Fleet coordinator speedup: wall-clock of identical sharded campaigns
// dispatched to 1 / 2 / 4 in-process fleet workers over unix sockets, on
// the STORM and CLIMATE workloads, plus a kill-one-worker leg where a
// coordinator-side net fault tears the first dispatch frame mid-write.
// Emits BENCH_fleet.json in the working directory.
//
// Latency model. As in bench_shard, the dominant per-test cost of a real
// deployment — the audited application execution — is modelled as a fixed
// sleep inside the program's Execute. Every shard replays the full fuzz
// schedule, so each shard campaign costs roughly max_evals * exec_micros
// of modelled execution. The fleet pays that cost *where the shard runs*:
// one worker serialises all shards on its single connection (one
// assignment in flight per link), while four workers overlap four shard
// campaigns — which is exactly the scaling the coordinator is built to
// buy. Worker-side lineage persistence and result shipping are real, not
// modelled: sealed KSS + KEL2 bytes cross the socket and are
// fingerprint-verified on receipt.
//
// Gates (exit 1 on violation):
//  * every fleet leg's merged.kel2 is byte-identical to the local
//    single-process RunShardedCampaign on the same plan;
//  * the kill-one-worker leg converges to that same fingerprint after the
//    re-dispatch, with at least one fault actually injected;
//  * at 4 workers, STORM or CLIMATE reaches >= 1.8x over the same
//    campaign on 1 worker.
//
// Knobs: KONDO_BENCH_FLEET_EVALS       eval budget per campaign (default 320)
//        KONDO_BENCH_FLEET_EXEC_MICROS per-test exec latency (default 400)
//        KONDO_BENCH_FLEET_EXTENT      program extent (default 32)
//        KONDO_BENCH_FLEET_REPS        timing reps, best-of (default 2)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/net_fault.h"
#include "common/stopwatch.h"
#include "exec/thread_pool.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/fleet_worker.h"
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

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

/// FNV-1a over the merged KEL2 store's bytes. Equal fingerprints <=>
/// byte-identical merged lineage.
uint64_t FingerprintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  KONDO_CHECK(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Starts `count` in-process fleet workers on unix sockets under `dir`,
/// each instantiating the latency-modelled program for its campaigns.
std::vector<std::unique_ptr<FleetWorker>> StartWorkers(
    const std::string& dir, int count, int64_t exec_micros) {
  std::vector<std::unique_ptr<FleetWorker>> workers;
  for (int i = 0; i < count; ++i) {
    FleetWorkerOptions options;
    options.address.unix_path = dir + "/w" + std::to_string(i) + ".sock";
    options.scratch_dir = dir + "/w" + std::to_string(i);
    options.program_factory = [exec_micros](const std::string& name,
                                            int64_t extent)
        -> std::unique_ptr<MultiFileProgram> {
      std::unique_ptr<MultiFileProgram> inner =
          CreateFleetProgram(name, extent);
      if (inner == nullptr) {
        return nullptr;
      }
      return std::make_unique<LatencyModelledProgram>(std::move(inner),
                                                      exec_micros);
    };
    auto worker = std::make_unique<FleetWorker>(options);
    const Status started = worker->Start();
    KONDO_CHECK(started.ok()) << started;
    workers.push_back(std::move(worker));
  }
  return workers;
}

struct LegRun {
  std::string leg;  // "local", "workers=N", or "kill-one".
  int workers = 0;
  double seconds = 0.0;
  double speedup_vs_one_worker = 0.0;  // 0 for the local reference leg.
  int evaluations = 0;
  uint64_t fingerprint = 0;
  int64_t faults_injected = 0;
};

struct WorkloadResult {
  std::string workload;
  std::vector<LegRun> legs;
};

constexpr int kShards = 4;

/// One fleet campaign into a fresh directory; returns (seconds, result).
double RunFleetOnce(const MultiFileProgram& program, const KondoConfig& config,
                    const std::vector<SocketAddress>& endpoints,
                    int64_t extent, const std::string& out_dir, NetEnv* net,
                    ShardedRunResult* result) {
  FleetOptions options;
  options.shards = kShards;
  options.output_dir = out_dir;
  options.workers = endpoints;
  options.program_extent = extent;
  options.net = net;
  Stopwatch stopwatch;
  StatusOr<ShardedRunResult> run = RunFleetCampaign(program, config, options);
  const double seconds = stopwatch.ElapsedSeconds();
  KONDO_CHECK(run.ok()) << run.status();
  KONDO_CHECK(run->complete);
  *result = *std::move(run);
  return seconds;
}

WorkloadResult RunWorkload(const std::string& name, const std::string& root,
                           int64_t max_evals, int64_t exec_micros,
                           int64_t extent, int reps) {
  const std::string dir = root + "/" + name;
  std::filesystem::create_directories(dir);

  const LatencyModelledProgram program(CreateMultiFileProgram(name, extent),
                                       exec_micros);
  KondoConfig config;
  config.rng_seed = 29;
  config.jobs = 4;  // Merge-tail executor width; the fuzz runs on workers.
  config.fuzz.max_evals = max_evals;

  WorkloadResult out;
  out.workload = name;

  // Local single-process reference: the byte-identity anchor every fleet
  // leg must reproduce. Timed for the record, not part of the speedup gate.
  {
    ShardOptions local;
    local.shards = kShards;
    local.output_dir = dir + "/local";
    Stopwatch stopwatch;
    StatusOr<ShardedRunResult> run =
        RunShardedCampaign(program, config, local);
    KONDO_CHECK(run.ok()) << run.status();
    LegRun leg;
    leg.leg = "local";
    leg.seconds = stopwatch.ElapsedSeconds();
    leg.evaluations = run->merged.fuzz_stats.evaluations;
    leg.fingerprint = FingerprintFile(run->merged_lineage_path);
    out.legs.push_back(leg);
  }

  std::vector<std::unique_ptr<FleetWorker>> workers =
      StartWorkers(dir, 4, exec_micros);
  std::vector<SocketAddress> endpoints;
  for (const std::unique_ptr<FleetWorker>& worker : workers) {
    endpoints.push_back(worker->bound_address());
  }

  double one_worker_seconds = 0.0;
  for (int count : {1, 2, 4}) {
    const std::vector<SocketAddress> subset(endpoints.begin(),
                                            endpoints.begin() + count);
    double best_seconds = 0.0;
    ShardedRunResult result;
    for (int rep = 0; rep < reps; ++rep) {
      const std::string out_dir = dir + "/w" + std::to_string(count) +
                                  "-rep" + std::to_string(rep);
      const double seconds = RunFleetOnce(program, config, subset, extent,
                                          out_dir, nullptr, &result);
      if (rep == 0 || seconds < best_seconds) {
        best_seconds = seconds;
      }
    }
    if (count == 1) {
      one_worker_seconds = best_seconds;
    }
    LegRun leg;
    leg.leg = "workers=" + std::to_string(count);
    leg.workers = count;
    leg.seconds = best_seconds;
    leg.speedup_vs_one_worker =
        one_worker_seconds / std::max(best_seconds, 1e-9);
    leg.evaluations = result.merged.fuzz_stats.evaluations;
    leg.fingerprint = FingerprintFile(result.merged_lineage_path);
    out.legs.push_back(leg);
    std::printf("%-8s %-10s  %7.3f s  speedup %5.2fx  evals %4d  "
                "fp %016llx\n",
                name.c_str(), leg.leg.c_str(), leg.seconds,
                leg.speedup_vs_one_worker, leg.evaluations,
                static_cast<unsigned long long>(leg.fingerprint));
  }

  // Kill-one-worker crash schedule: the first worker link to attempt its
  // second write — the campaign's first kRunShard frame, after that
  // link's kHello — tears it mid-frame. The coordinator must retire that
  // worker, re-dispatch the shard to a survivor, and still converge to
  // the identical merged bytes.
  {
    NetFaultPlan plan;
    plan.drop_after_writes = 1;
    plan.short_frame_bytes = 5;
    FaultInjectingNetEnv net(NetEnv::Default(), plan);
    const std::vector<SocketAddress> subset(endpoints.begin(),
                                            endpoints.begin() + 3);
    ShardedRunResult result;
    LegRun leg;
    leg.leg = "kill-one";
    leg.workers = 3;
    leg.seconds = RunFleetOnce(program, config, subset, extent,
                               dir + "/kill", &net, &result);
    leg.evaluations = result.merged.fuzz_stats.evaluations;
    leg.fingerprint = FingerprintFile(result.merged_lineage_path);
    leg.faults_injected = net.faults_injected();
    out.legs.push_back(leg);
    std::printf("%-8s %-10s  %7.3f s  faults %lld         evals %4d  "
                "fp %016llx\n",
                name.c_str(), leg.leg.c_str(), leg.seconds,
                static_cast<long long>(leg.faults_injected), leg.evaluations,
                static_cast<unsigned long long>(leg.fingerprint));
  }

  for (const std::unique_ptr<FleetWorker>& worker : workers) {
    worker->Stop();
  }
  return out;
}

void WriteJson(const std::vector<WorkloadResult>& results, int64_t max_evals,
               int64_t exec_micros, int64_t extent, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"fleet_scheduler\",\n"
               "  \"shards\": %d,\n  \"max_evals\": %lld,\n"
               "  \"exec_sleep_micros\": %lld,\n  \"extent\": %lld,\n"
               "  \"hardware_threads\": %d,\n  \"workloads\": [\n",
               kShards, static_cast<long long>(max_evals),
               static_cast<long long>(exec_micros),
               static_cast<long long>(extent), HardwareThreads());
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& result = results[w];
    std::fprintf(f, "    {\"workload\": \"%s\", \"legs\": [\n",
                 result.workload.c_str());
    for (size_t i = 0; i < result.legs.size(); ++i) {
      const LegRun& leg = result.legs[i];
      std::fprintf(f,
                   "      {\"leg\": \"%s\", \"workers\": %d, "
                   "\"seconds\": %.6f, \"speedup_vs_one_worker\": %.4f,\n"
                   "       \"evaluations\": %d, \"faults_injected\": %lld, "
                   "\"fingerprint\": \"%016llx\", "
                   "\"byte_identical_to_local\": %s}%s\n",
                   leg.leg.c_str(), leg.workers, leg.seconds,
                   leg.speedup_vs_one_worker, leg.evaluations,
                   static_cast<long long>(leg.faults_injected),
                   static_cast<unsigned long long>(leg.fingerprint),
                   leg.fingerprint == result.legs.front().fingerprint
                       ? "true"
                       : "false",
                   i + 1 < result.legs.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", w + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  const int64_t max_evals = bench::EnvInt("KONDO_BENCH_FLEET_EVALS", 320);
  const int64_t exec_micros =
      bench::EnvInt("KONDO_BENCH_FLEET_EXEC_MICROS", 400);
  const int64_t extent = bench::EnvInt("KONDO_BENCH_FLEET_EXTENT", 32);
  const int reps = bench::EnvInt("KONDO_BENCH_FLEET_REPS", 2);

  // Unix socket paths must stay under sockaddr_un's ~100-byte limit, so
  // everything lives under a short mkdtemp root.
  char root_template[] = "/tmp/kfleet.XXXXXX";
  const char* root = mkdtemp(root_template);
  KONDO_CHECK(root != nullptr) << "mkdtemp failed";

  std::vector<WorkloadResult> results;
  results.push_back(
      RunWorkload("STORM", root, max_evals, exec_micros, extent, reps));
  results.push_back(
      RunWorkload("CLIMATE", root, max_evals, exec_micros, extent, reps));
  WriteJson(results, max_evals, exec_micros, extent, "BENCH_fleet.json");
  std::filesystem::remove_all(root);

  // Acceptance gates: every leg byte-identical to the local single-process
  // run (the kill-one leg included, with at least one fault actually
  // delivered), and a >= 1.8x 4-worker speedup on STORM or CLIMATE.
  bool ok = true;
  double best_four_worker_speedup = 0.0;
  for (const WorkloadResult& result : results) {
    for (const LegRun& leg : result.legs) {
      if (leg.fingerprint != result.legs.front().fingerprint) {
        std::fprintf(stderr, "FAIL: %s %s diverged from the local run\n",
                     result.workload.c_str(), leg.leg.c_str());
        ok = false;
      }
      if (leg.leg == "kill-one" && leg.faults_injected < 1) {
        std::fprintf(stderr, "FAIL: %s kill-one leg injected no fault\n",
                     result.workload.c_str());
        ok = false;
      }
      if (leg.workers == 4) {
        best_four_worker_speedup =
            std::max(best_four_worker_speedup, leg.speedup_vs_one_worker);
      }
    }
  }
  if (best_four_worker_speedup < 1.8) {
    std::fprintf(stderr,
                 "FAIL: best 4-worker speedup %.2fx < 1.8x on every "
                 "workload\n",
                 best_four_worker_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kondo

int main() { return kondo::Run(); }
