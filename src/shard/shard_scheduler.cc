#include "shard/shard_scheduler.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "shard/shard_campaign.h"

namespace kondo {
namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

/// Loads shard `s`'s sealed artefacts from `dir` and re-verifies them: the
/// KSS checksum trailer plus the KEL2 store's whole-file fingerprint
/// against the KSS `A` line.
StatusOr<ShardCampaignResult> LoadVerifiedShard(const std::string& dir, int s,
                                                const ShardPlan& plan) {
  ShardArtifactInfo expected;
  KONDO_ASSIGN_OR_RETURN(
      ShardCampaignResult loaded,
      LoadShardState(dir + "/" + ShardStateFileName(s), s, plan.file_shapes,
                     &expected));
  if (expected.lineage_bytes >= 0) {
    KONDO_ASSIGN_OR_RETURN(
        ShardArtifactInfo actual,
        HashFileArtifact(dir + "/" + ShardLineageFileName(s)));
    if (actual != expected) {
      return DataLossError(
          StrCat("shard ", s,
                 " lineage store does not match the fingerprint recorded "
                 "in its state file"));
    }
  }
  return loaded;
}

}  // namespace

Status EnsureCampaignDirectory(const std::string& path) {
  std::string prefix;
  for (const std::string& piece : StrSplit(path, '/')) {
    prefix += piece;
    if (!prefix.empty() && !FileExists(prefix) &&
        ::mkdir(prefix.c_str(), 0755) != 0 && !FileExists(prefix)) {
      return InternalError("cannot create campaign directory: " + prefix);
    }
    prefix += '/';
  }
  return OkStatus();
}

StatusOr<ShardedCampaign> OpenShardedCampaign(const MultiFileProgram& program,
                                              uint64_t rng_seed, int shards,
                                              const PlanWeights& weights,
                                              const std::string& output_dir,
                                              Env* env) {
  ShardedCampaign campaign;
  KONDO_ASSIGN_OR_RETURN(campaign.plan,
                         PlanShards(program.FileShapes(), shards, weights));
  const ShardPlan& plan = campaign.plan;
  ShardManifest& manifest = campaign.manifest;
  manifest = MakeShardManifest(plan, rng_seed);
  campaign.output_dir = output_dir;
  campaign.env = env;
  campaign.results.resize(static_cast<size_t>(plan.num_shards()));

  if (!output_dir.empty()) {
    KONDO_RETURN_IF_ERROR(EnsureCampaignDirectory(output_dir));
    campaign.manifest_path = JoinPath(output_dir, kShardManifestFileName);
    if (FileExists(campaign.manifest_path)) {
      KONDO_ASSIGN_OR_RETURN(manifest,
                             LoadShardManifest(campaign.manifest_path));
      KONDO_RETURN_IF_ERROR(CheckManifestMatchesPlan(manifest, plan, rng_seed));
    } else {
      KONDO_RETURN_IF_ERROR(
          SaveShardManifest(campaign.manifest_path, manifest, env));
    }
  }

  // Resume verification: a manifest may claim a shard is fuzzed while its
  // artefacts are damaged (commits are atomic, but operators truncate disks
  // and flip bits). A damaged shard is demoted to pending and re-run
  // instead of poisoning the merge. A fresh manifest has no fuzzed shards.
  bool demoted = false;
  for (int s = 0; s < manifest.num_shards(); ++s) {
    ShardStatus& status = manifest.statuses[static_cast<size_t>(s)];
    if (status == ShardStatus::kFuzzed) {
      StatusOr<ShardCampaignResult> verified =
          LoadVerifiedShard(output_dir, s, plan);
      if (verified.ok()) {
        campaign.results[static_cast<size_t>(s)] = std::move(*verified);
        continue;
      }
      KONDO_LOG(Warning) << "shard " << s
                         << " failed resume verification, re-running: "
                         << verified.status();
      status = ShardStatus::kPending;
      manifest.merged = false;
      demoted = true;
    }
    campaign.pending.push_back(s);
  }
  if (demoted) {
    KONDO_RETURN_IF_ERROR(
        SaveShardManifest(campaign.manifest_path, manifest, env));
  }
  return campaign;
}

StatusOr<ShardedRunResult> FinishShardedCampaign(ShardedCampaign& campaign,
                                                 const KondoConfig& config,
                                                 int shards_fuzzed_now) {
  const ShardPlan& plan = campaign.plan;
  const bool persistent = !campaign.output_dir.empty();
  ShardedRunResult out;
  out.shards_total = plan.num_shards();
  out.shards_fuzzed_now = shards_fuzzed_now;
  if (!campaign.manifest.AllFuzzed()) {
    return out;  // Paced invocation: more shards remain for a later run.
  }

  // Shards fuzzed by *earlier* invocations are merged from their state
  // files; the rest are merged from memory.
  std::vector<ShardCampaignResult> results;
  results.reserve(static_cast<size_t>(plan.num_shards()));
  std::vector<std::string> shard_paths;
  for (int s = 0; s < plan.num_shards(); ++s) {
    std::optional<ShardCampaignResult>& result =
        campaign.results[static_cast<size_t>(s)];
    if (!result.has_value()) {
      KONDO_ASSIGN_OR_RETURN(
          result, LoadShardState(JoinPath(campaign.output_dir,
                                          ShardStateFileName(s)),
                                 s, plan.file_shapes));
    }
    results.push_back(std::move(*result));
    if (persistent) {
      shard_paths.push_back(
          JoinPath(campaign.output_dir, ShardLineageFileName(s)));
    }
  }

  CampaignExecutor merge_executor(ClampJobs(config.jobs));
  KONDO_ASSIGN_OR_RETURN(
      out.merged, MergeShardCampaigns(plan, results, config, merge_executor));
  if (persistent) {
    out.merged_lineage_path =
        JoinPath(campaign.output_dir, kMergedLineageFileName);
    Kel2WriterOptions merge_options;
    merge_options.env = campaign.env;
    KONDO_RETURN_IF_ERROR(MergeShardLineageStores(
        shard_paths, out.merged_lineage_path, merge_options));
    campaign.manifest.merged = true;
    KONDO_RETURN_IF_ERROR(SaveShardManifest(
        campaign.manifest_path, campaign.manifest, campaign.env));
  }
  out.complete = true;
  return out;
}

void RunOnSharedPool(
    int jobs, size_t count,
    const std::function<void(size_t slot, CampaignExecutor& executor)>& run) {
  if (jobs <= 1 || count <= 1) {
    CampaignExecutor executor(jobs);
    for (size_t slot = 0; slot < count; ++slot) {
      run(slot, executor);
    }
    return;
  }
  // More drivers than workers would only queue.
  ThreadPool pool(jobs);
  const size_t drivers = std::min(count, static_cast<size_t>(jobs));
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (size_t d = 0; d < drivers; ++d) {
    threads.emplace_back([&] {
      CampaignExecutor executor(&pool, jobs);
      for (size_t slot = next.fetch_add(1); slot < count;
           slot = next.fetch_add(1)) {
        run(slot, executor);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

StatusOr<ShardedRunResult> RunShardedCampaign(const MultiFileProgram& program,
                                              const KondoConfig& config,
                                              const ShardOptions& options) {
  KONDO_ASSIGN_OR_RETURN(
      ShardedCampaign campaign,
      OpenShardedCampaign(program, config.rng_seed, options.shards,
                          options.plan_weights, options.output_dir,
                          options.env));
  const ShardPlan& plan = campaign.plan;
  const bool persistent = !options.output_dir.empty();

  // Pacing only makes sense with a campaign directory to resume from; an
  // in-memory campaign always runs every shard.
  std::vector<int> to_run = campaign.pending;
  if (persistent && options.max_shards_this_run > 0 &&
      static_cast<size_t>(options.max_shards_this_run) < to_run.size()) {
    to_run.resize(static_cast<size_t>(options.max_shards_this_run));
  }

  std::vector<Status> run_statuses(to_run.size(), OkStatus());

  const auto run_one = [&](size_t slot, CampaignExecutor& executor) {
    const int s = to_run[slot];
    const Shard& shard = plan.shards[static_cast<size_t>(s)];
    const std::string lineage_path =
        JoinPath(options.output_dir, ShardLineageFileName(s));
    StatusOr<ShardCampaignResult> run =
        persistent ? RunSealedShardCampaign(program, plan, shard, config,
                                            executor, lineage_path,
                                            options.env)
                   : RunShardCampaign(program, plan, shard, config, executor);
    Status status = run.status();
    if (status.ok() && persistent) {
      // Fingerprint the sealed store and commit the shard's state last:
      // the KSS (with its embedded fingerprint) only exists once every
      // artefact it vouches for is durable.
      StatusOr<ShardArtifactInfo> info = HashFileArtifact(lineage_path);
      status = info.ok() ? SaveShardState(JoinPath(options.output_dir,
                                                   ShardStateFileName(s)),
                                          s, *run, *info, options.env)
                         : info.status();
    }
    if (!status.ok()) {
      run_statuses[slot] = status;
      return;
    }
    campaign.results[static_cast<size_t>(s)] = std::move(*run);
  };

  RunOnSharedPool(ClampJobs(config.jobs), to_run.size(), run_one);
  for (const Status& status : run_statuses) {
    KONDO_RETURN_IF_ERROR(status);
  }

  for (int s : to_run) {
    campaign.manifest.statuses[static_cast<size_t>(s)] = ShardStatus::kFuzzed;
  }
  if (persistent && !to_run.empty()) {
    KONDO_RETURN_IF_ERROR(SaveShardManifest(campaign.manifest_path,
                                            campaign.manifest, options.env));
  }
  return FinishShardedCampaign(campaign, config,
                               static_cast<int>(to_run.size()));
}

}  // namespace kondo
