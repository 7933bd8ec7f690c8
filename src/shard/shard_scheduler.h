#ifndef KONDO_SHARD_SHARD_SCHEDULER_H_
#define KONDO_SHARD_SHARD_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/statusor.h"
#include "core/kondo.h"
#include "shard/merge_stage.h"
#include "shard/shard_manifest.h"
#include "shard/shard_plan.h"
#include "workloads/multi_file_program.h"

namespace kondo {

/// How RunShardedCampaign partitions, persists, and paces a campaign.
struct ShardOptions {
  /// Requested shard count (the planner may return fewer on tiny arrays).
  int shards = 1;

  /// Campaign directory for the manifest, per-shard KEL2 stores, per-shard
  /// state files, and the merged store. Empty runs the campaign entirely
  /// in memory: no lineage, no manifest, no resume.
  std::string output_dir;

  /// Upper bound on shards fuzzed by *this* invocation (0 = all remaining).
  /// With a campaign directory, a later invocation picks up the pending
  /// shards from the manifest and merges once every shard is fuzzed.
  int max_shards_this_run = 0;

  /// Access-density weights steering the planner (empty = element-count
  /// balancing). A resumed campaign must pass the same weights: the
  /// manifest records the resulting slices and CheckManifestMatchesPlan
  /// rejects a plan whose boundaries moved.
  PlanWeights plan_weights;

  /// Filesystem used for every artefact the scheduler commits (manifest,
  /// per-shard KEL2 + KSS, merged store). nullptr = the real filesystem;
  /// tests inject a FaultInjectingEnv here to simulate crashes and ENOSPC
  /// at any write. All artefacts commit via tmp + fsync + rename, so a
  /// crash at any point leaves either the previous file or nothing — never
  /// a torn artefact — and a later invocation resumes from the manifest.
  Env* env = nullptr;
};

/// Outcome of one scheduler invocation.
struct ShardedRunResult {
  /// Valid only when `complete`: the merged campaign, bit-identical to the
  /// unsharded RunMultiFileKondo output.
  MergedCampaign merged;
  bool complete = false;
  int shards_fuzzed_now = 0;  // Shards campaigned by this invocation.
  int shards_total = 0;
  /// Path of the merged KEL2 store ("" in in-memory mode).
  std::string merged_lineage_path;
};

/// Plans shards, runs one full fuzz campaign per shard, and merges.
///
/// Scheduling: the pending shards run through RunOnSharedPool over
/// `ClampJobs(config.jobs)` workers, so debloat tests from every shard
/// interleave on one pool and the machine is never oversubscribed beyond
/// `jobs` (plus the driver threads, which are idle while tests run).
///
/// Every shard replays the identical schedule (see RunShardCampaign), so
/// the merged result — index sets, carve stats, fuzz statistics, and the
/// merged lineage store — is bit-identical to `shards = 1` at every jobs
/// setting. Planning, resume and merge are OpenShardedCampaign and
/// FinishShardedCampaign; a persistent shard runs through
/// RunSealedShardCampaign and commits its KSS last.
StatusOr<ShardedRunResult> RunShardedCampaign(const MultiFileProgram& program,
                                              const KondoConfig& config,
                                              const ShardOptions& options);

/// The skeleton both schedulers share (RunShardedCampaign here,
/// RunFleetCampaign in src/fleet/); they differ only in how `pending`
/// shards get run. A scheduler stores each run shard's result in
/// `results[s]`, marks it fuzzed in `manifest`, then calls
/// FinishShardedCampaign.
struct ShardedCampaign {
  ShardPlan plan;
  ShardManifest manifest;
  std::string output_dir;     // "" = in-memory campaign.
  std::string manifest_path;  // "" in memory.
  Env* env = nullptr;
  /// Empty for a shard fuzzed by an earlier invocation and not re-verified
  /// (FinishShardedCampaign loads it) or not fuzzed yet.
  std::vector<std::optional<ShardCampaignResult>> results;
  std::vector<int> pending;  // Ascending.
};

/// Plans the campaign from `program`'s file shapes, `shards` and `weights`.
/// With a campaign directory it also creates the directory, loads and
/// checks the manifest (or commits a fresh one through `env`), and
/// re-verifies every fuzzed shard's KSS checksum and KEL2 fingerprint,
/// demoting a damaged one to pending and committing the demotion. With an
/// empty `output_dir` it touches no disk.
StatusOr<ShardedCampaign> OpenShardedCampaign(const MultiFileProgram& program,
                                              uint64_t rng_seed, int shards,
                                              const PlanWeights& weights,
                                              const std::string& output_dir,
                                              Env* env);

/// Merges an opened campaign once its manifest shows every shard fuzzed
/// (before that it returns an incomplete result): loads the shards fuzzed
/// by earlier invocations from their state files, folds everything
/// through MergeShardCampaigns and, with a campaign directory, writes
/// `merged.kel2` via MergeShardLineageStores and commits `manifest.merged`.
StatusOr<ShardedRunResult> FinishShardedCampaign(ShardedCampaign& campaign,
                                                 const KondoConfig& config,
                                                 int shards_fuzzed_now);

/// The local pool-sharing rule: runs `run(slot, executor)` for every slot
/// in [0, count), back to back on the calling thread when `jobs <= 1` or
/// `count <= 1`, otherwise on up to `jobs` plain driver threads, each
/// holding a non-owning CampaignExecutor over one shared ThreadPool of
/// `jobs` workers. Drivers block on their batches outside the pool, so a
/// pool task never nests a ParallelFor.
void RunOnSharedPool(
    int jobs, size_t count,
    const std::function<void(size_t slot, CampaignExecutor& executor)>& run);

/// mkdir -p: creates `path` and any missing parents. The scheduler calls
/// this for its campaign directory; exposed for callers (the CLI) that
/// write sibling artefacts into the same tree.
Status EnsureCampaignDirectory(const std::string& path);

}  // namespace kondo

#endif  // KONDO_SHARD_SHARD_SCHEDULER_H_
