// Tests for the sharded campaign scheduler (src/shard/): planner partition
// invariants, manifest/state round-trips, bit-identity of the merged result
// against the unsharded pipeline at every (shards, jobs) setting, byte
// identity of the merged lineage store across shard counts, and resume via
// the campaign manifest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_kondo.h"
#include "fuzz/fuzz_schedule.h"
#include "provenance/crc32.h"
#include "shard/merge_stage.h"
#include "shard/plan_weights.h"
#include "shard/shard_campaign.h"
#include "shard/shard_manifest.h"
#include "shard/shard_plan.h"
#include "shard/shard_scheduler.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

/// Jobs settings the equality tests sweep. CI adds an extra leg through
/// KONDO_TEST_JOBS so the jobs=1 and jobs=4 matrix entries both exercise
/// the invariance claims.
std::vector<int> TestJobs() {
  std::vector<int> jobs = {1, 4};
  if (const char* env = std::getenv("KONDO_TEST_JOBS")) {
    const int extra = std::atoi(env);
    if (extra > 0 &&
        std::find(jobs.begin(), jobs.end(), extra) == jobs.end()) {
      jobs.push_back(extra);
    }
  }
  return jobs;
}

void ExpectIndexSetsEqual(const IndexSet& a, const IndexSet& b,
                          const std::string& what) {
  EXPECT_EQ(a.ToSortedLinearIds(), b.ToSortedLinearIds()) << what;
}

void ExpectStatsEqual(const FuzzStats& a, const FuzzStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  EXPECT_EQ(a.useful_evaluations, b.useful_evaluations) << what;
  EXPECT_EQ(a.restarts, b.restarts) << what;
  EXPECT_EQ(a.final_epsilon, b.final_epsilon) << what;
  EXPECT_EQ(a.stopped_by_stagnation, b.stopped_by_stagnation) << what;
  EXPECT_EQ(a.stopped_by_budget, b.stopped_by_budget) << what;
  EXPECT_EQ(a.stopped_by_eval_budget, b.stopped_by_eval_budget) << what;
}

void ExpectResultsEqual(const MultiKondoResult& a, const MultiKondoResult& b,
                        const std::string& what) {
  ExpectStatsEqual(a.fuzz_stats, b.fuzz_stats, what);
  ASSERT_EQ(a.per_file_discovered.size(), b.per_file_discovered.size());
  for (size_t f = 0; f < a.per_file_discovered.size(); ++f) {
    const std::string file_what = what + ", file " + std::to_string(f);
    ExpectIndexSetsEqual(a.per_file_discovered[f], b.per_file_discovered[f],
                         file_what + " discovered");
    ExpectIndexSetsEqual(a.per_file_approx[f], b.per_file_approx[f],
                         file_what + " approx");
    EXPECT_EQ(a.per_file_carve_stats[f].num_cells,
              b.per_file_carve_stats[f].num_cells) << file_what;
    EXPECT_EQ(a.per_file_carve_stats[f].merge_operations,
              b.per_file_carve_stats[f].merge_operations) << file_what;
    EXPECT_EQ(a.per_file_carve_stats[f].final_hulls,
              b.per_file_carve_stats[f].final_hulls) << file_what;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A per-test campaign directory, wiped up front: campaign directories are
/// resumable by design, so a leftover from a previous test-binary run
/// would otherwise satisfy (or corrupt) this run's campaign.
std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/shard_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A short campaign config: the eval budget bounds runtime and (being
// checked at serial consumption time) keeps every sweep bit-comparable.
KondoConfig ShortCampaignConfig(uint64_t seed) {
  KondoConfig config;
  config.rng_seed = seed;
  config.fuzz.max_evals = 400;
  return config;
}

// ------------------------------------------------------------- planner --

TEST(ShardPlanTest, OneShardPerFileIsTheDefaultPartition) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4},
                                     Shape{16}, Shape{2, 2}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 4);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->num_shards(), 4);
  for (int s = 0; s < 4; ++s) {
    const Shard& shard = plan->shards[static_cast<size_t>(s)];
    ASSERT_EQ(shard.slices.size(), 1u);
    EXPECT_EQ(shard.slices[0],
              (ShardSlice{s, 0, shapes[static_cast<size_t>(s)].NumElements()}));
  }
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
}

TEST(ShardPlanTest, FewerShardsGroupWholeFiles) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4},
                                     Shape{16}, Shape{2, 2}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->num_shards(), 2);
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
  // Every slice spans its whole file (grouping never splits a file).
  for (const Shard& shard : plan->shards) {
    for (const ShardSlice& slice : shard.slices) {
      EXPECT_EQ(slice.begin, 0);
      EXPECT_EQ(slice.end,
                shapes[static_cast<size_t>(slice.file)].NumElements());
    }
  }
}

TEST(ShardPlanTest, ExtraShardsSplitTheLargestFile) {
  const std::vector<Shape> shapes = {Shape{64, 64}, Shape{8}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 4);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->num_shards(), 4);
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
  // The 4096-element file takes the three extra splits; the 8-element file
  // stays whole.
  int file0_slices = 0;
  for (const Shard& shard : plan->shards) {
    for (const ShardSlice& slice : shard.slices) {
      if (slice.file == 0) {
        ++file0_slices;
      } else {
        EXPECT_EQ(slice.NumElements(), 8);
      }
    }
  }
  EXPECT_EQ(file0_slices, 3);
}

TEST(ShardPlanTest, TinyFilesYieldFewerShardsThanRequested) {
  const StatusOr<ShardPlan> plan = PlanShards({Shape{3}}, 10);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->num_shards(), 3);  // Never more slices than elements.
  EXPECT_TRUE(ValidateShardPlan(*plan).ok());
}

TEST(ShardPlanTest, DeterministicAndValidatedAcrossCounts) {
  const std::vector<Shape> shapes = {Shape{32, 32}, Shape{16, 16, 8},
                                     Shape{64}};
  for (int shards : {1, 2, 3, 5, 9}) {
    const StatusOr<ShardPlan> a = PlanShards(shapes, shards);
    const StatusOr<ShardPlan> b = PlanShards(shapes, shards);
    ASSERT_TRUE(a.ok()) << a.status();
    EXPECT_TRUE(ValidateShardPlan(*a).ok()) << shards << " shards";
    ASSERT_EQ(a->num_shards(), b->num_shards());
    for (int s = 0; s < a->num_shards(); ++s) {
      EXPECT_EQ(a->shards[static_cast<size_t>(s)].slices,
                b->shards[static_cast<size_t>(s)].slices);
    }
  }
}

TEST(ShardPlanTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(PlanShards({Shape{4, 4}}, 0).ok());
  EXPECT_FALSE(PlanShards({}, 2).ok());
}

// ------------------------------------------------- manifest and state --

TEST(ShardPlanTest, UniformWeightsReproduceTheUnweightedPlan) {
  const std::vector<Shape> shapes = {Shape{64, 64}, Shape{8, 8}};
  const StatusOr<ShardPlan> unweighted = PlanShards(shapes, 5);
  ASSERT_TRUE(unweighted.ok()) << unweighted.status();

  PlanWeights weights;
  weights.per_file.push_back(std::vector<double>(64 * 64, 2.5));
  weights.per_file.push_back(std::vector<double>(8 * 8, 2.5));
  const StatusOr<ShardPlan> weighted = PlanShards(shapes, 5, weights);
  ASSERT_TRUE(weighted.ok()) << weighted.status();
  ASSERT_EQ(weighted->num_shards(), unweighted->num_shards());
  for (int s = 0; s < unweighted->num_shards(); ++s) {
    EXPECT_EQ(weighted->shards[s].slices, unweighted->shards[s].slices)
        << "shard " << s;
  }
}

TEST(ShardPlanTest, SkewedWeightsShrinkTheHotRegionsShards) {
  // The first eighth of the file concentrates the observed accesses; the
  // weighted split must give the hot prefix proportionally fewer elements
  // per shard than the uniform element-count split would.
  const std::vector<Shape> shapes = {Shape{1024}};
  PlanWeights weights;
  std::vector<double> w(1024, kColdElementWeight);
  for (int i = 0; i < 128; ++i) {
    w[static_cast<size_t>(i)] = kHotElementWeight;
  }
  weights.per_file.push_back(std::move(w));

  const StatusOr<ShardPlan> plan = PlanShards(shapes, 4, weights);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(ValidateShardPlan(*plan).ok());
  ASSERT_EQ(plan->num_shards(), 4);
  // Shard 0 owns the hot prefix: far fewer elements than the 256 an
  // unweighted split would give it.
  EXPECT_LT(plan->shards[0].NumElements(), 256);
  // Every element is still covered exactly once (ValidateShardPlan), and
  // the shard count is unchanged — only boundaries moved.
  int64_t total = 0;
  for (const Shard& shard : plan->shards) {
    total += shard.NumElements();
  }
  EXPECT_EQ(total, 1024);
}

TEST(ShardPlanTest, MalformedWeightsAreRejected) {
  const std::vector<Shape> shapes = {Shape{16}};
  // Non-uniform but covering only half the file (exactly uniform weights
  // would legitimately defer to the unweighted planner before validation).
  PlanWeights short_weights;
  short_weights.per_file.push_back(std::vector<double>(8, 1.0));
  short_weights.per_file[0][0] = 2.0;
  EXPECT_FALSE(PlanShards(shapes, 2, short_weights).ok());

  PlanWeights negative;
  negative.per_file.push_back(std::vector<double>(16, 1.0));
  negative.per_file[0][3] = -1.0;
  EXPECT_FALSE(PlanShards(shapes, 2, negative).ok());
}

TEST(PlanWeightsTest, WeightsFromIndexSetsMarkAccessedElementsHot) {
  std::vector<IndexSet> per_file;
  per_file.emplace_back(Shape{4, 4});
  per_file[0].InsertLinear(0);
  per_file[0].InsertLinear(5);
  const PlanWeights weights = WeightsFromIndexSets(per_file);
  ASSERT_EQ(weights.per_file.size(), 1u);
  EXPECT_EQ(weights.per_file[0][0], kHotElementWeight);
  EXPECT_EQ(weights.per_file[0][5], kHotElementWeight);
  EXPECT_EQ(weights.per_file[0][1], kColdElementWeight);
  EXPECT_FALSE(weights.IsUniform());
}

TEST(ShardManifestTest, DispatchCountsRoundTripThroughWLines) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 3);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ShardManifest manifest = MakeShardManifest(*plan, 42);
  manifest.dispatch_counts[0] = 2;
  manifest.dispatch_counts[2] = 5;

  const std::string dir = TempDir("manifest_w");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const std::string path = dir + "/" + kShardManifestFileName;
  ASSERT_TRUE(SaveShardManifest(path, manifest).ok());
  const StatusOr<ShardManifest> loaded = LoadShardManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dispatch_counts,
            (std::vector<int>{2, 0, 5}));
  // The fleet's re-dispatch accounting never perturbs plan matching.
  EXPECT_TRUE(CheckManifestMatchesPlan(*loaded, *plan, 42).ok());
}

TEST(ShardManifestTest, RoundTripsThroughDisk) {
  const std::vector<Shape> shapes = {Shape{8, 8}, Shape{4, 4, 4}};
  const StatusOr<ShardPlan> plan = PlanShards(shapes, 3);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ShardManifest manifest = MakeShardManifest(*plan, 42);
  manifest.statuses[1] = ShardStatus::kFuzzed;

  const std::string dir = TempDir("manifest");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const std::string path = dir + "/" + kShardManifestFileName;
  ASSERT_TRUE(SaveShardManifest(path, manifest).ok());

  const StatusOr<ShardManifest> loaded = LoadShardManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rng_seed, 42u);
  EXPECT_FALSE(loaded->merged);
  EXPECT_EQ(loaded->statuses[0], ShardStatus::kPending);
  EXPECT_EQ(loaded->statuses[1], ShardStatus::kFuzzed);
  EXPECT_TRUE(CheckManifestMatchesPlan(*loaded, *plan, 42).ok());
  // A different campaign seed must be rejected — it is a different
  // schedule, and merging its shards would corrupt the campaign.
  EXPECT_FALSE(CheckManifestMatchesPlan(*loaded, *plan, 43).ok());
}

TEST(ShardStateTest, RoundTripsThroughDisk) {
  const std::vector<Shape> shapes = {Shape{4, 4}, Shape{8}};
  ShardCampaignResult result;
  result.per_file.emplace_back(shapes[0]);
  result.per_file.emplace_back(shapes[1]);
  result.per_file[0].InsertLinear(3);
  result.per_file[0].InsertLinear(7);
  result.per_file[1].InsertLinear(0);
  result.seeds.push_back({{1.5, -2.25}, true});
  result.seeds.push_back({{0.125, 9.0}, false});
  result.stats.iterations = 11;
  result.stats.evaluations = 9;
  result.stats.useful_evaluations = 4;
  result.stats.final_epsilon = 0.375;
  result.stats.stopped_by_eval_budget = true;

  const std::string dir = TempDir("state");
  ASSERT_TRUE(EnsureCampaignDirectory(dir).ok());
  const std::string path = dir + "/" + ShardStateFileName(7);
  ASSERT_TRUE(SaveShardState(path, 7, result).ok());

  const StatusOr<ShardCampaignResult> loaded = LoadShardState(path, 7, shapes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectStatsEqual(loaded->stats, result.stats, "state round trip");
  ASSERT_EQ(loaded->seeds.size(), 2u);
  EXPECT_EQ(loaded->seeds[0].value, result.seeds[0].value);
  EXPECT_EQ(loaded->seeds[0].useful, true);
  EXPECT_EQ(loaded->seeds[1].value, result.seeds[1].value);
  ExpectIndexSetsEqual(loaded->per_file[0], result.per_file[0], "file 0");
  ExpectIndexSetsEqual(loaded->per_file[1], result.per_file[1], "file 1");
  // Loading under the wrong shard id is the resume-corruption guard.
  EXPECT_FALSE(LoadShardState(path, 6, shapes).ok());
}

TEST(ShardStateTest, OldStatsLineLayoutIsDataLoss) {
  // An older KSS carried the wall time after the epsilon. Such a file is
  // rejected (and its shard re-run), never read with every later field
  // shifted by one — not even when the wall time parses as an integer.
  const std::vector<Shape> shapes = {Shape{8}};
  ShardCampaignResult result;
  result.per_file.emplace_back(shapes[0]);
  result.stats.iterations = 3;
  result.stats.evaluations = 3;
  result.stats.final_epsilon = 0.5;
  const std::string encoded = EncodeShardState(2, result);
  ASSERT_TRUE(DecodeShardState(encoded, "current", 2, shapes).ok());

  const std::string t_line = "\nT 3 3 0 0 0.5 ";
  const size_t t_pos = encoded.find(t_line);
  ASSERT_NE(t_pos, std::string::npos) << encoded;
  for (const char* elapsed : {"0.0123", "2"}) {
    std::string old = encoded.substr(0, encoded.rfind("C "));
    old.insert(t_pos + t_line.size(), std::string(elapsed) + " ");
    AppendChecksumTrailer(&old);
    const StatusOr<ShardCampaignResult> decoded =
        DecodeShardState(old, "old", 2, shapes);
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "elapsed " << elapsed << ": " << decoded.status();
  }
}

// ----------------------------------------------- merged-result identity --

TEST(ShardSchedulerTest, MergedResultIsBitIdenticalToUnsharded) {
  for (const std::string& name : AllMultiFileProgramNames()) {
    const std::unique_ptr<MultiFileProgram> program =
        CreateMultiFileProgram(name, 32);
    ASSERT_NE(program, nullptr);
    KondoConfig config = ShortCampaignConfig(19);
    const MultiKondoResult baseline = RunMultiFileKondo(*program, config);
    EXPECT_TRUE(baseline.fuzz_stats.stopped_by_eval_budget);

    for (int shards : {2, 4}) {
      for (int jobs : TestJobs()) {
        config.shards = shards;
        config.jobs = jobs;
        const MultiKondoResult sharded = RunMultiFileKondo(*program, config);
        ExpectResultsEqual(baseline, sharded,
                           name + ", shards=" + std::to_string(shards) +
                               ", jobs=" + std::to_string(jobs));
      }
    }
  }
}

TEST(ShardSchedulerTest, SingleFileChunkSplitMatchesWholeFile) {
  // The chunk-range splitter partitions one file across shards; results
  // must still match the one-shard run exactly.
  KondoConfig config = ShortCampaignConfig(5);
  const SingleFileProgramAdapter adapter(CreateProgram("CS"));
  const MultiKondoResult baseline = RunMultiFileKondo(adapter, config);
  config.shards = 3;
  config.jobs = 2;
  const MultiKondoResult sharded = RunMultiFileKondo(adapter, config);
  ExpectResultsEqual(baseline, sharded, "CS chunk split");
}

TEST(ShardSchedulerTest, MergedLineageBytesInvariantAcrossShardCounts) {
  const StormTrackProgram program(32, 8);
  const KondoConfig config = ShortCampaignConfig(23);
  std::string reference;
  for (int shards : {1, 2, 4}) {
    ShardOptions options;
    options.shards = shards;
    options.output_dir = TempDir("lineage_" + std::to_string(shards));
    const StatusOr<ShardedRunResult> run =
        RunShardedCampaign(program, config, options);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->complete);
    const std::string bytes = ReadFileBytes(run->merged_lineage_path);
    ASSERT_FALSE(bytes.empty());
    if (shards == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference)
          << "merged.kel2 differs at shards=" << shards;
    }
  }
}

// The merged lineage store and shard 0's state file of a small sharded
// STORM campaign whose files span several 64 Ki-id pages, recorded when
// IndexSet was a hash set that sorted on every walk. The invariance tests
// above only compare the code with itself; these pin the bytes.
TEST(ShardGoldenTest, StormArtifactsAreByteIdenticalToRecorded) {
  const StormTrackProgram program(384, 4);
  const KondoConfig config = ShortCampaignConfig(29);
  ShardOptions options;
  options.shards = 2;
  options.output_dir = TempDir("golden");
  const StatusOr<ShardedRunResult> run =
      RunShardedCampaign(program, config, options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_TRUE(run->complete);
  const std::string merged = ReadFileBytes(run->merged_lineage_path);
  EXPECT_EQ(merged.size(), 290542u);
  EXPECT_EQ(Crc32(merged.data(), merged.size()), 3829107164u);
  // The KSS carries no wall time, so the whole file is pinned, `T` line
  // and `C` trailer included.
  const std::string state =
      ReadFileBytes(options.output_dir + "/" + ShardStateFileName(0));
  EXPECT_EQ(state.size(), 276225u);
  EXPECT_EQ(Crc32(state.data(), state.size()), 489901840u);
}

TEST(ShardSchedulerTest, ResumesFromManifestOneShardAtATime) {
  const StormTrackProgram program(32, 8);
  const KondoConfig config = ShortCampaignConfig(31);

  ShardOptions oneshot;
  oneshot.shards = 3;
  oneshot.output_dir = TempDir("resume_oneshot");
  const StatusOr<ShardedRunResult> full =
      RunShardedCampaign(program, config, oneshot);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->complete);

  ShardOptions paced;
  paced.shards = 3;
  paced.output_dir = TempDir("resume_paced");
  paced.max_shards_this_run = 1;
  for (int invocation = 0; invocation < 2; ++invocation) {
    const StatusOr<ShardedRunResult> partial =
        RunShardedCampaign(program, config, paced);
    ASSERT_TRUE(partial.ok()) << partial.status();
    EXPECT_FALSE(partial->complete);
    EXPECT_EQ(partial->shards_fuzzed_now, 1);
    // The manifest records progress between invocations.
    const StatusOr<ShardManifest> manifest = LoadShardManifest(
        paced.output_dir + "/" + kShardManifestFileName);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    EXPECT_FALSE(manifest->AllFuzzed());
  }
  const StatusOr<ShardedRunResult> last =
      RunShardedCampaign(program, config, paced);
  ASSERT_TRUE(last.ok()) << last.status();
  ASSERT_TRUE(last->complete);

  // The paced campaign merged shards 0-1 from their .kss state files, yet
  // the outcome — including the merged lineage bytes — matches one shot.
  ExpectStatsEqual(last->merged.fuzz_stats, full->merged.fuzz_stats,
                   "paced vs oneshot");
  for (size_t f = 0; f < full->merged.per_file_approx.size(); ++f) {
    ExpectIndexSetsEqual(last->merged.per_file_approx[f],
                         full->merged.per_file_approx[f],
                         "paced approx, file " + std::to_string(f));
  }
  EXPECT_EQ(ReadFileBytes(last->merged_lineage_path),
            ReadFileBytes(full->merged_lineage_path));
}

// ----------------------------------------------------------- satellites --

TEST(FuzzEvalBudgetTest, MaxEvalsIsJobsInvariantAndRecorded) {
  const std::unique_ptr<Program> program = CreateProgram("CS");
  KondoConfig config = ScaledKondoConfig(program->data_shape());
  config.fuzz.max_evals = 100;

  FuzzResult baseline;
  bool first = true;
  for (int jobs : TestJobs()) {
    CampaignExecutor executor(jobs);
    FuzzSchedule schedule(program->param_space(), program->data_shape(),
                          config.fuzz, 7);
    const FuzzResult result =
        schedule.Run(executor, MakeCandidateTest(*program));
    EXPECT_EQ(result.stats.evaluations, 100);
    EXPECT_TRUE(result.stats.stopped_by_eval_budget);
    EXPECT_FALSE(result.stats.stopped_by_stagnation);
    if (first) {
      baseline = result;
      first = false;
      continue;
    }
    const std::string what = "jobs=" + std::to_string(jobs);
    ExpectStatsEqual(result.stats, baseline.stats, what);
    ExpectIndexSetsEqual(result.discovered, baseline.discovered, what);
    ASSERT_EQ(result.seeds.size(), baseline.seeds.size());
    for (size_t i = 0; i < result.seeds.size(); ++i) {
      EXPECT_EQ(result.seeds[i].value, baseline.seeds[i].value) << what;
      EXPECT_EQ(result.seeds[i].useful, baseline.seeds[i].useful) << what;
    }
  }
}

TEST(ParallelRasterizeTest, MatchesSerialRasterize) {
  // Scattered clusters carve into several hulls, so the parallel per-hull
  // path actually fans out.
  IndexSet discovered(Shape{64, 64});
  for (int64_t x = 2; x < 12; ++x) {
    for (int64_t y = 2; y < 12; ++y) {
      discovered.Insert(Index{x, y});
    }
  }
  for (int64_t x = 40; x < 60; x += 2) {
    discovered.Insert(Index{x, 50});
    discovered.Insert(Index{50, x});
  }
  CarveStats stats;
  const Carver carver(ScaledKondoConfig(Shape{64, 64}).carve);
  const CarvedSubset carved = carver.Carve(discovered, &stats);
  ASSERT_GT(stats.final_hulls, 1);

  const IndexSet serial = carved.Rasterize();
  CampaignExecutor executor(4);
  const IndexSet parallel = Carver::Rasterize(carved, executor);
  ExpectIndexSetsEqual(parallel, serial, "parallel rasterize");
}

}  // namespace
}  // namespace kondo
