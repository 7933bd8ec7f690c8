// debloat_2d: the full debloat path from files in to files out on LDC and
// PRL at n = 512, jobs 2. Audited debloat tests over a chunked float64 KDF,
// lineage persisted through ResultCollector -> CampaignLineageSink (KEL2),
// then carve, rasterise, KdfReader::ReadAll, PackageDebloated and
// WriteKdpFile. Test execution, audit and lineage persist dominate.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/kdf_file.h"
#include "campaign_common.h"
#include "core/debloat_test.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "data_gen.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "provenance/kel2_reader.h"
#include "provenance/persist.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace kondo_bench {
namespace {

constexpr int kJobs = 2;
constexpr int kReplaySample = 32;
// Minimum passes, one seed set each: a campaign's cost follows the
// parameter region its seed explores, so the median is taken over five.
constexpr int kPasses = 5;
// Audited tests per campaign. Left to its stagnation rule a campaign runs
// 1100 to 1900 tests depending on the seed; a fixed budget below that keeps
// the work of a pass the same for every seed, with recall still about 1.
constexpr int64_t kMaxEvals = 600;

struct Input {
  std::string name;
  std::unique_ptr<kondo::Program> program;
  kondo::KondoConfig config;
  std::string kdf_path;
  uint64_t kdf_hash = 0;
};

/// Outputs of one program's campaign in one pass, kept for the gates.
struct Output {
  CampaignRun run;
  std::unique_ptr<kondo::DataArray> source;
  std::unique_ptr<kondo::DebloatedArray> debloated;
  kondo::PackStats pack;
  int64_t persisted = 0;
  std::string kel2_path;
  std::string kdp_path;
};

/// Wraps the sink's persister: times each call (span "provenance.persist")
/// and counts the events handed over.
struct PersistProbe {
  double seconds = 0.0;
  int64_t events = 0;

  kondo::AuditPersistFn Wrap(kondo::AuditPersistFn inner, Tracer& tracer) {
    return [this, inner = std::move(inner),
            &tracer](const kondo::EventLog& log) {
      Span span(tracer, "provenance.persist");
      kondo::Status status = inner(log);
      seconds += span.ElapsedSeconds();
      events += log.NumEvents();
      return status;
    };
  }
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

/// Gates on one program's outputs; every failed check counts.
void CheckOutputs(const Input& input, const Output& out, uint64_t seed,
                  Results& results) {
  const std::string& name = input.name;
  const kondo::DebloatedArray& packaged = *out.debloated;
  kondo::StatusOr<std::unique_ptr<kondo::PackReader>> reader =
      kondo::PackReader::Open(out.kdp_path);
  results.Count(reader.ok(), name + ": open KDP: " + reader.status().ToString(),
                true);
  if (reader.ok()) {
    kondo::StatusOr<kondo::DebloatedArray> unpacked = (*reader)->Unpack();
    bool same = unpacked.ok() &&
                unpacked->retained_count() == packaged.retained_count() &&
                unpacked->shape().NumElements() ==
                    packaged.shape().NumElements();
    bool source_ok = true;
    const kondo::Shape& shape = packaged.shape();
    for (int64_t id = 0; same && id < shape.NumElements(); ++id) {
      const kondo::Index index = shape.Delinearize(id);
      const bool kept = packaged.IsRetained(index);
      if (kept != unpacked->IsRetained(index)) {
        same = false;
        break;
      }
      if (kept) {
        const double value = *packaged.At(index);
        same = SameBits(value, *unpacked->At(index));
        source_ok = source_ok && SameBits(value, out.source->AtLinear(id));
      }
    }
    results.Count(same, name + ": KDP unpack differs from the package", true);
    results.Count(source_ok, name + ": retained element differs from KDF",
                  true);
  }

  kondo::StatusOr<kondo::Kel2Reader> store =
      kondo::Kel2Reader::Open(out.kel2_path);
  std::set<int64_t> runs;
  if (store.ok()) {
    kondo::StatusOr<std::vector<kondo::Event>> events = store->ReadAll();
    if (events.ok()) {
      for (const kondo::Event& event : *events) {
        runs.insert(event.id.pid);
      }
    }
  }
  results.Count(static_cast<int64_t>(runs.size()) == out.persisted,
                name + ": sealed KEL2 holds " + std::to_string(runs.size()) +
                    " runs, collector persisted " +
                    std::to_string(out.persisted),
                true);

  // Replay a seeded sample of the campaign's consumed valuations against
  // the debloated array: none may raise data-missing.
  const std::vector<kondo::Seed>& seeds = out.run.fuzz.seeds;
  SplitMix pick(DeriveSeed(seed, "debloat_2d/replay/" + name));
  kondo::DebloatRuntime runtime(packaged);
  bool replay_ok = !seeds.empty();
  for (int i = 0; i < kReplaySample && !seeds.empty(); ++i) {
    const size_t chosen = static_cast<size_t>(
        pick.Below(static_cast<int64_t>(seeds.size())));
    replay_ok = replay_ok &&
                runtime.ReplayRun(*input.program, seeds[chosen].value).ok();
  }
  replay_ok = replay_ok && runtime.stats().misses == 0;
  results.Count(replay_ok, name + ": replay raised data-missing", true);
}

}  // namespace

int RunDebloat2d(const Args& args, Tracer& tracer, Results& results) {
  const int64_t n = args.tiny ? 64 : 512;
  std::vector<Input> inputs;
  bool setup_ok = true;
  TimeSetup(results, 3, [&](int) {
    inputs.clear();
    for (const char* name : {"LDC", "PRL"}) {
      Input input;
      input.name = name;
      input.program = kondo::CreateProgram(name, n);
      input.config = kondo::ScaledKondoConfig(input.program->data_shape());
      input.config.jobs = kJobs;
      input.config.fuzz.max_evals = args.tiny ? 0 : kMaxEvals;
      input.kdf_path = args.work_dir + "/" + input.name + ".kdf";
      const kondo::DataArray array = MakeFieldArray(
          input.program->data_shape(),
          DeriveSeed(args.seed, "debloat_2d/kdf/" + input.name));
      setup_ok = setup_ok && WriteChunkedKdf(input.kdf_path, array);
      input.kdf_hash = HashFile(input.kdf_path);
      inputs.push_back(std::move(input));
    }
  }, [&] {
    for (const Input& input : inputs) {
      (void)input.program->GroundTruth();
    }
  });
  if (!setup_ok) {
    return 1;
  }
  if (args.inputs_only) {
    uint64_t hash = Fnv1a("debloat_2d", 10);
    for (const Input& input : inputs) {
      for (int pass = 0; pass < kPasses; ++pass) {
        const uint64_t seed = SetSeed(args, "debloat_2d/" + input.name, pass);
        hash = Fnv1a(&seed, sizeof(seed), hash);
      }
      hash = Fnv1a(&input.kdf_hash, sizeof(input.kdf_hash), hash);
    }
    PrintInputsHash(args, hash);
    return 0;
  }
  const kondo::PackReadOptions read_options;
  if (!CheckModelOff(nullptr, &read_options, nullptr)) {
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
    TestProbe probe(tracer, results);
    PersistProbe persist;
    LayerTotals totals;
    double seconds = 0.0;
    double close_s = 0.0, read_s = 0.0, package_s = 0.0, write_s = 0.0;
    int64_t lineage_bytes = 0, kdp_bytes = 0, kdf_bytes = 0;
    kondo::PackStats pack_totals;
    std::vector<Output> outputs(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Input& input = inputs[i];
      Output& out = outputs[i];
      const std::string stem =
          args.work_dir + "/" + input.name + "-" + std::to_string(pass);
      out.kel2_path = stem + ".kel2";
      out.kdp_path = stem + ".kdp";
      const kondo::Shape& shape = input.program->data_shape();
      bool ok = true;
      {
        Span root(tracer, "bench.campaign");
        kondo::StatusOr<kondo::CampaignLineageSink> sink =
            kondo::CampaignLineageSink::Create(out.kel2_path);
        if (!sink.ok()) {
          results.Count(false, input.name + ": " + sink.status().ToString());
          return 1;
        }
        kondo::ResultCollector collector(
            shape, persist.Wrap(sink->persister(), tracer));
        kondo::KondoConfig config = input.config;
        config.rng_seed = SetSeed(args, "debloat_2d/" + input.name,
                                  SeedPass(args, pass, kPasses));
        out.run = RunFuzzCarve(
            config, input.program->param_space(), shape,
            kondo::MakeAuditedCandidateTest(*input.program, input.kdf_path),
            &collector, tracer, probe);
        out.persisted = collector.persisted();
        {
          Span span(tracer, "provenance.close");
          ok = ok && sink->Close().ok();
          close_s += span.ElapsedSeconds();
        }
        {
          Span span(tracer, "array.kdf_read");
          kondo::StatusOr<kondo::KdfReader> reader =
              kondo::KdfReader::Open(input.kdf_path);
          kondo::StatusOr<kondo::DataArray> array =
              reader.ok() ? reader->ReadAll()
                          : kondo::StatusOr<kondo::DataArray>(reader.status());
          ok = ok && array.ok();
          if (array.ok()) {
            out.source = std::make_unique<kondo::DataArray>(*std::move(array));
          }
          read_s += span.ElapsedSeconds();
        }
        {
          Span span(tracer, "array.package");
          out.debloated = std::make_unique<kondo::DebloatedArray>(
              kondo::PackageDebloated(*out.source, out.run.approx));
          package_s += span.ElapsedSeconds();
        }
        {
          Span span(tracer, "pack.write");
          kondo::PackOptions options;
          options.jobs = kJobs;
          kondo::StatusOr<kondo::PackStats> stats =
              kondo::WriteKdpFile(out.kdp_path, *out.debloated, options);
          ok = ok && stats.ok();
          if (stats.ok()) {
            out.pack = *stats;
          }
          write_s += span.ElapsedSeconds();
        }
        seconds += root.ElapsedSeconds();
      }
      results.Count(ok && out.run.fuzz.status.ok(),
                    input.name + ": campaign failed " +
                        out.run.fuzz.status.ToString());
      totals.Add(out.run);
      std::fprintf(stderr,
                   "%s: fuzz %.3f s (%d tests, %lld events so far), carve "
                   "%.3f s, rasterize %.3f s, pass wall so far %.3f s\n",
                   input.name.c_str(), out.run.fuzz_s,
                   out.run.fuzz.stats.evaluations,
                   static_cast<long long>(probe.events()), out.run.carve_s,
                   out.run.rasterize_s, seconds);
      lineage_bytes += FileBytes(out.kel2_path);
      kdp_bytes += FileBytes(out.kdp_path);
      kdf_bytes += FileBytes(input.kdf_path);
      pack_totals.hole_chunks += out.pack.hole_chunks;
      pack_totals.coded_chunks += out.pack.coded_chunks;
      pack_totals.raw_chunks += out.pack.raw_chunks;
      pack_totals.decoded_bytes += out.pack.decoded_bytes;
      accuracy.Add(input.program->GroundTruth(), out.run.approx);
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
      CheckOutputs(inputs[i], outputs[i], args.seed, results);
      std::remove(outputs[i].kel2_path.c_str());
      std::remove(outputs[i].kdp_path.c_str());
    }
    accuracy.EndPass();
    if (traced) {
      traced_s = seconds;
      const std::vector<SpanRecord> spans = tracer.Spans();
      SetCampaignLayerMetrics(results, totals, probe, spans, kJobs,
                              /*audited=*/true);
      results.Set("provenance.persist_s", persist.seconds);
      results.Set("provenance.persist_share",
                  totals.fuzz_wall_s > 0 ? persist.seconds / totals.fuzz_wall_s
                                         : 0.0);
      results.Set("provenance.bytes_per_event",
                  persist.events > 0 ? static_cast<double>(lineage_bytes) /
                                           static_cast<double>(persist.events)
                                     : 0.0);
      results.Set("provenance.close_s", close_s);
      results.Set("provenance.lineage_bytes",
                  static_cast<double>(lineage_bytes));
      results.Set("array.kdf_read_s", read_s);
      results.Set("array.package_s", package_s);
      results.Set("pack.write_s", write_s);
      results.Set("pack.write_mb_per_s",
                  write_s > 0 ? static_cast<double>(pack_totals.decoded_bytes) /
                                    1e6 / write_s
                              : 0.0);
      results.Set("pack.chunks_hole",
                  static_cast<double>(pack_totals.hole_chunks));
      results.Set("pack.chunks_coded",
                  static_cast<double>(pack_totals.coded_chunks));
      results.Set("pack.chunks_raw",
                  static_cast<double>(pack_totals.raw_chunks));
      results.Set("pack.kdp_bytes_ratio", static_cast<double>(kdp_bytes) /
                                              static_cast<double>(kdf_bytes));
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
    PrintTraceTables("debloat_2d", tracer.Spans(), "bench.campaign");
  }
  return 0;
}

}  // namespace kondo_bench
