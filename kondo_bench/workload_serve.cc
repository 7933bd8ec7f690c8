// serve_mixed: an in-process KondoServer (jobs 1) and 2 closed-loop
// KpcClient connections replaying a seeded stream of 90% fetch-subset and
// 10% query-provenance requests. Fetches read 256-element windows, drawn
// from a Zipf (s = 1) over the aligned windows of the KDP of LDC at
// n = 1024; the subset cache holds less than the window working set, so
// the head hits and the tail misses and evicts. Queries read the KEL2 of
// an audited LDC n = 256 campaign. Both artifacts are built in set-up.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "array/kdf_file.h"
#include "campaign_common.h"
#include "core/debloat_test.h"
#include "core/metrics.h"
#include "data_gen.h"
#include "exec/campaign_executor.h"
#include "fuzz/fuzz_schedule.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "provenance/persist.h"
#include "provenance/provenance_store.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/shard_campaign.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace kondo_bench {
namespace {

constexpr int kClients = 2;
constexpr double kFetchShare = 0.9;
constexpr double kZipfS = 1.0;
// Minimum passes, one seed set (request stream and lineage store) each:
// query cost follows the size of the seed's store, so the median is taken
// over three.
constexpr int kPasses = 3;

struct Sizes {
  int64_t pack_n;     // LDC extent of the served KDP.
  int64_t lineage_n;  // LDC extent of the audited campaign's KEL2.
  int64_t window;     // Elements per fetch.
  int requests;       // Requests per pass.
  int64_t cache_bytes;
  int64_t lineage_evals;  // Audited tests behind the KEL2 (fixed work).
};

Sizes SizesFor(const Args& args) {
  if (args.tiny) {
    return Sizes{128, 64, 64, 200, 16 << 10, 0};
  }
  return Sizes{512, 256, 256, 1200, 96 << 10, 1000};
}

struct Request {
  bool fetch = true;
  int64_t begin = 0;
  int64_t end = 0;
};

/// The request stream of one pass: a pure function of the seed.
std::vector<Request> MakeStream(const Sizes& sizes, int64_t elements,
                                int64_t kdf_payload_begin,
                                int64_t kdf_payload_bytes, uint64_t seed) {
  const int64_t windows = elements / sizes.window;
  SplitMix mix(seed);
  // Rank -> window: a seeded permutation, so hot windows are scattered.
  std::vector<int64_t> window_of_rank(static_cast<size_t>(windows));
  for (int64_t i = 0; i < windows; ++i) {
    window_of_rank[static_cast<size_t>(i)] = i;
  }
  for (int64_t i = windows - 1; i > 0; --i) {
    std::swap(window_of_rank[static_cast<size_t>(i)],
              window_of_rank[static_cast<size_t>(mix.Below(i + 1))]);
  }
  std::vector<double> cdf(static_cast<size_t>(windows));
  double total = 0.0;
  for (int64_t k = 0; k < windows; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    cdf[static_cast<size_t>(k)] = total;
  }
  const int64_t query_bytes = sizes.window * 8;
  const int64_t query_slots =
      std::max<int64_t>(1, kdf_payload_bytes / query_bytes);
  std::vector<Request> stream;
  for (int i = 0; i < sizes.requests; ++i) {
    Request request;
    request.fetch = mix.Unit() < kFetchShare;
    if (request.fetch) {
      const double u = mix.Unit() * total;
      const auto rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const int64_t window =
          window_of_rank[std::min(rank, window_of_rank.size() - 1)];
      request.begin = window * sizes.window;
      request.end = request.begin + sizes.window;
    } else {
      request.begin = kdf_payload_begin + mix.Below(query_slots) * query_bytes;
      request.end = request.begin + query_bytes;
    }
    stream.push_back(request);
  }
  return stream;
}

uint64_t HashStream(const std::vector<Request>& stream) {
  uint64_t hash = 1469598103934665603ull;
  for (const Request& request : stream) {
    const int64_t fields[3] = {request.fetch ? 1 : 0, request.begin,
                               request.end};
    hash = Fnv1a(fields, sizeof(fields), hash);
  }
  return hash;
}

/// Set-up products: the served artifacts and what the checks compare to.
struct Artifacts {
  std::string pool;
  std::string kdp_name = "ldc_pack.kdp";
  std::vector<std::string> kel2_names;  // One lineage store per seed set.
  int64_t elements = 0;
  int64_t kdf_payload_begin = 0;
  int64_t kdf_payload_bytes = 0;
  int64_t file_id = 1;
  kondo::ShardArtifactInfo fingerprint;
  std::unique_ptr<kondo::Program> program;  // The served KDP's program.
  kondo::IndexSet approx;                   // The served KDP's retained set.
  uint64_t input_hash = 0;
};

bool BuildArtifacts(const Args& args, const Sizes& sizes, int sets,
                    Artifacts* out) {
  out->pool = args.work_dir + "/pool";
  std::filesystem::create_directories(out->pool);

  // The fetch artifact: offset-mode pipeline, then package and pack.
  out->program = kondo::CreateProgram("LDC", sizes.pack_n);
  const kondo::Program* program = out->program.get();
  kondo::KondoConfig config = kondo::ScaledKondoConfig(program->data_shape());
  config.rng_seed = DeriveSeed(args.seed, "serve_mixed/campaign");
  config.jobs = kClients;
  const kondo::KondoResult result = kondo::KondoPipeline(config).Run(*program);
  out->approx = result.approx;
  const kondo::DataArray array = MakeFieldArray(
      program->data_shape(), DeriveSeed(args.seed, "serve_mixed/kdp_data"));
  const kondo::DebloatedArray debloated =
      kondo::PackageDebloated(array, result.approx);
  const std::string kdp_path = out->pool + "/" + out->kdp_name;
  kondo::StatusOr<kondo::PackStats> packed =
      kondo::WriteKdpFile(kdp_path, debloated);
  if (!packed.ok()) {
    std::fprintf(stderr, "kondo_bench: %s\n",
                 packed.status().ToString().c_str());
    return false;
  }
  out->elements = program->data_shape().NumElements();
  kondo::StatusOr<kondo::ShardArtifactInfo> info =
      kondo::HashFileArtifact(kdp_path);
  if (!info.ok()) {
    return false;
  }
  out->fingerprint = *info;

  // The query artifacts: audited campaigns' lineage, sealed as KEL2.
  const std::unique_ptr<kondo::Program> audited =
      kondo::CreateProgram("LDC", sizes.lineage_n);
  const std::string kdf_path = args.work_dir + "/lineage.kdf";
  if (!WriteChunkedKdf(kdf_path,
                       MakeFieldArray(audited->data_shape(),
                                      DeriveSeed(args.seed,
                                                 "serve_mixed/kdf_data")))) {
    return false;
  }
  kondo::StatusOr<kondo::KdfReader> kdf = kondo::KdfReader::Open(kdf_path);
  if (!kdf.ok()) {
    return false;
  }
  out->kdf_payload_begin = kdf->payload_offset();
  out->kdf_payload_bytes = kdf->FileBytes() - kdf->payload_offset();
  out->input_hash = Fnv1a(&out->fingerprint.lineage_crc,
                          sizeof(out->fingerprint.lineage_crc));
  for (int set = 0; set < sets; ++set) {
    const std::string name = "ldc_lineage-" + std::to_string(set) + ".kel2";
    const std::string kel2_path = out->pool + "/" + name;
    kondo::StatusOr<kondo::CampaignLineageSink> sink =
        kondo::CampaignLineageSink::Create(kel2_path);
    if (!sink.ok()) {
      return false;
    }
    kondo::KondoConfig audited_config =
        kondo::ScaledKondoConfig(audited->data_shape());
    audited_config.rng_seed =
        SetSeed(args, "serve_mixed/lineage", set);
    audited_config.jobs = kClients;
    audited_config.fuzz.max_evals = sizes.lineage_evals;
    kondo::ResultCollector collector(audited->data_shape(),
                                     sink->persister());
    kondo::CampaignExecutor executor(kClients);
    kondo::FuzzSchedule schedule(audited->param_space(),
                                 audited->data_shape(), audited_config.fuzz,
                                 audited_config.rng_seed);
    const kondo::FuzzResult fuzz = schedule.Run(
        executor, kondo::MakeAuditedCandidateTest(*audited, kdf_path),
        &collector);
    if (!fuzz.status.ok() || !sink->Close().ok()) {
      return false;
    }
    const uint64_t store_hash = HashFile(kel2_path);
    out->input_hash = Fnv1a(&store_hash, sizeof(store_hash), out->input_hash);
    out->kel2_names.push_back(name);
  }
  return true;
}

/// One client's share of a pass: every kClients-th request of the stream.
struct ClientLog {
  std::vector<double> fetch_us;
  std::vector<double> query_us;
  std::vector<double> all_us;
  std::vector<kondo::FetchSubsetResponse> fetches;  // Stream order.
  std::vector<std::pair<size_t, int64_t>> queries;  // (request, events).
  std::vector<size_t> fetch_index;                  // Request of fetches[i].
};

void RunClient(const kondo::SocketAddress& address, const Artifacts& artifacts,
               const std::string& store, const std::vector<Request>& stream,
               int client, Tracer& tracer, uint64_t parent, Results& results,
               ClientLog* log) {
  kondo::StatusOr<std::unique_ptr<kondo::KpcClient>> conn =
      kondo::KpcClient::Connect(address);
  if (!conn.ok()) {
    results.Count(false, "connect: " + conn.status().ToString());
    return;
  }
  for (size_t i = static_cast<size_t>(client); i < stream.size();
       i += kClients) {
    const Request& request = stream[i];
    const int64_t start = NowNanos();
    if (request.fetch) {
      kondo::FetchSubsetRequest fetch;
      fetch.artifact = artifacts.kdp_name;
      fetch.begin = request.begin;
      fetch.end = request.end;
      kondo::StatusOr<kondo::FetchSubsetResponse> response = [&] {
        Span span(tracer, "serve.fetch", parent);
        return (*conn)->FetchSubset(fetch);
      }();
      const double us = static_cast<double>(NowNanos() - start) * 1e-3;
      results.Count(response.ok(), "fetch: " + response.status().ToString());
      if (response.ok()) {
        log->fetch_us.push_back(us);
        log->all_us.push_back(us);
        log->fetches.push_back(*std::move(response));
        log->fetch_index.push_back(i);
      }
    } else {
      kondo::QueryRequest query;
      query.store = store;
      query.file_id = artifacts.file_id;
      query.begin = request.begin;
      query.end = request.end;
      kondo::StatusOr<kondo::QueryResult> response = [&] {
        Span span(tracer, "serve.query", parent);
        return (*conn)->QueryProvenance(query);
      }();
      const double us = static_cast<double>(NowNanos() - start) * 1e-3;
      results.Count(response.ok(), "query: " + response.status().ToString());
      if (response.ok()) {
        log->query_us.push_back(us);
        log->all_us.push_back(us);
        const bool consistent = response->done.events_total ==
                                static_cast<int64_t>(response->events.size());
        log->queries.emplace_back(
            i, consistent ? response->done.events_total : -1);
      }
    }
  }
}

bool SameValues(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * 8) == 0);
}

}  // namespace

int RunServeMixed(const Args& args, Tracer& tracer, Results& results) {
  const Sizes sizes = SizesFor(args);
  Artifacts artifacts;
  bool setup_ok = true;
  AccuracyTally accuracy;  // Of the served KDP's retained set.
  const int sets = args.trace ? 1 : kPasses;
  TimeSetup(
      results, 3,
      [&](int) {
        std::error_code ec;
        std::filesystem::remove_all(args.work_dir + "/pool", ec);
        artifacts = Artifacts{};
        setup_ok = setup_ok && BuildArtifacts(args, sizes, sets, &artifacts);
      },
      [&] {
        if (artifacts.program != nullptr) {
          accuracy.Add(artifacts.program->GroundTruth(), artifacts.approx);
          accuracy.EndPass();
        }
      });
  if (!setup_ok) {
    return 1;
  }
  const std::string kdp_path = artifacts.pool + "/" + artifacts.kdp_name;
  auto kel2_path = [&](int set) {
    return artifacts.pool + "/" +
           artifacts.kel2_names[static_cast<size_t>(set)];
  };

  // Direct handles: the reference every served byte is checked against.
  std::vector<std::unique_ptr<kondo::ProvenanceStore>> stores;
  for (int set = 0; set < sets; ++set) {
    kondo::StatusOr<std::unique_ptr<kondo::ProvenanceStore>> store =
        kondo::ProvenanceStore::Open(kel2_path(set));
    if (!store.ok()) {
      return 1;
    }
    stores.push_back(*std::move(store));
  }
  {
    kondo::StatusOr<kondo::Kel2Reader> reader =
        kondo::Kel2Reader::Open(kel2_path(0));
    if (!reader.ok() || reader->NumBlocks() == 0) {
      return 1;
    }
    kondo::StatusOr<std::vector<kondo::Event>> first = reader->DecodeBlock(0);
    if (!first.ok() || first->empty()) {
      return 1;
    }
    artifacts.file_id = first->front().id.file_id;
  }
  auto stream_for = [&](int set) {
    return MakeStream(sizes, artifacts.elements, artifacts.kdf_payload_begin,
                      artifacts.kdf_payload_bytes,
                      SetSeed(args, "serve_mixed/stream", set));
  };
  if (args.inputs_only) {
    uint64_t hash = artifacts.input_hash;
    for (int set = 0; set < sets; ++set) {
      const uint64_t stream_hash = HashStream(stream_for(set));
      hash = Fnv1a(&stream_hash, sizeof(stream_hash), hash);
    }
    PrintInputsHash(args, hash);
    return 0;
  }

  kondo::ServeOptions options;
  options.address.unix_path = args.work_dir + "/serve.sock";
  options.pool_root = artifacts.pool;
  options.jobs = 1;
  options.cache_bytes = sizes.cache_bytes;
  const kondo::PackReadOptions read_options;
  if (!CheckModelOff(&options, &read_options, nullptr)) {
    return 1;
  }
  kondo::KondoServer server(options);
  if (kondo::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "kondo_bench: serve: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::vector<double> pass_seconds;
  double untraced_rps = 0.0;
  double traced_rps = 0.0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const int64_t start = NowNanos();
  for (int pass = 0; MorePasses(args, pass, start, kPasses); ++pass) {
    const bool traced = args.trace && pass == 1;
    tracer.set_enabled(traced);
    const int set = SeedPass(args, pass, sets);
    const std::vector<Request> stream = stream_for(set);
    const std::string& store_name =
        artifacts.kel2_names[static_cast<size_t>(set)];
    kondo::ServeStatsSnapshot before;
    {
      Span span(tracer, "serve.stats");
      before = server.Stats();
    }
    std::vector<ClientLog> logs(kClients);
    double seconds = 0.0;
    {
      Span root(tracer, "bench.campaign");
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back(RunClient, std::cref(server.bound_address()),
                             std::cref(artifacts), std::cref(store_name),
                             std::cref(stream), c,
                             std::ref(tracer), root.id(), std::ref(results),
                             &logs[static_cast<size_t>(c)]);
      }
      for (std::thread& client : clients) {
        client.join();
      }
      seconds = root.ElapsedSeconds();
    }
    kondo::ServeStatsSnapshot after;
    {
      Span span(tracer, "serve.stats");
      after = server.Stats();
    }

    // Gates: each payload equals a direct ReadRange of the same window
    // under the same fingerprint; each query's event count equals a direct
    // ProvenanceStore query. The direct calls are timed for pack.* and
    // provenance.* (they are not part of the pass wall).
    std::vector<double> read_range_us;
    std::vector<double> direct_query_us;
    double open_us = 0.0;
    kondo::StatusOr<std::unique_ptr<kondo::PackReader>> reader = [&] {
      Span span(tracer, "pack.open");
      auto opened = kondo::PackReader::Open(kdp_path, read_options);
      open_us = span.ElapsedSeconds() * 1e6;
      return opened;
    }();
    if (!reader.ok()) {
      results.Count(false, "open KDP: " + reader.status().ToString(), true);
      break;
    }
    std::vector<double> fetch_us;
    std::vector<double> query_us;
    std::vector<double> all_us;
    for (const ClientLog& log : logs) {
      fetch_us.insert(fetch_us.end(), log.fetch_us.begin(), log.fetch_us.end());
      query_us.insert(query_us.end(), log.query_us.begin(), log.query_us.end());
      all_us.insert(all_us.end(), log.all_us.begin(), log.all_us.end());
      for (size_t f = 0; f < log.fetches.size(); ++f) {
        const kondo::FetchSubsetResponse& got = log.fetches[f];
        const Request& request = stream[log.fetch_index[f]];
        std::vector<uint8_t> present;
        std::vector<double> values;
        const int64_t t0 = NowNanos();
        kondo::Status status = [&] {
          Span span(tracer, "pack.read_range");
          return (*reader)->ReadRange(request.begin, request.end, &present,
                                      &values);
        }();
        read_range_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
        const bool same =
            status.ok() && got.begin == request.begin &&
            got.end == request.end &&
            got.fingerprint_bytes == artifacts.fingerprint.lineage_bytes &&
            got.fingerprint_crc == artifacts.fingerprint.lineage_crc &&
            got.present == present && SameValues(got.values, values);
        results.Count(same,
                      "fetch [" + std::to_string(request.begin) + "," +
                          std::to_string(request.end) +
                          ") differs from a direct ReadRange",
                      true);
      }
      for (const auto& [index, events] : log.queries) {
        const Request& request = stream[index];
        const int64_t t0 = NowNanos();
        kondo::StatusOr<std::vector<kondo::Event>> direct = [&] {
          Span span(tracer, "provenance.query");
          return stores[static_cast<size_t>(set)]->EventsOverlapping(
              artifacts.file_id, request.begin,
                                             request.end);
        }();
        direct_query_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
        results.Count(direct.ok() &&
                          static_cast<int64_t>(direct->size()) == events,
                      "query [" + std::to_string(request.begin) + "," +
                          std::to_string(request.end) +
                          ") event count differs from a direct query",
                      true);
      }
    }
    const double rps = static_cast<double>(all_us.size()) / seconds;
    if (traced) {
      traced_s = seconds;
      traced_rps = rps;
      const kondo::VerbLatency& fb = before.verbs[kondo::kVerbFetchSubset];
      const kondo::VerbLatency& fa = after.verbs[kondo::kVerbFetchSubset];
      const kondo::VerbLatency& qb = before.verbs[kondo::kVerbQuery];
      const kondo::VerbLatency& qa = after.verbs[kondo::kVerbQuery];
      const double fetch_server_us =
          fa.count > fb.count ? static_cast<double>(fa.total_micros -
                                                    fb.total_micros) /
                                    static_cast<double>(fa.count - fb.count)
                              : 0.0;
      const double query_server_us =
          qa.count > qb.count ? static_cast<double>(qa.total_micros -
                                                    qb.total_micros) /
                                    static_cast<double>(qa.count - qb.count)
                              : 0.0;
      const int64_t hits = after.cache_hits - before.cache_hits;
      const int64_t misses = after.cache_misses - before.cache_misses;
      results.Set("serve.fetch_p50_us", Quantile(fetch_us, 0.50));
      results.Set("serve.fetch_p99_us", Quantile(fetch_us, 0.99));
      results.Set("serve.query_p50_us", Quantile(query_us, 0.50));
      results.Set("serve.rps", rps);
      results.Set("serve.cache_hit_ratio",
                  hits + misses > 0 ? static_cast<double>(hits) /
                                          static_cast<double>(hits + misses)
                                    : 0.0);
      results.Set("serve.cache_evictions",
                  static_cast<double>(after.cache_evictions -
                                      before.cache_evictions));
      results.Set("serve.fetch_server_us_mean", fetch_server_us);
      results.Set("serve.query_server_us_mean", query_server_us);
      results.Set("serve.transport_us",
                  Quantile(fetch_us, 0.50) - fetch_server_us);
      results.Set("pack.open_us", open_us);
      results.Set("pack.read_range_us_p50", Quantile(read_range_us, 0.50));
      results.Set("pack.kdp_bytes_ratio",
                  static_cast<double>(FileBytes(kdp_path)) /
                      static_cast<double>(artifacts.elements * 8));
      results.Set("provenance.query_us_p50", Quantile(direct_query_us, 0.50));
      results.Set("provenance.lineage_bytes",
                  static_cast<double>(FileBytes(kel2_path(set))));
    } else {
      untraced_s = seconds;
      untraced_rps = rps;
      pass_seconds.push_back(seconds);
    }
  }
  tracer.set_enabled(false);
  server.Stop();

  results.Set("campaign_s", Median(pass_seconds));
  accuracy.Publish(results);
  if (args.trace) {
    // Traced versus untraced: pass wall time and request throughput.
    results.Set("trace.overhead_ratio", traced_s / untraced_s);
    std::printf("trace overhead: serve_rps untraced %.3f traced %.3f\n",
                untraced_rps, traced_rps);
    PrintTraceTables("serve_mixed", tracer.Spans(), "bench.campaign");
  }
  return 0;
}

}  // namespace kondo_bench
