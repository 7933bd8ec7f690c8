// Tests for the serve subsystem: the KPC wire codec, the fingerprint-keyed
// subset cache, ThreadPool job handles, and the daemon end-to-end over
// unix-domain and TCP sockets — including the cache's hit/miss byte
// identity, stale-fingerprint invalidation, campaign admission control,
// and clean shutdown with jobs still pending.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/index_set.h"
#include "common/socket.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "pack/pack_writer.h"
#include "provenance/crc32.h"
#include "provenance/kel2_format.h"
#include "provenance/kel2_reader.h"
#include "provenance/kel2_writer.h"
#include "provenance/provenance_query.h"
#include "provenance/provenance_store.h"
#include "serve/artifact_pool.h"
#include "serve/blast.h"
#include "serve/client.h"
#include "serve/kpc.h"
#include "serve/server.h"
#include "serve/subset_cache.h"

namespace kondo {
namespace {

// ---------------------------------------------------------------------------
// KPC codec.

TEST(KpcCodecTest, FetchSubsetRoundTrip) {
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 7;
  request.end = 123;
  auto decoded_request = FetchSubsetRequest::Decode(request.Encode());
  ASSERT_TRUE(decoded_request.ok()) << decoded_request.status();
  EXPECT_EQ(decoded_request->artifact, "main.kdp");
  EXPECT_EQ(decoded_request->begin, 7);
  EXPECT_EQ(decoded_request->end, 123);

  FetchSubsetResponse response;
  response.fingerprint_bytes = 1234;
  response.fingerprint_crc = 0xdeadbeef;
  response.begin = 7;
  response.end = 10;
  response.present = {1, 0, 1};
  response.values = {3.25, -0.5};
  auto decoded = FetchSubsetResponse::Decode(response.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->fingerprint_bytes, 1234);
  EXPECT_EQ(decoded->fingerprint_crc, 0xdeadbeefu);
  EXPECT_EQ(decoded->present, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_EQ(decoded->values, (std::vector<double>{3.25, -0.5}));
}

TEST(KpcCodecTest, EncodingIsDeterministic) {
  FetchSubsetResponse response;
  response.fingerprint_bytes = 99;
  response.begin = 0;
  response.end = 2;
  response.present = {1, 1};
  response.values = {1.0, 2.0};
  EXPECT_EQ(response.Encode(), response.Encode());

  std::string frame_a, frame_b;
  AppendKpcFrame(KpcKind::kFetchSubsetResponse, response.Encode(), &frame_a);
  AppendKpcFrame(KpcKind::kFetchSubsetResponse, response.Encode(), &frame_b);
  EXPECT_EQ(frame_a, frame_b);
}

TEST(KpcCodecTest, QueryAndSubmitRoundTrip) {
  QueryRequest query;
  query.store = "merged.kel2";
  query.file_id = 3;
  query.begin = 64;
  query.end = 4096;
  query.runs_only = 1;
  auto decoded_query = QueryRequest::Decode(query.Encode());
  ASSERT_TRUE(decoded_query.ok()) << decoded_query.status();
  EXPECT_EQ(decoded_query->store, "merged.kel2");
  EXPECT_EQ(decoded_query->file_id, 3);
  EXPECT_EQ(decoded_query->runs_only, 1);

  EventBatch batch;
  Event event;
  event.id.pid = 42;
  event.id.file_id = 3;
  event.type = EventType::kPread;
  event.offset = 512;
  event.size = 8;
  batch.events = {event, event};
  auto decoded_batch = EventBatch::Decode(batch.Encode());
  ASSERT_TRUE(decoded_batch.ok()) << decoded_batch.status();
  ASSERT_EQ(decoded_batch->events.size(), 2u);
  EXPECT_EQ(decoded_batch->events[1].id.pid, 42);
  EXPECT_EQ(decoded_batch->events[1].offset, 512);

  QueryDone done;
  done.events_total = 9;
  done.runs = {1, 5, 9};
  done.blocks_considered = 4;
  done.blocks_skipped = 3;
  done.blocks_decoded = 1;
  auto decoded_done = QueryDone::Decode(done.Encode());
  ASSERT_TRUE(decoded_done.ok()) << decoded_done.status();
  EXPECT_EQ(decoded_done->runs, (std::vector<int64_t>{1, 5, 9}));
  EXPECT_EQ(decoded_done->blocks_skipped, 3);

  SubmitRequest submit;
  submit.program = "CS";
  submit.seed = 11;
  submit.max_evals = 100;
  submit.max_iter = 50;
  auto decoded_submit = SubmitRequest::Decode(submit.Encode());
  ASSERT_TRUE(decoded_submit.ok()) << decoded_submit.status();
  EXPECT_EQ(decoded_submit->program, "CS");
  EXPECT_EQ(decoded_submit->seed, 11);

  SubmitResponse verdict;
  verdict.accepted = 1;
  verdict.job_id = 17;
  verdict.queue_depth = 2;
  verdict.message = "accepted";
  auto decoded_verdict = SubmitResponse::Decode(verdict.Encode());
  ASSERT_TRUE(decoded_verdict.ok()) << decoded_verdict.status();
  EXPECT_EQ(decoded_verdict->job_id, 17);
  EXPECT_EQ(decoded_verdict->message, "accepted");
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xF]);
  }
  return hex;
}

TEST(KpcCodecTest, EventBatchWireBytesArePinned) {
  // Recorded from the per-byte encoder the slice encoder replaced.
  const std::string kWire =
      "02000000"                                          // count
      "2a00000000000000" "0300000000000000" "02"          // pid file type
      "0002000000000000" "0800000000000000"               // offset size
      "ffffffffffffffff" "0700000000000000" "03"
      "0807060504030201" "feffffffffffffff";
  std::vector<Event> events(2);
  events[0].id = EventId{42, 3};
  events[0].type = EventType::kPread;
  events[0].offset = 512;
  events[0].size = 8;
  events[1].id = EventId{-1, 7};
  events[1].type = EventType::kMmap;
  events[1].offset = 0x0102030405060708;
  events[1].size = -2;
  EventBatch batch;
  batch.events = events;
  EXPECT_EQ(Hex(batch.Encode()), kWire);
  EXPECT_EQ(Hex(EncodeEventBatch(events.data(), events.size())), kWire);
  // A slice encodes as the batch of just that slice.
  EventBatch tail;
  tail.events = {events[1]};
  EXPECT_EQ(EncodeEventBatch(events.data() + 1, 1), tail.Encode());
  EXPECT_EQ(EncodeEventBatch(events.data(), 0), EventBatch().Encode());
}

TEST(KpcCodecTest, StatsRoundTrip) {
  ServeStatsSnapshot stats;
  stats.cache_hits = 10;
  stats.cache_misses = 2;
  stats.campaigns_completed = 5;
  stats.packs_open = 1;
  stats.packs_reopened = 2;
  stats.fingerprint_hashes = 3;
  stats.verbs[kVerbFetchSubset].count = 12;
  stats.verbs[kVerbFetchSubset].total_micros = 3400;
  stats.verbs[kVerbFetchSubset].max_micros = 900;
  stats.verbs[kVerbFetchSubset].buckets[10] = 12;
  stats.store_index_bytes = 123456789;
  auto decoded = ServeStatsSnapshot::Decode(stats.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cache_hits, 10);
  EXPECT_EQ(decoded->campaigns_completed, 5);
  EXPECT_EQ(decoded->packs_open, 1);
  EXPECT_EQ(decoded->packs_reopened, 2);
  EXPECT_EQ(decoded->fingerprint_hashes, 3);
  EXPECT_EQ(decoded->verbs[kVerbFetchSubset].count, 12);
  EXPECT_EQ(decoded->verbs[kVerbFetchSubset].buckets[10], 12);
  EXPECT_EQ(decoded->store_index_bytes, 123456789);
}

TEST(KpcCodecTest, ErrorCarriesStatus) {
  const Status original = NotFoundError("no such artifact");
  const KpcError error = KpcError::FromStatus(original);
  auto decoded = KpcError::Decode(error.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const Status round_tripped = decoded->ToStatus();
  EXPECT_EQ(round_tripped.code(), StatusCode::kNotFound);
  EXPECT_EQ(round_tripped.message(), "no such artifact");
}

TEST(KpcCodecTest, DecodeRejectsTruncatedPayload) {
  FetchSubsetRequest request;
  request.artifact = "a.kdp";
  const std::string payload = request.Encode();
  const auto truncated =
      FetchSubsetRequest::Decode(std::string_view(payload).substr(
          0, payload.size() - 1));
  EXPECT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  // Trailing junk is rejected too: a payload must decode exactly.
  const auto padded = FetchSubsetRequest::Decode(payload + "x");
  EXPECT_FALSE(padded.ok());
}

// A connected socket pair for exercising the frame layer without a server.
struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = std::make_unique<Connection>(fds[0]);
    b = std::make_unique<Connection>(fds[1]);
  }
  std::unique_ptr<Connection> a;
  std::unique_ptr<Connection> b;
};

TEST(KpcFrameTest, WriteReadRoundTrip) {
  SocketPair pair;
  ASSERT_TRUE(
      WriteKpcFrame(*pair.a, KpcKind::kStatsRequest, "payload!").ok());
  auto frame = ReadKpcFrame(*pair.b);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->kind, KpcKind::kStatsRequest);
  EXPECT_EQ(frame->payload, "payload!");
}

TEST(KpcFrameTest, DetectsCorruption) {
  SocketPair pair;
  std::string frame;
  AppendKpcFrame(KpcKind::kStatsRequest, "payload!", &frame);
  frame[kKpcHeaderBytes] ^= 0x01;  // Flip one payload bit.
  ASSERT_TRUE(pair.a->WriteFully(frame.data(), frame.size()).ok());
  auto read = ReadKpcFrame(*pair.b);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST(KpcFrameTest, RejectsBadMagic) {
  SocketPair pair;
  std::string frame;
  AppendKpcFrame(KpcKind::kStatsRequest, "", &frame);
  frame[0] = 'X';
  ASSERT_TRUE(pair.a->WriteFully(frame.data(), frame.size()).ok());
  auto read = ReadKpcFrame(*pair.b);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST(KpcFrameTest, CleanEofIsOutOfRange) {
  SocketPair pair;
  pair.a->ShutdownWrite();
  auto read = ReadKpcFrame(*pair.b);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Subset cache.

SubsetKey MakeKey(const std::string& artifact, int64_t begin, int64_t end) {
  SubsetKey key;
  key.artifact = artifact;
  key.fingerprint_bytes = 100;
  key.fingerprint_crc = 0xabcd;
  key.begin = begin;
  key.end = end;
  return key;
}

// GetOrFill with a fill that returns `payload`; `fills` counts the fills
// that actually ran.
std::shared_ptr<const std::string> Fetch(SubsetCache& cache,
                                         const SubsetKey& key,
                                         const std::string& payload,
                                         int* fills) {
  auto result = cache.GetOrFill(key, [&]() -> StatusOr<std::string> {
    ++*fills;
    return payload;
  });
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *result : nullptr;
}

TEST(SubsetCacheTest, HitReturnsIdenticalBytes) {
  SubsetCache cache(1 << 20);
  const SubsetKey key = MakeKey("a.kdp", 0, 64);
  int fills = 0;
  auto inserted = Fetch(cache, key, "the exact payload", &fills);
  auto hit = Fetch(cache, key, "a different payload", &fills);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(*hit, "the exact payload");
  EXPECT_EQ(hit.get(), inserted.get());  // Same object, not a copy.
  const SubsetCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(SubsetCacheTest, EvictionIsDeterministicLru) {
  // Capacity fits exactly two 8-byte payloads.
  SubsetCache cache(16);
  int fills = 0;
  Fetch(cache, MakeKey("a.kdp", 0, 1), "11111111", &fills);
  Fetch(cache, MakeKey("a.kdp", 1, 2), "22222222", &fills);
  // Touch the first entry so the second becomes least recently used.
  Fetch(cache, MakeKey("a.kdp", 0, 1), "11111111", &fills);
  EXPECT_EQ(fills, 2);
  Fetch(cache, MakeKey("a.kdp", 2, 3), "33333333", &fills);
  const SubsetCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.bytes, 16);
  Fetch(cache, MakeKey("a.kdp", 0, 1), "11111111", &fills);  // Kept (MRU).
  Fetch(cache, MakeKey("a.kdp", 2, 3), "33333333", &fills);  // Inserted.
  EXPECT_EQ(fills, 3);
  Fetch(cache, MakeKey("a.kdp", 1, 2), "22222222", &fills);  // Evicted (LRU).
  EXPECT_EQ(fills, 4);
}

TEST(SubsetCacheTest, OversizedEntryIsServedNotCached) {
  SubsetCache cache(4);
  int fills = 0;
  auto value = Fetch(cache, MakeKey("a.kdp", 0, 1), "way too large", &fills);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, "way too large");
  EXPECT_EQ(cache.stats().entries, 0);
  Fetch(cache, MakeKey("a.kdp", 0, 1), "way too large", &fills);
  EXPECT_EQ(fills, 2);  // Never cached, so filled again.
}

TEST(SubsetCacheTest, ConcurrentMissesShareOneFill) {
  constexpr int kThreads = 8;
  SubsetCache cache(1 << 20);
  const SubsetKey key = MakeKey("a.kdp", 0, 64);
  std::atomic<int> fills{0};
  const SubsetCache::FillFn slow_fill = [&fills]() -> StatusOr<std::string> {
    ++fills;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::string("the one payload");
  };
  std::vector<std::shared_ptr<const std::string>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto payload = cache.GetOrFill(key, slow_fill);
      ASSERT_TRUE(payload.ok()) << payload.status();
      results[static_cast<size_t>(t)] = *payload;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Whether a thread arrived mid-fill (and waited) or after it (a plain
  // hit), exactly one load ran and every caller holds its bytes.
  EXPECT_EQ(fills.load(), 1);
  for (const auto& result : results) {
    EXPECT_EQ(result.get(), results[0].get());
  }
  const SubsetCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.insertions, 1);
}

TEST(SubsetCacheTest, FailedFillCachesNothing) {
  SubsetCache cache(1 << 20);
  const SubsetKey key = MakeKey("a.kdp", 0, 64);
  auto failed = cache.GetOrFill(
      key, []() -> StatusOr<std::string> { return DataLossError("bad"); });
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(cache.stats().entries, 0);
  auto filled = cache.GetOrFill(
      key, []() -> StatusOr<std::string> { return std::string("ok"); });
  ASSERT_TRUE(filled.ok()) << filled.status();
  EXPECT_EQ(**filled, "ok");
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(SubsetCacheTest, EvictStaleDropsOnlyChangedFingerprints) {
  SubsetCache cache(1 << 20);
  SubsetKey stale = MakeKey("a.kdp", 0, 64);
  stale.fingerprint_crc = 0x1111;
  SubsetKey fresh = MakeKey("a.kdp", 0, 64);
  fresh.fingerprint_crc = 0x2222;
  const SubsetKey other = MakeKey("b.kdp", 0, 64);
  int fills = 0;
  Fetch(cache, stale, "old bytes", &fills);
  Fetch(cache, other, "unrelated", &fills);
  EXPECT_EQ(cache.stats().stale_evictions, 0);
  // A miss under the artifact's new fingerprint sweeps the old entry.
  Fetch(cache, fresh, "new bytes", &fills);
  const SubsetCacheStats stats = cache.stats();
  EXPECT_EQ(stats.stale_evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  Fetch(cache, fresh, "new bytes", &fills);
  Fetch(cache, other, "unrelated", &fills);
  EXPECT_EQ(fills, 3);  // Both survivors hit.
}

// ---------------------------------------------------------------------------
// ThreadPool job handles.

TEST(JobHandleTest, ReportsCompletionAndWaits) {
  ThreadPool pool(2);
  Mutex mu;
  int ran = 0;
  JobHandle job = pool.SubmitJob([&] {
    MutexLock lock(mu);
    ++ran;
  });
  ASSERT_TRUE(job.valid());
  job.Wait();
  EXPECT_TRUE(job.done());
  MutexLock lock(mu);
  EXPECT_EQ(ran, 1);
}

TEST(JobHandleTest, DefaultHandleIsDoneAndInvalid) {
  JobHandle job;
  EXPECT_FALSE(job.valid());
  EXPECT_TRUE(job.done());
  job.Wait();  // Must not block.
}

// ---------------------------------------------------------------------------
// Artifact pool.

TEST(ArtifactPoolTest, RejectsFilesystemAddressing) {
  ArtifactPool pool("/pool", 1 << 20);
  EXPECT_EQ(pool.ResolvePath("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.ResolvePath("/etc/passwd").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.ResolvePath("../secret.kdp").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.ResolvePath("sub/../../x.kdp").status().code(),
            StatusCode::kInvalidArgument);
  auto fine = pool.ResolvePath("sub/main.kdp");
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(*fine, "/pool/sub/main.kdp");
  // A dot-prefixed name is not a traversal.
  EXPECT_TRUE(pool.ResolvePath(".hidden.kdp").ok());
}

// ---------------------------------------------------------------------------
// End-to-end daemon tests.

/// The 8x8 debloated array the pool fixtures serve: FillPattern(seed) with
/// every fourth element retained.
DebloatedArray MakePoolArray(uint64_t seed) {
  DataArray data(Shape({8, 8}));
  data.FillPattern(seed);
  IndexSet retained(data.shape());
  for (int64_t linear = 0; linear < 64; linear += 4) {
    retained.InsertLinear(linear);
  }
  return DebloatedArray::FromDataArray(data, retained);
}

/// Packs the pool array as a `.kdp` package.
void WritePoolPack(const std::string& path, uint64_t seed) {
  const StatusOr<PackStats> stats = WriteKdpFile(path, MakePoolArray(seed));
  ASSERT_TRUE(stats.ok()) << stats.status();
}

/// Writes a KEL2 store with `events` positioned reads, 4 events per block,
/// pid cycling 0..3, offsets marching 8 bytes at a time.
void WritePoolStore(const std::string& path, int64_t events) {
  Kel2WriterOptions options;
  options.events_per_block = 4;
  auto writer = Kel2Writer::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int64_t i = 0; i < events; ++i) {
    Event event;
    event.id.pid = i % 4;
    event.id.file_id = 1;
    event.type = EventType::kPread;
    event.offset = i * 8;
    event.size = 8;
    ASSERT_TRUE(writer->Append(event).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

class ServeTest : public ::testing::Test {
 protected:
  /// Starts a daemon over a fresh pool dir on a unix socket.
  void StartServer(ServeOptions options) {
    pool_root_ = ::testing::TempDir() + "/serve_pool_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name();
    std::remove((pool_root_ + "/main.kdp").c_str());
    std::remove((pool_root_ + "/trace.kel2").c_str());
    mkdir(pool_root_.c_str(), 0755);
    WritePoolPack(pool_root_ + "/main.kdp", /*seed=*/7);
    WritePoolStore(pool_root_ + "/trace.kel2", /*events=*/20);
    options.address.unix_path = pool_root_ + "/kondo.sock";
    options.pool_root = pool_root_;
    server_ = std::make_unique<KondoServer>(options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<KpcClient> Client() {
    auto client = KpcClient::Connect(server_->bound_address());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::string pool_root_;
  std::unique_ptr<KondoServer> server_;
};

TEST_F(ServeTest, CacheHitIsByteIdenticalToMiss) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto miss = client->FetchSubsetRaw(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  auto hit = client->FetchSubsetRaw(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(*miss, *hit);  // Bit-identical raw frames.

  // Read stats over the same connection: the session thread serves the
  // stats verb strictly after the previous dispatch (including its
  // latency recording) finished, so the counters are settled.
  const StatusOr<ServeStatsSnapshot> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->cache_misses, 1);
  EXPECT_EQ(stats->cache_hits, 1);
  EXPECT_EQ(stats->verbs[kVerbFetchSubset].count, 2);

  // Decoded content matches the artifact: retained elements present.
  auto decoded = client->FetchSubset(request);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->present.size(), 64u);
  EXPECT_EQ(decoded->values.size(), 16u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(decoded->present[i] != 0, i % 4 == 0) << "element " << i;
  }
  server_->Stop();
}

TEST_F(ServeTest, RewrittenArtifactInvalidatesCache) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto before = client->FetchSubset(request);
  ASSERT_TRUE(before.ok()) << before.status();

  // Rewrite the pool file with different content.
  WritePoolPack(pool_root_ + "/main.kdp", /*seed=*/99);
  auto after = client->FetchSubset(request);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(before->fingerprint_crc, after->fingerprint_crc);
  EXPECT_NE(before->values, after->values);

  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.cache_stale_evictions, 1);
  server_->Stop();
}

// ---------------------------------------------------------------------------
// Packed (.kdp) artifacts through the pool and the daemon.

TEST(ArtifactPoolPackTest, PackHitReturnsIdenticalBytesToMiss) {
  const std::string root = ::testing::TempDir() + "/pack_pool_hit";
  mkdir(root.c_str(), 0755);
  WritePoolPack(root + "/main.kdp", /*seed=*/7);
  ArtifactPool pool(root, 1 << 20);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto miss = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  auto hit = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(**miss, **hit);
  EXPECT_EQ(miss->get(), hit->get());  // The very same cached string.
  EXPECT_EQ(pool.cache_stats().misses, 1);
  EXPECT_EQ(pool.cache_stats().hits, 1);
  EXPECT_EQ(pool.packs_open(), 1);

  // Decoded content matches the array that was packed: every fourth
  // element present.
  auto decoded = FetchSubsetResponse::Decode(**hit);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->present.size(), 64u);
  EXPECT_EQ(decoded->values.size(), 16u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(decoded->present[i] != 0, i % 4 == 0) << "element " << i;
  }
}

TEST(ArtifactPoolPackTest, RepackEvictsStaleCachedSlices) {
  const std::string root = ::testing::TempDir() + "/pack_pool_repack";
  mkdir(root.c_str(), 0755);
  const std::string path = root + "/main.kdp";
  WritePoolPack(path, /*seed=*/7);
  ArtifactPool pool(root, 1 << 20);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto before = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(before.ok()) << before.status();

  // Repack in place with different content: both the whole-file
  // fingerprint and the pack fingerprint (manifest CRC) change, so the
  // cached slice must be unreachable AND swept as stale, and the pooled
  // PackReader must be reopened.
  const StatusOr<PackStats> repacked =
      RepackKdpFile(path, path, MakePoolArray(/*seed=*/99));
  ASSERT_TRUE(repacked.ok()) << repacked.status();

  auto after = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(**before, **after);
  EXPECT_EQ(pool.cache_stats().hits, 0);
  EXPECT_EQ(pool.cache_stats().misses, 2);
  EXPECT_EQ(pool.cache_stats().stale_evictions, 1);
  EXPECT_EQ(pool.packs_reopened(), 1);

  auto decoded_before = FetchSubsetResponse::Decode(**before);
  auto decoded_after = FetchSubsetResponse::Decode(**after);
  ASSERT_TRUE(decoded_before.ok() && decoded_after.ok());
  EXPECT_NE(decoded_before->values, decoded_after->values);

  // Post-repack hits are byte-identical to the post-repack miss.
  auto again = pool.FetchSubsetPayload(request);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(after->get(), again->get());
  EXPECT_EQ(pool.cache_stats().hits, 1);
}

TEST_F(ServeTest, PackedArtifactServesOverTheWire) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);

  // The served slice is exactly the D_Θ that was packed, element for
  // element.
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 64;
  auto packed = client->FetchSubset(request);
  ASSERT_TRUE(packed.ok()) << packed.status();
  const DebloatedArray expected = MakePoolArray(/*seed=*/7);
  ASSERT_EQ(packed->present.size(), 64u);
  size_t value_pos = 0;
  for (int64_t linear = 0; linear < 64; ++linear) {
    const StatusOr<double> value =
        expected.At(expected.shape().Delinearize(linear));
    ASSERT_EQ(packed->present[static_cast<size_t>(linear)] != 0, value.ok())
        << "element " << linear;
    if (value.ok()) {
      ASSERT_LT(value_pos, packed->values.size());
      EXPECT_EQ(packed->values[value_pos++], *value) << "element " << linear;
    }
  }
  EXPECT_EQ(value_pos, packed->values.size());

  // And raw hit/miss byte-identity holds for the packed path too.
  auto raw_miss = client->FetchSubsetRaw(request);
  auto raw_hit = client->FetchSubsetRaw(request);
  ASSERT_TRUE(raw_miss.ok() && raw_hit.ok());
  EXPECT_EQ(*raw_miss, *raw_hit);
  server_->Stop();
}

TEST_F(ServeTest, FetchErrorsAreStatusCarrying) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "absent.kdp";
  request.end = 8;
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kNotFound);
  request.artifact = "../escape.kdp";
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kInvalidArgument);
  request.artifact = "main.kdp";
  request.begin = 0;
  request.end = 1 << 20;  // Past the 64-element shape.
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kOutOfRange);
  // A pool file that is not a KDP package is damaged input, and nothing
  // of it reaches the cache.
  {
    std::FILE* stray = std::fopen((pool_root_ + "/stray.kdf").c_str(), "wb");
    ASSERT_NE(stray, nullptr);
    std::fputs("KDF1 but not a package", stray);
    std::fclose(stray);
  }
  request.artifact = "stray.kdf";
  request.end = 8;
  EXPECT_EQ(client->FetchSubset(request).status().code(),
            StatusCode::kDataLoss);
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.cache_entries, 0);
  EXPECT_EQ(stats.cache_misses, 0);
  // The connection survives application errors.
  request.artifact = "main.kdp";
  EXPECT_TRUE(client->FetchSubset(request).ok());
  server_->Stop();
}

TEST_F(ServeTest, QueryStreamsBatchesAndTotals) {
  ServeOptions options;
  options.events_per_batch = 4;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  QueryRequest request;
  request.store = "trace.kel2";
  request.file_id = 1;
  request.begin = 0;
  request.end = 96;  // Events 0..11 overlap (offsets 0,8,...,88).
  auto result = client->QueryProvenance(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->done.events_total, 12);
  ASSERT_EQ(result->events.size(), 12u);  // 3 batches of 4, reassembled.
  for (size_t i = 0; i < result->events.size(); ++i) {
    EXPECT_EQ(result->events[i].offset, static_cast<int64_t>(i) * 8);
  }
  EXPECT_EQ(result->done.runs, (std::vector<int64_t>{0, 1, 2, 3}));
  // The store has 5 blocks (20 events, 4 per block); [0,96) needs 3,
  // all decoded into the store's offset index when it was opened.
  EXPECT_EQ(result->done.blocks_considered, 5);
  EXPECT_EQ(result->done.blocks_decoded, 0);
  EXPECT_EQ(result->done.blocks_skipped, 2);

  // runs_only suppresses the event stream but keeps the totals.
  request.runs_only = 1;
  auto runs = client->QueryProvenance(request);
  ASSERT_TRUE(runs.ok()) << runs.status();
  EXPECT_TRUE(runs->events.empty());
  EXPECT_EQ(runs->done.events_total, 12);
  EXPECT_EQ(runs->done.runs, (std::vector<int64_t>{0, 1, 2, 3}));
  // Block counters are per query, not the store's lifetime totals: the
  // repeat considers the same 5 blocks and decodes none.
  EXPECT_EQ(runs->done.blocks_considered, 5);
  EXPECT_EQ(runs->done.blocks_skipped, 2);
  EXPECT_EQ(runs->done.blocks_decoded, 0);
  server_->Stop();
}

TEST_F(ServeTest, StatsReportStoreIndexBytes) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  StatusOr<ServeStatsSnapshot> before = client->Stats();
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->store_index_bytes, 0);  // No store is open yet.

  QueryRequest request;
  request.store = "trace.kel2";
  request.end = 96;
  ASSERT_TRUE(client->QueryProvenance(request).ok());
  StatusOr<ServeStatsSnapshot> after = client->Stats();
  ASSERT_TRUE(after.ok()) << after.status();
  auto store = ProvenanceStore::Open(pool_root_ + "/trace.kel2");
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_GT((*store)->IndexBytes(), 0);
  EXPECT_EQ(after->stores_open, 1);
  EXPECT_EQ(after->store_index_bytes, (*store)->IndexBytes());
  server_->Stop();
}

TEST_F(ServeTest, ConcurrentQueriesOnOneStore) {
  StartServer(ServeOptions{});
  const std::string path = pool_root_ + "/wide.kel2";
  WritePoolStore(path, /*events=*/2000);
  // The reference: a store-order scan of the same file.
  StatusOr<Kel2Reader> reader = Kel2Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ProvenanceQuery scan(&*reader);
  struct Case {
    int64_t begin;
    int64_t end;
    std::vector<Event> want;
  };
  std::vector<Case> cases;
  for (int64_t i = 0; i < 64; ++i) {
    const int64_t begin = (i * 2477) % 16100 - 50;
    const int64_t end = begin + 1 + (i * 131) % 700;
    StatusOr<std::vector<Event>> want = scan.EventsOverlapping(1, begin, end);
    ASSERT_TRUE(want.ok()) << want.status();
    cases.push_back(Case{begin, end, *std::move(want)});
  }

  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = KpcClient::Connect(server_->bound_address());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      for (size_t k = 0; k < cases.size(); ++k) {
        // Each client walks the cases from a different start.
        const Case& query = cases[(k + static_cast<size_t>(c) * 16) %
                                  cases.size()];
        QueryRequest request;
        request.store = "wide.kel2";
        request.begin = query.begin;
        request.end = query.end;
        StatusOr<QueryResult> got = (*conn)->QueryProvenance(request);
        if (!got.ok()) {
          ++failures;
          continue;
        }
        bool same = got->events.size() == query.want.size() &&
                    got->done.events_total ==
                        static_cast<int64_t>(query.want.size());
        for (size_t e = 0; same && e < query.want.size(); ++e) {
          const Event& a = got->events[e];
          const Event& b = query.want[e];
          same = a.id == b.id && a.type == b.type && a.offset == b.offset &&
                 a.size == b.size;
        }
        if (!same) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // One pooled store served every client.
  EXPECT_EQ(server_->Stats().stores_open, 1);
  server_->Stop();
}

TEST_F(ServeTest, QueryOnNonKel2PoolFileIsDataLoss) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  // KEL2 is the only lineage store: any other pool file is damaged input,
  // and no handle for it enters the pool.
  const std::string stray_path = pool_root_ + "/stray.kel2";
  {
    std::FILE* stray = std::fopen(stray_path.c_str(), "wb");
    ASSERT_NE(stray, nullptr);
    std::fputs("JUNKJUNK not a lineage store", stray);
    std::fclose(stray);
  }
  QueryRequest query;
  query.store = "stray.kel2";
  query.file_id = 1;
  query.end = 96;
  const Status status = client->QueryProvenance(query).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find("not a KEL2 event store"),
            std::string::npos)
      << status;
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.stores_open, 0);
  EXPECT_EQ(stats.stores_reopened, 0);
  EXPECT_EQ(stats.cache_entries, 0);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 0);
  // The connection survives the error.
  query.store = "trace.kel2";
  EXPECT_TRUE(client->QueryProvenance(query).ok());
  server_->Stop();
  std::remove(stray_path.c_str());
}

TEST_F(ServeTest, QueryOnOverclaimingStoreIsDataLoss) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  // One block claiming 2^32-1 events in a 2-byte payload: the daemon
  // answers DATA_LOSS instead of sizing a decode by the claimed count.
  const std::string path = pool_root_ + "/overclaim.kel2";
  {
    const char payload[2] = {0, 0};
    char descriptor[kKel2DescriptorBytes] = {};
    const uint32_t payload_bytes = sizeof(payload);
    const uint32_t crc = Crc32(payload, sizeof(payload));
    const uint32_t event_count = 0xffffffffu;
    std::memcpy(descriptor, &payload_bytes, 4);
    std::memcpy(descriptor + 4, &crc, 4);
    std::memcpy(descriptor + 8, &event_count, 4);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(kKel2Magic, 1, 4, f);
    std::fwrite("\0\0\0\0", 1, 4, f);
    std::fwrite(descriptor, 1, sizeof(descriptor), f);
    std::fwrite(payload, 1, sizeof(payload), f);
    std::fclose(f);
  }
  QueryRequest query;
  query.store = "overclaim.kel2";
  query.file_id = 0;
  query.end = 96;
  const Status status = client->QueryProvenance(query).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_NE(status.message().find("4294967295 events"), std::string::npos)
      << status;
  EXPECT_EQ(server_->Stats().stores_open, 0);
  // The connection survives the error.
  query.store = "trace.kel2";
  query.file_id = 1;
  EXPECT_TRUE(client->QueryProvenance(query).ok());
  server_->Stop();
  std::remove(path.c_str());
}

TEST_F(ServeTest, SubmitRunsCampaignAndWritesLineage) {
  ServeOptions options;
  options.jobs = 2;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  request.seed = 5;
  request.max_iter = 30;
  auto response = client->SubmitCampaign(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->accepted, 1);
  EXPECT_EQ(response->job_id, 1);
  server_->Stop();  // Drains the job.

  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.campaigns_submitted, 1);
  EXPECT_EQ(stats.campaigns_completed, 1);
  EXPECT_EQ(stats.campaigns_failed, 0);
  EXPECT_EQ(stats.campaign_queue_depth, 0);
  EXPECT_EQ(stats.campaign_inflight, 0);
  EXPECT_GT(stats.lineage_bytes_written, 0);

  // The lineage store the job wrote is a queryable pool member.
  auto store = ProvenanceStore::Open(pool_root_ + "/job-1.kel2");
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_GT((*store)->NumEvents(), 0);
}

TEST_F(ServeTest, UnknownProgramIsNotFound) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "NO_SUCH_PROGRAM";
  EXPECT_EQ(client->SubmitCampaign(request).status().code(),
            StatusCode::kNotFound);
  server_->Stop();
}

TEST_F(ServeTest, ZeroQueueCapacityRejectsEverySubmit) {
  ServeOptions options;
  options.queue_capacity = 0;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  auto response = client->SubmitCampaign(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->accepted, 0);
  EXPECT_EQ(response->message, "queue full");
  EXPECT_EQ(server_->Stats().campaigns_rejected, 1);
  server_->Stop();
}

TEST_F(ServeTest, InflightCapRejectsThirdConcurrentSubmit) {
  ServeOptions options;
  options.jobs = 1;
  options.max_inflight = 2;
  // Long enough that neither job finishes while the submits race in.
  options.job_spin_micros = 500 * 1000;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  request.max_iter = 10;
  auto first = client->SubmitCampaign(request);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->accepted, 1);
  auto second = client->SubmitCampaign(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->accepted, 1);
  auto third = client->SubmitCampaign(request);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->accepted, 0);
  EXPECT_EQ(third->message, "session in-flight cap reached");
  server_->Stop();
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.campaigns_submitted, 2);
  EXPECT_EQ(stats.campaigns_rejected, 1);
  EXPECT_EQ(stats.campaigns_completed, 2);
}

TEST_F(ServeTest, StopWithPendingJobsDrainsEverything) {
  ServeOptions options;
  options.jobs = 1;
  options.max_inflight = 8;
  options.job_spin_micros = 50 * 1000;
  StartServer(options);
  auto client = Client();
  ASSERT_NE(client, nullptr);
  SubmitRequest request;
  request.program = "CS";
  request.max_iter = 10;
  for (int i = 0; i < 4; ++i) {
    auto response = client->SubmitCampaign(request);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->accepted, 1);
  }
  server_->Stop();  // Must wait for all four, not abandon them.
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.campaigns_submitted, 4);
  EXPECT_EQ(stats.campaigns_completed + stats.campaigns_failed, 4);
  EXPECT_EQ(stats.campaign_queue_depth, 0);
  EXPECT_EQ(stats.campaign_inflight, 0);
  EXPECT_EQ(stats.sessions_active, 0);
}

TEST_F(ServeTest, StatsVerbMatchesServerSnapshot) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest fetch;
  fetch.artifact = "main.kdp";
  fetch.end = 8;
  ASSERT_TRUE(client->FetchSubset(fetch).ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->cache_misses, 1);
  EXPECT_EQ(stats->sessions_accepted, 1);
  EXPECT_EQ(stats->sessions_active, 1);
  EXPECT_EQ(stats->verbs[kVerbFetchSubset].count, 1);
  EXPECT_GE(stats->verbs[kVerbFetchSubset].max_micros, 0);
  server_->Stop();
}

TEST_F(ServeTest, ProtocolGarbageDropsConnectionAndCounts) {
  StartServer(ServeOptions{});
  auto conn = NetEnv::Default()->Connect(server_->bound_address());
  ASSERT_TRUE(conn.ok()) << conn.status();
  const std::string garbage = "this is not a KPC frame at all....";
  ASSERT_TRUE((*conn)->WriteFully(garbage.data(), garbage.size()).ok());
  // The server drops the connection; the next read sees EOF.
  char byte = 0;
  EXPECT_FALSE((*conn)->ReadFully(&byte, 1).ok());
  server_->Stop();
  EXPECT_EQ(server_->Stats().protocol_errors, 1);
}

TEST_F(ServeTest, ServesOverTcpWithPortZero) {
  ServeOptions options;
  StartServer(options);
  server_->Stop();
  // Re-start on TCP: port 0 resolves to a real ephemeral port.
  ServeOptions tcp;
  tcp.address.port = 0;
  tcp.pool_root = pool_root_;
  KondoServer server(tcp);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.bound_address().unix_path.empty());
  EXPECT_GT(server.bound_address().port, 0);
  auto client = KpcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok()) << client.status();
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.end = 16;
  auto response = (*client)->FetchSubset(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->present.size(), 16u);
  server.Stop();
}

TEST_F(ServeTest, BlastSeesIdenticalResponsesAcrossClients) {
  StartServer(ServeOptions{});
  BlastOptions blast;
  blast.address = server_->bound_address();
  blast.artifact = "main.kdp";
  blast.clients = 4;
  blast.requests = 25;
  blast.begin = 0;
  blast.end = 64;
  auto report = RunBlast(blast);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->ok_requests, 100);
  EXPECT_EQ(report->failed_requests, 0);
  EXPECT_TRUE(report->responses_identical);
  EXPECT_GT(report->bytes_received, 0);
  server_->Stop();
  const ServeStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 100);
  EXPECT_EQ(stats.cache_misses, 1);  // One load, 99 identical hits.
}

// ---------------------------------------------------------------------------
// Pool revalidation: one stat() per request, one hash per settled open.

/// Sleeps until files written before the call are outside the pool's racy
/// window, so their stamps vouch for their bytes.
void WaitOutRacyWindow() {
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(ArtifactPool::kRacyWindowNanos) +
      std::chrono::milliseconds(250));
}

std::string ReadBytes(const std::string& path) {
  std::string bytes;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) bytes.append(buf, n);
  std::fclose(in);
  return bytes;
}

/// Overwrites `path` in place (same inode, no truncation) with a valid
/// package of a different array whose encoding has exactly the same size,
/// then puts the file's mtime back: only ctime records the change.
void RewriteInPlaceKeepingMtime(const std::string& path) {
  struct stat before = {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  const std::string old_bytes = ReadBytes(path);
  std::string new_bytes;
  const std::string scratch = path + ".candidate";
  for (uint64_t seed = 100; seed < 164 && new_bytes.empty(); ++seed) {
    WritePoolPack(scratch, seed);
    const std::string candidate = ReadBytes(scratch);
    if (candidate.size() == old_bytes.size() && candidate != old_bytes) {
      new_bytes = candidate;
    }
  }
  std::remove(scratch.c_str());
  ASSERT_FALSE(new_bytes.empty()) << "no same-size repack candidate";

  std::FILE* out = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(new_bytes.data(), 1, new_bytes.size(), out),
            new_bytes.size());
  ASSERT_EQ(std::fclose(out), 0);
  const struct timespec times[2] = {{0, UTIME_OMIT}, before.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);

  struct stat after = {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  ASSERT_EQ(after.st_ino, before.st_ino);
  ASSERT_EQ(after.st_size, before.st_size);
  ASSERT_EQ(after.st_mtim.tv_sec, before.st_mtim.tv_sec);
  ASSERT_EQ(after.st_mtim.tv_nsec, before.st_mtim.tv_nsec);
}

TEST_F(ServeTest, SettledPoolFilesAreHashedOncePerOpen) {
  StartServer(ServeOptions{});
  WaitOutRacyWindow();
  auto client = Client();
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 100; ++i) {
    FetchSubsetRequest fetch;
    fetch.artifact = "main.kdp";
    fetch.begin = (i % 8) * 8;  // 8 distinct windows: 8 misses, 92 hits.
    fetch.end = fetch.begin + 8;
    ASSERT_TRUE(client->FetchSubset(fetch).ok()) << "fetch " << i;
  }
  for (int i = 0; i < 10; ++i) {
    QueryRequest query;
    query.store = "trace.kel2";
    query.file_id = 1;
    query.begin = i * 8;
    query.end = query.begin + 16;
    ASSERT_TRUE(client->QueryProvenance(query).ok()) << "query " << i;
  }
  const StatusOr<ServeStatsSnapshot> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->cache_misses, 8);
  EXPECT_EQ(stats->cache_hits, 92);
  EXPECT_EQ(stats->fingerprint_hashes, 2);  // One per pool file.
  EXPECT_EQ(stats->packs_open, 1);
  EXPECT_EQ(stats->stores_open, 1);
  EXPECT_EQ(stats->packs_reopened, 0);
  EXPECT_EQ(stats->stores_reopened, 0);
  server_->Stop();
}

TEST_F(ServeTest, InPlaceRewriteWithRestoredMtimeIsDetected) {
  StartServer(ServeOptions{});
  WaitOutRacyWindow();
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.end = 64;
  auto before = client->FetchSubset(request);
  ASSERT_TRUE(before.ok()) << before.status();

  // The cached stamp is settled (not racy), and the rewrite keeps inode,
  // size and mtime: ctime is what must give it away.
  RewriteInPlaceKeepingMtime(pool_root_ + "/main.kdp");
  auto after = client->FetchSubset(request);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(before->fingerprint_crc, after->fingerprint_crc);
  EXPECT_NE(before->values, after->values);
  const StatusOr<ServeStatsSnapshot> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->fingerprint_hashes, 2);
  EXPECT_EQ(stats->packs_reopened, 1);
  EXPECT_EQ(stats->cache_misses, 2);
  EXPECT_EQ(stats->cache_stale_evictions, 1);
  server_->Stop();
}

TEST_F(ServeTest, RewriteInTheSameSecondIsCaughtByTheRacyRule) {
  const auto written = std::chrono::steady_clock::now();
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest request;
  request.artifact = "main.kdp";
  request.end = 64;
  auto first = client->FetchSubset(request);
  ASSERT_TRUE(first.ok()) << first.status();
  auto again = client->FetchSubset(request);
  ASSERT_TRUE(again.ok()) << again.status();
  StatusOr<ServeStatsSnapshot> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  if (std::chrono::steady_clock::now() - written < std::chrono::seconds(1)) {
    // The package was written moments ago, so its stamp is racy and the
    // unchanged file is hashed again on every request.
    EXPECT_EQ(stats->fingerprint_hashes, 2);
  }

  // A same-size rewrite within the timestamp tick may leave the whole
  // stamp unchanged; the racy rule re-hashes anyway.
  RewriteInPlaceKeepingMtime(pool_root_ + "/main.kdp");
  auto after = client->FetchSubset(request);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NE(first->fingerprint_crc, after->fingerprint_crc);
  EXPECT_NE(first->values, after->values);
  stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->packs_reopened, 1);
  server_->Stop();
}

TEST_F(ServeTest, DeletedPoolFileIsNotFoundAndTouchesNoCache) {
  StartServer(ServeOptions{});
  auto client = Client();
  ASSERT_NE(client, nullptr);
  FetchSubsetRequest fetch;
  fetch.artifact = "main.kdp";
  fetch.end = 64;
  ASSERT_TRUE(client->FetchSubset(fetch).ok());
  QueryRequest query;
  query.store = "trace.kel2";
  query.file_id = 1;
  query.end = 96;
  ASSERT_TRUE(client->QueryProvenance(query).ok());

  ASSERT_EQ(std::remove((pool_root_ + "/main.kdp").c_str()), 0);
  ASSERT_EQ(std::remove((pool_root_ + "/trace.kel2").c_str()), 0);
  EXPECT_EQ(client->FetchSubset(fetch).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->QueryProvenance(query).status().code(),
            StatusCode::kNotFound);
  const StatusOr<ServeStatsSnapshot> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->cache_entries, 1);
  EXPECT_EQ(stats->cache_misses, 1);
  EXPECT_EQ(stats->cache_hits, 0);
  EXPECT_EQ(stats->fingerprint_hashes, 2);
  server_->Stop();
}

TEST_F(ServeTest, StopIsIdempotentAndDestructorSafe) {
  StartServer(ServeOptions{});
  server_->Stop();
  server_->Stop();     // Second stop is a no-op.
  server_.reset();     // Destructor after explicit stop is safe too.
}

}  // namespace
}  // namespace kondo
