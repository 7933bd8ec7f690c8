#ifndef KONDO_SERVE_KPC_H_
#define KONDO_SERVE_KPC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "audit/event.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/statusor.h"

namespace kondo {

/// KPC — Kondo Protocol, CRC-framed (docs/FORMATS.md). Every message on a
/// serve connection is one frame:
///
///   offset size
///   0      4    magic "KPC1"
///   4      1    u8 kind (KpcKind)
///   5      3    reserved (0)
///   8      4    u32 payload_bytes (LE)
///   12     n    payload
///   12+n   4    u32 crc32 (LE) over bytes [4, 12+n) — kind, reserved,
///               length, payload; the IEEE/zlib polynomial of
///               provenance/crc32.h
///
/// Integers in payloads are little-endian fixed width; strings are u32
/// length-prefixed bytes. Encoding is a pure function of the message, so
/// two responses carrying equal data are byte-identical on the wire — the
/// property the subset cache's hit/miss contract is tested against.
constexpr char kKpcMagic[4] = {'K', 'P', 'C', '1'};
constexpr size_t kKpcHeaderBytes = 12;
constexpr size_t kKpcTrailerBytes = 4;

/// Hard ceiling on a frame payload; a header declaring more is corruption
/// (kDataLoss), not an allocation request.
constexpr uint32_t kKpcMaxPayloadBytes = 1u << 26;

enum class KpcKind : uint8_t {
  kError = 0,
  kFetchSubsetRequest = 1,
  kFetchSubsetResponse = 2,
  kQueryRequest = 3,
  kEventBatch = 4,   // Streamed query results; zero or more per query.
  kQueryDone = 5,    // Terminates an event stream; carries totals.
  kSubmitRequest = 6,
  kSubmitResponse = 7,
  kStatsRequest = 8,
  kStatsResponse = 9,
  // Fleet worker verbs (payload structs in src/fleet/fleet_protocol.h; the
  // coordinator/worker lifecycle is documented in docs/ARCHITECTURE.md).
  kHello = 10,        // Coordinator -> worker: campaign spec; ack back.
  kRunShard = 11,     // Coordinator -> worker: one shard assignment.
  kShardResult = 12,  // Worker -> coordinator: sealed .kss + .kel2 bytes.
  kHeartbeat = 13,    // Worker -> coordinator: liveness while fuzzing.
};

struct KpcFrame {
  KpcKind kind = KpcKind::kError;
  std::string payload;
};

/// Appends the full frame (header, payload, CRC trailer) to `out`.
void AppendKpcFrame(KpcKind kind, std::string_view payload, std::string* out);

/// Encodes and writes one frame.
Status WriteKpcFrame(Connection& conn, KpcKind kind,
                     std::string_view payload);

/// Reads and verifies one frame. kOutOfRange on orderly EOF before a
/// frame; kDataLoss on bad magic, oversized length, truncation, or CRC
/// mismatch — after which the stream is unrecoverable and the connection
/// should be dropped.
StatusOr<KpcFrame> ReadKpcFrame(Connection& conn);

// ---------------------------------------------------------------------------
// Payload primitives.

void KpcAppendU8(uint8_t v, std::string* out);
void KpcAppendU32(uint32_t v, std::string* out);
void KpcAppendI64(int64_t v, std::string* out);
void KpcAppendF64(double v, std::string* out);
void KpcAppendString(std::string_view v, std::string* out);

/// Sequential decoder over a payload. Every Read fails with kDataLoss on
/// underrun; Done() verifies the payload was consumed exactly.
class KpcCursor {
 public:
  explicit KpcCursor(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadI64(int64_t* v);
  Status ReadF64(double* v);
  Status ReadString(std::string* v);

  /// kDataLoss unless the cursor consumed the whole payload.
  Status Done() const;

  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Take(size_t n, const char** p);

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Verb payloads.

/// fetch-subset: a debloated runtime asks for the D_Θ slice covering
/// linear element ids [begin, end) of a pooled `.kdp` package.
struct FetchSubsetRequest {
  std::string artifact;  // Pool-relative name, e.g. "main.kdp".
  int64_t begin = 0;
  int64_t end = 0;

  std::string Encode() const;
  static StatusOr<FetchSubsetRequest> Decode(std::string_view payload);
};

/// The slice, stamped with the artifact fingerprint it was cut from (the
/// same whole-file byte-count + CRC32 the shard KSS `A` line records).
/// Null elements carry presence bit 0 and no value — the runtime maps them
/// back to kDataMissing.
struct FetchSubsetResponse {
  int64_t fingerprint_bytes = 0;
  uint32_t fingerprint_crc = 0;
  int64_t begin = 0;
  int64_t end = 0;
  std::vector<uint8_t> present;  // One per element of [begin, end).
  std::vector<double> values;    // One per present element, in order.

  std::string Encode() const;
  static StatusOr<FetchSubsetResponse> Decode(std::string_view payload);
};

/// query-provenance: which events / runs of a pooled KEL2 store touch byte
/// range [begin, end) of `file_id`. Answered server-side from the store's
/// offset index; events stream back in kEventBatch frames.
struct QueryRequest {
  std::string store;  // Pool-relative name, e.g. "merged.kel2".
  int64_t file_id = 1;
  int64_t begin = 0;
  int64_t end = 0;
  uint8_t runs_only = 0;  // 1 = suppress event batches, send only totals.

  std::string Encode() const;
  static StatusOr<QueryRequest> Decode(std::string_view payload);
};

/// One streamed batch of matching events, in store order:
///
///   u32 count | count x (i64 pid, i64 file_id, u8 type, i64 offset,
///                        i64 size)
struct EventBatch {
  std::vector<Event> events;

  std::string Encode() const;
  static StatusOr<EventBatch> Decode(std::string_view payload);
};

/// Wire bytes of one event in an EventBatch.
constexpr size_t kKpcEventWireBytes = 33;

/// The EventBatch payload of events [events, events + count), encoded in
/// place: the server streams slices of one result without copying each
/// into an EventBatch.
std::string EncodeEventBatch(const Event* events, size_t count);

/// Terminates a query stream: totals plus this query's block counters.
/// `blocks_considered`/`blocks_skipped` are what the block descriptors
/// alone decide; `blocks_decoded` is 0 for a pooled store, whose blocks
/// were decoded into its offset index when it was opened.
struct QueryDone {
  int64_t events_total = 0;
  std::vector<int64_t> runs;  // Sorted, deduplicated pids.
  int64_t blocks_considered = 0;
  int64_t blocks_skipped = 0;
  int64_t blocks_decoded = 0;

  std::string Encode() const;
  static StatusOr<QueryDone> Decode(std::string_view payload);
};

/// submit-campaign: enqueue a fuzz/debloat campaign for a registered
/// single-file program on the server's shared ThreadPool.
struct SubmitRequest {
  std::string program;
  int64_t seed = 1;
  int64_t max_evals = 0;  // 0 = program default budget.
  int64_t max_iter = 0;   // 0 = config default.

  std::string Encode() const;
  static StatusOr<SubmitRequest> Decode(std::string_view payload);
};

/// Admission verdict. `accepted == 0` is backpressure: the global queue is
/// full or the client is at its in-flight cap; `message` says which.
struct SubmitResponse {
  uint8_t accepted = 0;
  int64_t job_id = -1;
  int64_t queue_depth = 0;  // Depth observed at admission time.
  std::string message;

  std::string Encode() const;
  static StatusOr<SubmitResponse> Decode(std::string_view payload);
};

/// Per-verb latency histogram: bucket i counts requests with latency in
/// [2^(i-1), 2^i) microseconds (bucket 0: < 1us); the last bucket absorbs
/// overflow.
constexpr int kKpcLatencyBuckets = 22;

struct VerbLatency {
  int64_t count = 0;
  int64_t total_micros = 0;
  int64_t max_micros = 0;
  int64_t buckets[kKpcLatencyBuckets] = {};
};

/// The verbs with latency accounting, indexing ServeStatsSnapshot::verbs.
enum KpcVerb : int {
  kVerbFetchSubset = 0,
  kVerbQuery = 1,
  kVerbSubmit = 2,
  kVerbStats = 3,
  kKpcVerbCount = 4,
};

/// Returns the display name of a verb index ("fetch-subset", ...).
const char* KpcVerbName(int verb);

/// stats: a point-in-time snapshot of the daemon's counters.
struct ServeStatsSnapshot {
  // Subset cache.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;        // Capacity (LRU) evictions.
  int64_t cache_stale_evictions = 0;  // Fingerprint-changed invalidations.
  int64_t cache_entries = 0;
  int64_t cache_bytes = 0;
  int64_t cache_capacity_bytes = 0;

  // Sessions.
  int64_t sessions_accepted = 0;
  int64_t sessions_active = 0;
  int64_t requests_total = 0;
  int64_t protocol_errors = 0;

  // Campaign admission + execution.
  int64_t campaigns_submitted = 0;
  int64_t campaigns_rejected = 0;
  int64_t campaigns_completed = 0;
  int64_t campaigns_failed = 0;
  int64_t campaign_queue_depth = 0;  // Accepted, not yet running.
  int64_t campaign_inflight = 0;     // Running right now.
  int64_t lineage_bytes_written = 0;  // Kel2Writer::bytes_written() totals.

  // Open-handle pools and their revalidation.
  int64_t stores_open = 0;
  int64_t stores_reopened = 0;  // Stale fingerprint forced a reopen.
  int64_t packs_open = 0;
  int64_t packs_reopened = 0;      // Stale fingerprint forced a reopen.
  int64_t fingerprint_hashes = 0;  // Whole-file hashes, both pools.

  VerbLatency verbs[kKpcVerbCount];

  // Heap bytes of the offset indexes of the open stores.
  int64_t store_index_bytes = 0;

  std::string Encode() const;
  static StatusOr<ServeStatsSnapshot> Decode(std::string_view payload);
};

/// Error frame payload: a Status on the wire.
struct KpcError {
  uint32_t code = 0;  // StatusCode cast.
  std::string message;

  std::string Encode() const;
  static StatusOr<KpcError> Decode(std::string_view payload);

  static KpcError FromStatus(const Status& status);
  Status ToStatus() const;
};

}  // namespace kondo

#endif  // KONDO_SERVE_KPC_H_
