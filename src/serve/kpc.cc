#include "serve/kpc.h"

#include <cstring>

#include "common/strings.h"
#include "provenance/crc32.h"

namespace kondo {

// ---------------------------------------------------------------------------
// Primitives.

void KpcAppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

namespace {

/// Little-endian store of the low `n` bytes of `v`, whatever the host order.
void StoreLe(uint64_t v, size_t n, char* p) {
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint64_t Bits(int64_t v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

}  // namespace

void KpcAppendU32(uint32_t v, std::string* out) {
  char buf[4];
  StoreLe(v, 4, buf);
  out->append(buf, 4);
}

void KpcAppendI64(int64_t v, std::string* out) {
  char buf[8];
  StoreLe(Bits(v), 8, buf);
  out->append(buf, 8);
}

void KpcAppendF64(double v, std::string* out) {
  int64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  KpcAppendI64(bits, out);
}

void KpcAppendString(std::string_view v, std::string* out) {
  KpcAppendU32(static_cast<uint32_t>(v.size()), out);
  out->append(v.data(), v.size());
}

Status KpcCursor::Take(size_t n, const char** p) {
  if (data_.size() - pos_ < n) {
    return DataLossError(StrCat("KPC payload underrun: need ", n,
                                " bytes, have ", data_.size() - pos_));
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return OkStatus();
}

Status KpcCursor::ReadU8(uint8_t* v) {
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(1, &p));
  *v = static_cast<uint8_t>(*p);
  return OkStatus();
}

Status KpcCursor::ReadU32(uint32_t* v) {
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(4, &p));
  uint32_t u = 0;
  for (int i = 0; i < 4; ++i) {
    u |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = u;
  return OkStatus();
}

Status KpcCursor::ReadI64(int64_t* v) {
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(8, &p));
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  std::memcpy(v, &u, sizeof(u));
  return OkStatus();
}

Status KpcCursor::ReadF64(double* v) {
  int64_t bits = 0;
  KONDO_RETURN_IF_ERROR(ReadI64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return OkStatus();
}

Status KpcCursor::ReadString(std::string* v) {
  uint32_t size = 0;
  KONDO_RETURN_IF_ERROR(ReadU32(&size));
  if (size > kKpcMaxPayloadBytes) {
    return DataLossError(StrCat("KPC string too large: ", size));
  }
  const char* p = nullptr;
  KONDO_RETURN_IF_ERROR(Take(size, &p));
  v->assign(p, size);
  return OkStatus();
}

Status KpcCursor::Done() const {
  if (pos_ != data_.size()) {
    return DataLossError(StrCat("KPC payload has ", data_.size() - pos_,
                                " trailing bytes"));
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Framing.

void AppendKpcFrame(KpcKind kind, std::string_view payload,
                    std::string* out) {
  const size_t header_start = out->size();
  out->append(kKpcMagic, sizeof(kKpcMagic));
  KpcAppendU8(static_cast<uint8_t>(kind), out);
  KpcAppendU8(0, out);
  KpcAppendU8(0, out);
  KpcAppendU8(0, out);
  KpcAppendU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload.data(), payload.size());
  // CRC over kind..payload — everything after the magic.
  const uint32_t crc =
      Crc32(out->data() + header_start + sizeof(kKpcMagic),
            out->size() - header_start - sizeof(kKpcMagic));
  KpcAppendU32(crc, out);
}

Status WriteKpcFrame(Connection& conn, KpcKind kind,
                     std::string_view payload) {
  std::string frame;
  frame.reserve(kKpcHeaderBytes + payload.size() + kKpcTrailerBytes);
  AppendKpcFrame(kind, payload, &frame);
  return conn.WriteFully(frame);
}

StatusOr<KpcFrame> ReadKpcFrame(Connection& conn) {
  char header[kKpcHeaderBytes];
  KONDO_RETURN_IF_ERROR(conn.ReadFully(header, sizeof(header)));
  if (std::memcmp(header, kKpcMagic, sizeof(kKpcMagic)) != 0) {
    return DataLossError("bad KPC frame magic");
  }
  uint32_t payload_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    payload_bytes |=
        static_cast<uint32_t>(static_cast<uint8_t>(header[8 + i])) << (8 * i);
  }
  if (payload_bytes > kKpcMaxPayloadBytes) {
    return DataLossError(
        StrCat("KPC frame payload too large: ", payload_bytes));
  }
  KpcFrame frame;
  frame.kind = static_cast<KpcKind>(static_cast<uint8_t>(header[4]));
  frame.payload.resize(payload_bytes);
  if (payload_bytes > 0) {
    KONDO_RETURN_IF_ERROR(conn.ReadFully(frame.payload.data(),
                                         payload_bytes));
  }
  char trailer[kKpcTrailerBytes];
  KONDO_RETURN_IF_ERROR(conn.ReadFully(trailer, sizeof(trailer)));
  uint32_t wire_crc = 0;
  for (int i = 0; i < 4; ++i) {
    wire_crc |=
        static_cast<uint32_t>(static_cast<uint8_t>(trailer[i])) << (8 * i);
  }
  uint32_t crc = Crc32(header + sizeof(kKpcMagic),
                       sizeof(header) - sizeof(kKpcMagic));
  crc = Crc32Update(crc, frame.payload.data(), frame.payload.size());
  if (crc != wire_crc) {
    return DataLossError("KPC frame CRC mismatch");
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Verb payloads.

std::string FetchSubsetRequest::Encode() const {
  std::string out;
  KpcAppendString(artifact, &out);
  KpcAppendI64(begin, &out);
  KpcAppendI64(end, &out);
  return out;
}

StatusOr<FetchSubsetRequest> FetchSubsetRequest::Decode(
    std::string_view payload) {
  FetchSubsetRequest req;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.artifact));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.end));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string FetchSubsetResponse::Encode() const {
  std::string out;
  KpcAppendI64(fingerprint_bytes, &out);
  KpcAppendU32(fingerprint_crc, &out);
  KpcAppendI64(begin, &out);
  KpcAppendI64(end, &out);
  KpcAppendU32(static_cast<uint32_t>(present.size()), &out);
  for (uint8_t p : present) {
    KpcAppendU8(p, &out);
  }
  KpcAppendU32(static_cast<uint32_t>(values.size()), &out);
  for (double v : values) {
    KpcAppendF64(v, &out);
  }
  return out;
}

StatusOr<FetchSubsetResponse> FetchSubsetResponse::Decode(
    std::string_view payload) {
  FetchSubsetResponse resp;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.fingerprint_bytes));
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&resp.fingerprint_crc));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.end));
  // Each count is bounded by the bytes its elements must still consume
  // before any allocation happens: a hostile 32-bit count can never command
  // more memory than the (already frame-capped) payload that carried it.
  uint32_t count = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  if (count > cur.remaining()) {
    return DataLossError(StrCat("KPC subset present count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  resp.present.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KONDO_RETURN_IF_ERROR(cur.ReadU8(&resp.present[i]));
  }
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  if (count > cur.remaining() / 8) {  // 8 payload bytes per f64 value.
    return DataLossError(StrCat("KPC subset value count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  resp.values.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KONDO_RETURN_IF_ERROR(cur.ReadF64(&resp.values[i]));
  }
  KONDO_RETURN_IF_ERROR(cur.Done());
  return resp;
}

std::string QueryRequest::Encode() const {
  std::string out;
  KpcAppendString(store, &out);
  KpcAppendI64(file_id, &out);
  KpcAppendI64(begin, &out);
  KpcAppendI64(end, &out);
  KpcAppendU8(runs_only, &out);
  return out;
}

StatusOr<QueryRequest> QueryRequest::Decode(std::string_view payload) {
  QueryRequest req;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.store));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.file_id));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.begin));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.end));
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&req.runs_only));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string EncodeEventBatch(const Event* events, size_t count) {
  std::string out(4 + kKpcEventWireBytes * count, '\0');
  char* p = out.data();
  StoreLe(count, 4, p);
  p += 4;
  for (size_t i = 0; i < count; ++i) {
    const Event& event = events[i];
    StoreLe(Bits(event.id.pid), 8, p);
    StoreLe(Bits(event.id.file_id), 8, p + 8);
    p[16] = static_cast<char>(event.type);
    StoreLe(Bits(event.offset), 8, p + 17);
    StoreLe(Bits(event.size), 8, p + 25);
    p += kKpcEventWireBytes;
  }
  return out;
}

std::string EventBatch::Encode() const {
  return EncodeEventBatch(events.data(), events.size());
}

StatusOr<EventBatch> EventBatch::Decode(std::string_view payload) {
  EventBatch batch;
  KpcCursor cur(payload);
  uint32_t count = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  // The count is provably short before the batch allocates anything.
  if (count > cur.remaining() / kKpcEventWireBytes) {
    return DataLossError(StrCat("KPC event batch count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  batch.events.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    Event& event = batch.events[i];
    uint8_t type = 0;
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.id.pid));
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.id.file_id));
    KONDO_RETURN_IF_ERROR(cur.ReadU8(&type));
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.offset));
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&event.size));
    event.type = static_cast<EventType>(type);
  }
  KONDO_RETURN_IF_ERROR(cur.Done());
  return batch;
}

std::string QueryDone::Encode() const {
  std::string out;
  KpcAppendI64(events_total, &out);
  KpcAppendU32(static_cast<uint32_t>(runs.size()), &out);
  for (int64_t pid : runs) {
    KpcAppendI64(pid, &out);
  }
  KpcAppendI64(blocks_considered, &out);
  KpcAppendI64(blocks_skipped, &out);
  KpcAppendI64(blocks_decoded, &out);
  return out;
}

StatusOr<QueryDone> QueryDone::Decode(std::string_view payload) {
  QueryDone done;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.events_total));
  uint32_t count = 0;
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&count));
  if (count > cur.remaining() / 8) {  // 8 payload bytes per run pid.
    return DataLossError(StrCat("KPC run count ", count,
                                " overruns the remaining ", cur.remaining(),
                                "-byte payload"));
  }
  done.runs.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.runs[i]));
  }
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.blocks_considered));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.blocks_skipped));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&done.blocks_decoded));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return done;
}

std::string SubmitRequest::Encode() const {
  std::string out;
  KpcAppendString(program, &out);
  KpcAppendI64(seed, &out);
  KpcAppendI64(max_evals, &out);
  KpcAppendI64(max_iter, &out);
  return out;
}

StatusOr<SubmitRequest> SubmitRequest::Decode(std::string_view payload) {
  SubmitRequest req;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadString(&req.program));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.seed));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.max_evals));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&req.max_iter));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return req;
}

std::string SubmitResponse::Encode() const {
  std::string out;
  KpcAppendU8(accepted, &out);
  KpcAppendI64(job_id, &out);
  KpcAppendI64(queue_depth, &out);
  KpcAppendString(message, &out);
  return out;
}

StatusOr<SubmitResponse> SubmitResponse::Decode(std::string_view payload) {
  SubmitResponse resp;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadU8(&resp.accepted));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.job_id));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&resp.queue_depth));
  KONDO_RETURN_IF_ERROR(cur.ReadString(&resp.message));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return resp;
}

const char* KpcVerbName(int verb) {
  switch (verb) {
    case kVerbFetchSubset:
      return "fetch-subset";
    case kVerbQuery:
      return "query-provenance";
    case kVerbSubmit:
      return "submit-campaign";
    case kVerbStats:
      return "stats";
    default:
      return "unknown";
  }
}

namespace {

void AppendVerbLatency(const VerbLatency& v, std::string* out) {
  KpcAppendI64(v.count, out);
  KpcAppendI64(v.total_micros, out);
  KpcAppendI64(v.max_micros, out);
  for (int i = 0; i < kKpcLatencyBuckets; ++i) {
    KpcAppendI64(v.buckets[i], out);
  }
}

Status ReadVerbLatency(KpcCursor* cur, VerbLatency* v) {
  KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->count));
  KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->total_micros));
  KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->max_micros));
  for (int i = 0; i < kKpcLatencyBuckets; ++i) {
    KONDO_RETURN_IF_ERROR(cur->ReadI64(&v->buckets[i]));
  }
  return OkStatus();
}

}  // namespace

std::string ServeStatsSnapshot::Encode() const {
  std::string out;
  KpcAppendI64(cache_hits, &out);
  KpcAppendI64(cache_misses, &out);
  KpcAppendI64(cache_evictions, &out);
  KpcAppendI64(cache_stale_evictions, &out);
  KpcAppendI64(cache_entries, &out);
  KpcAppendI64(cache_bytes, &out);
  KpcAppendI64(cache_capacity_bytes, &out);
  KpcAppendI64(sessions_accepted, &out);
  KpcAppendI64(sessions_active, &out);
  KpcAppendI64(requests_total, &out);
  KpcAppendI64(protocol_errors, &out);
  KpcAppendI64(campaigns_submitted, &out);
  KpcAppendI64(campaigns_rejected, &out);
  KpcAppendI64(campaigns_completed, &out);
  KpcAppendI64(campaigns_failed, &out);
  KpcAppendI64(campaign_queue_depth, &out);
  KpcAppendI64(campaign_inflight, &out);
  KpcAppendI64(lineage_bytes_written, &out);
  KpcAppendI64(stores_open, &out);
  KpcAppendI64(stores_reopened, &out);
  KpcAppendI64(packs_open, &out);
  KpcAppendI64(packs_reopened, &out);
  KpcAppendI64(fingerprint_hashes, &out);
  for (int v = 0; v < kKpcVerbCount; ++v) {
    AppendVerbLatency(verbs[v], &out);
  }
  KpcAppendI64(store_index_bytes, &out);
  return out;
}

StatusOr<ServeStatsSnapshot> ServeStatsSnapshot::Decode(
    std::string_view payload) {
  ServeStatsSnapshot s;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.cache_hits));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.cache_misses));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.cache_evictions));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.cache_stale_evictions));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.cache_entries));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.cache_bytes));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.cache_capacity_bytes));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.sessions_accepted));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.sessions_active));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.requests_total));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.protocol_errors));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.campaigns_submitted));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.campaigns_rejected));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.campaigns_completed));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.campaigns_failed));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.campaign_queue_depth));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.campaign_inflight));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.lineage_bytes_written));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.stores_open));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.stores_reopened));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.packs_open));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.packs_reopened));
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.fingerprint_hashes));
  for (int v = 0; v < kKpcVerbCount; ++v) {
    KONDO_RETURN_IF_ERROR(ReadVerbLatency(&cur, &s.verbs[v]));
  }
  KONDO_RETURN_IF_ERROR(cur.ReadI64(&s.store_index_bytes));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return s;
}

std::string KpcError::Encode() const {
  std::string out;
  KpcAppendU32(code, &out);
  KpcAppendString(message, &out);
  return out;
}

StatusOr<KpcError> KpcError::Decode(std::string_view payload) {
  KpcError err;
  KpcCursor cur(payload);
  KONDO_RETURN_IF_ERROR(cur.ReadU32(&err.code));
  KONDO_RETURN_IF_ERROR(cur.ReadString(&err.message));
  KONDO_RETURN_IF_ERROR(cur.Done());
  return err;
}

KpcError KpcError::FromStatus(const Status& status) {
  KpcError err;
  err.code = static_cast<uint32_t>(status.code());
  err.message = status.message();
  return err;
}

Status KpcError::ToStatus() const {
  return Status(static_cast<StatusCode>(code), message);
}

}  // namespace kondo
