#include "serve/artifact_pool.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace kondo {
namespace {

/// True if `name` contains a ".." path component.
bool HasDotDotComponent(const std::string& name) {
  size_t start = 0;
  while (start <= name.size()) {
    size_t slash = name.find('/', start);
    if (slash == std::string::npos) slash = name.size();
    if (slash - start == 2 && name[start] == '.' && name[start + 1] == '.') {
      return true;
    }
    start = slash + 1;
  }
  return false;
}

/// Wall-clock nanoseconds, the clock file timestamps are taken from.
int64_t WallClockNanos() {
  // kondo-lint: allow(R1) decides only whether to re-hash, not what is served
  const auto since_epoch = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
      .count();
}

int64_t Nanos(const struct timespec& ts) {
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 +
         static_cast<int64_t>(ts.tv_nsec);
}

}  // namespace

ArtifactPool::ArtifactPool(std::string root, int64_t cache_bytes)
    : root_(std::move(root)), cache_(cache_bytes) {}

StatusOr<std::string> ArtifactPool::ResolvePath(
    const std::string& name) const {
  if (name.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty artifact name");
  }
  if (name.front() == '/') {
    return Status(StatusCode::kInvalidArgument,
                  "artifact name must be pool-relative: " + name);
  }
  if (HasDotDotComponent(name)) {
    return Status(StatusCode::kInvalidArgument,
                  "artifact name must not contain '..': " + name);
  }
  return root_ + "/" + name;
}

template <typename Handle>
StatusOr<ArtifactPool::Entry<Handle>> ArtifactPool::Revalidate(
    HandlePool<Handle>& pool, const std::string& name) {
  KONDO_ASSIGN_OR_RETURN(const std::string path, ResolvePath(name));
  // The clock is read before stat(): any change the stat() cannot see yet
  // is stamped no earlier than `now` minus the clock's coarseness.
  const int64_t now = WallClockNanos();
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) {
    return NotFoundError("cannot open: " + path);  // As HashFileArtifact.
  }
  FileStamp stamp;
  stamp.dev = static_cast<uint64_t>(st.st_dev);
  stamp.ino = static_cast<uint64_t>(st.st_ino);
  stamp.size = static_cast<int64_t>(st.st_size);
  stamp.mtime_nanos = Nanos(st.st_mtim);
  stamp.ctime_nanos = Nanos(st.st_ctim);
  {
    MutexLock lock(pool.mu);
    auto it = pool.entries.find(name);
    if (it != pool.entries.end() && !it->second.racy &&
        it->second.stamp == stamp) {
      return it->second;
    }
  }

  KONDO_ASSIGN_OR_RETURN(const ShardArtifactInfo fingerprint,
                         HashFileArtifact(path));
  fingerprint_hashes_.fetch_add(1);
  const bool racy = std::max(stamp.mtime_nanos, stamp.ctime_nanos) >=
                    now - kRacyWindowNanos;

  MutexLock lock(pool.mu);
  auto it = pool.entries.find(name);
  if (it != pool.entries.end()) {
    Entry<Handle>& entry = it->second;
    if (entry.fingerprint.lineage_bytes == fingerprint.lineage_bytes &&
        entry.fingerprint.lineage_crc == fingerprint.lineage_crc) {
      entry.stamp = stamp;
      entry.racy = racy;
      return entry;
    }
    // Rewritten underneath the open handle: its manifest, decode memo and
    // cached descriptors describe bytes that no longer exist.
    pool.entries.erase(it);
    ++pool.reopened;
  }
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Handle> opened, Handle::Open(path));
  Entry<Handle> entry;
  entry.stamp = stamp;
  entry.fingerprint = fingerprint;
  entry.racy = racy;
  entry.handle = std::shared_ptr<Handle>(std::move(opened));
  pool.entries[name] = entry;
  return entry;
}

StatusOr<std::shared_ptr<const std::string>> ArtifactPool::FetchSubsetPayload(
    const FetchSubsetRequest& request) {
  if (request.begin < 0 || request.end < request.begin) {
    return Status(StatusCode::kInvalidArgument,
                  "bad element range: want 0 <= begin <= end");
  }
  KONDO_ASSIGN_OR_RETURN(const Entry<PackReader> pack,
                         Revalidate(packs_, request.artifact));
  const ShardArtifactInfo& info = pack.fingerprint;
  PackReader& reader = *pack.handle;
  if (request.end > reader.shape().NumElements()) {
    return Status(StatusCode::kOutOfRange,
                  "range end " + std::to_string(request.end) +
                      " exceeds element count " +
                      std::to_string(reader.shape().NumElements()));
  }

  // Serve straight from the chunked package, decoding only the chunks the
  // range touches.
  const SubsetKey key{request.artifact, info.lineage_bytes,
                      info.lineage_crc, request.begin,
                      request.end,      reader.pack_fingerprint()};
  return cache_.GetOrFill(key, [&]() -> StatusOr<std::string> {
    FetchSubsetResponse response;
    response.fingerprint_bytes = info.lineage_bytes;
    response.fingerprint_crc = info.lineage_crc;
    response.begin = request.begin;
    response.end = request.end;
    KONDO_RETURN_IF_ERROR(reader.ReadRange(request.begin, request.end,
                                           &response.present,
                                           &response.values));
    return response.Encode();
  });
}

StatusOr<std::shared_ptr<ProvenanceStore>> ArtifactPool::OpenStore(
    const std::string& name) {
  KONDO_ASSIGN_OR_RETURN(Entry<ProvenanceStore> store,
                         Revalidate(stores_, name));
  return std::move(store.handle);
}

int64_t ArtifactPool::stores_open() const {
  MutexLock lock(stores_.mu);
  return static_cast<int64_t>(stores_.entries.size());
}

int64_t ArtifactPool::stores_reopened() const {
  MutexLock lock(stores_.mu);
  return stores_.reopened;
}

int64_t ArtifactPool::packs_open() const {
  MutexLock lock(packs_.mu);
  return static_cast<int64_t>(packs_.entries.size());
}

int64_t ArtifactPool::packs_reopened() const {
  MutexLock lock(packs_.mu);
  return packs_.reopened;
}

}  // namespace kondo
