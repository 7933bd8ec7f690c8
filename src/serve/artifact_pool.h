#ifndef KONDO_SERVE_ARTIFACT_POOL_H_
#define KONDO_SERVE_ARTIFACT_POOL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "pack/pack_reader.h"
#include "provenance/provenance_store.h"
#include "serve/kpc.h"
#include "serve/subset_cache.h"
#include "shard/shard_campaign.h"

namespace kondo {

/// The artefacts a kondo daemon serves from: a flat pool directory of
/// `.kdp` packages (fetch-subset) and `.kel2` lineage stores
/// (query-provenance), fronted by the fingerprint-keyed subset cache and
/// pools of open ProvenanceStore / PackReader handles.
///
/// Every pooled file carries a whole-file fingerprint (the byte count +
/// CRC32 a shard KSS `A` line records) that is computed once per open,
/// not once per request. Each request stat()s the file once and compares
/// its stamp (device, inode, size, mtime, ctime) with the stamp the
/// fingerprint was taken under; an equal stamp reuses the fingerprint and
/// the open handle without reading the file. A different stamp (or no
/// entry yet) hashes the file again, and the handle is reopened only when
/// that fingerprint differs, so a pool file rewritten between requests
/// still misses the cache, its older entries are swept as stale, and its
/// handle is reopened.
///
/// Racy stamps. A write in the same timestamp tick as the stat() that
/// produced a stamp can leave size, mtime and ctime unchanged (git's
/// "racily clean" problem). So a stamp whose max(mtime, ctime) is within
/// kRacyWindowNanos of the wall clock read just before its stat() is
/// racy: it proves nothing, and the file is hashed again on every request
/// until it ages out. ctime also catches an in-place rewrite whose writer
/// put mtime back. The clock only decides whether to hash; what is served
/// always carries the fingerprint of a hash.
///
/// The subset-cache key additionally embeds the pack fingerprint (manifest
/// CRC) of the handle that decodes the slice, so a repack can never serve
/// stale cached slices.
class ArtifactPool {
 public:
  /// How far behind the wall clock a pooled file's last change must be
  /// for its stamp to vouch for its bytes: 2 s covers the timestamp
  /// granularity of every Linux filesystem.
  static constexpr int64_t kRacyWindowNanos = 2'000'000'000;

  ArtifactPool(std::string root, int64_t cache_bytes);

  /// Resolves a client-supplied pool-relative name. kInvalidArgument for
  /// empty names, absolute paths, or any ".." component — clients name
  /// pool members, they do not address the filesystem.
  StatusOr<std::string> ResolvePath(const std::string& name) const;

  /// Builds (or serves from cache) the encoded FetchSubsetResponse payload
  /// for the request against a pooled KDP package; kDataLoss when the file
  /// is not one. The returned bytes are shared with the cache: a hit
  /// returns the identical string a miss inserted.
  StatusOr<std::shared_ptr<const std::string>> FetchSubsetPayload(
      const FetchSubsetRequest& request) KONDO_EXCLUDES(packs_.mu);

  /// Returns the open ProvenanceStore for a pooled `.kel2` name, opening
  /// or (on fingerprint change) reopening it.
  StatusOr<std::shared_ptr<ProvenanceStore>> OpenStore(
      const std::string& name) KONDO_EXCLUDES(stores_.mu);

  SubsetCacheStats cache_stats() const { return cache_.stats(); }
  int64_t stores_open() const KONDO_EXCLUDES(stores_.mu);
  int64_t stores_reopened() const KONDO_EXCLUDES(stores_.mu);
  int64_t packs_open() const KONDO_EXCLUDES(packs_.mu);
  int64_t packs_reopened() const KONDO_EXCLUDES(packs_.mu);
  /// Whole-file hashes done so far, over both pools.
  int64_t fingerprint_hashes() const { return fingerprint_hashes_.load(); }
  const std::string& root() const { return root_; }

 private:
  /// What one stat() reports about a file's identity and contents.
  struct FileStamp {
    uint64_t dev = 0;
    uint64_t ino = 0;
    int64_t size = 0;
    int64_t mtime_nanos = 0;
    int64_t ctime_nanos = 0;

    friend bool operator==(const FileStamp& a, const FileStamp& b) {
      return a.dev == b.dev && a.ino == b.ino && a.size == b.size &&
             a.mtime_nanos == b.mtime_nanos && a.ctime_nanos == b.ctime_nanos;
    }
  };

  /// One pooled open file: the stamp its fingerprint was taken under,
  /// whether that stamp is racy, and the handle opened on those bytes.
  template <typename Handle>
  struct Entry {
    FileStamp stamp;
    ShardArtifactInfo fingerprint;
    bool racy = false;
    std::shared_ptr<Handle> handle;
  };

  /// The open entries of one artefact kind, by pool name.
  template <typename Handle>
  struct HandlePool {
    mutable Mutex mu;
    std::map<std::string, Entry<Handle>> entries KONDO_GUARDED_BY(mu);
    int64_t reopened KONDO_GUARDED_BY(mu) = 0;  // Fingerprint changed.
  };

  /// Returns pooled `name`'s current fingerprint and open handle: one
  /// stat(), plus a hash when the stamp changed or is racy, plus a
  /// (re)open when the fingerprint changed. A failed stat() returns what
  /// HashFileArtifact would (kNotFound) and leaves the pool untouched.
  template <typename Handle>
  StatusOr<Entry<Handle>> Revalidate(HandlePool<Handle>& pool,
                                     const std::string& name)
      KONDO_EXCLUDES(pool.mu);

  const std::string root_;
  SubsetCache cache_;
  HandlePool<ProvenanceStore> stores_;
  HandlePool<PackReader> packs_;
  std::atomic<int64_t> fingerprint_hashes_{0};
};

}  // namespace kondo

#endif  // KONDO_SERVE_ARTIFACT_POOL_H_
