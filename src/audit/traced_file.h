#ifndef KONDO_AUDIT_TRACED_FILE_H_
#define KONDO_AUDIT_TRACED_FILE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "array/kdf_file.h"
#include "audit/event_log.h"
#include "common/statusor.h"

namespace kondo {

/// Function-interposition shim over a KDF data file: every read issued
/// through a TracedFile is recorded as an `<id, c, l, sz>` event in the
/// attached EventLog — the role ptrace/Sciunit interposition plays in the
/// paper's prototype — and then served.
///
/// The audit consumes the event stream, not the I/O underneath it, so how a
/// read is served does not change what is recorded. `ReadElement` logs the
/// element's exact byte range and serves the value from a small
/// direct-mapped cache of payload pages (`kCacheSlots` pages of
/// `kCachePageBytes`, counted from the payload start), filled by one
/// `KdfReader::ReadRaw` per page miss. Every DType size divides the page
/// size, so no element straddles two pages. The data file is read-only for
/// the life of an audited run (Section III), so a page is read at most once
/// per residency; an element past a short page (the file ended early) is
/// DATA_LOSS "short read". `ReadRaw` bypasses the cache.
///
/// Passing a null EventLog disables auditing entirely (the shim records
/// nothing but reads through the same cache), which is how the §V-D6
/// audit-overhead bench measures raw execution time.
class TracedFile {
 public:
  /// Opens `path`, assigns it `file_id`, and records an open event for
  /// `pid`. `log` may be null for un-audited execution.
  static StatusOr<TracedFile> Open(const std::string& path, int64_t pid,
                                   int64_t file_id, EventLog* log);

  TracedFile(TracedFile&&) noexcept = default;
  TracedFile& operator=(TracedFile&&) noexcept = default;

  /// Records a close event. Idempotent; also invoked by the destructor.
  void Close();
  ~TracedFile();

  const KdfReader& reader() const { return reader_; }
  const Shape& shape() const { return reader_.shape(); }
  int64_t pid() const { return pid_; }
  int64_t file_id() const { return file_id_; }

  /// Reads the element at `index` through the page cache, recording a
  /// pread event covering its byte range.
  StatusOr<double> ReadElement(const Index& index);

  /// Reads `size` raw bytes at absolute `offset`, recording a pread event.
  StatusOr<int64_t> ReadRaw(int64_t offset, int64_t size, char* buf);

  /// Records an mmap-style access of [offset, offset+size) without copying
  /// data (models applications that fault pages in via mappings).
  void TouchMmap(int64_t offset, int64_t size);

  /// Changes the process identity used for subsequent events (models a
  /// fork()ed child inheriting the descriptor).
  void SetPid(int64_t pid) { pid_ = pid; }

  /// Number of data-access calls issued through this shim.
  int64_t access_count() const { return access_count_; }

 private:
  static constexpr int64_t kCachePageBytes = 4096;
  static constexpr int64_t kCacheSlots = 32;

  TracedFile(KdfReader reader, int64_t pid, int64_t file_id, EventLog* log);

  void Log(EventType type, int64_t offset, int64_t size);

  /// Reads payload page `page` into cache slot `slot`.
  Status FillSlot(int64_t slot, int64_t page);

  KdfReader reader_;
  // Page cache: slot k holds payload page cached_page_[k] (-1 when empty),
  // of which cached_bytes_[k] bytes were read; its bytes are at
  // pages_[k * kCachePageBytes].
  std::array<int64_t, kCacheSlots> cached_page_;
  std::array<int64_t, kCacheSlots> cached_bytes_;
  std::unique_ptr<char[]> pages_;
  int64_t pid_;
  int64_t file_id_;
  EventLog* log_;  // Not owned; may be null (un-audited mode).
  bool closed_ = false;
  int64_t access_count_ = 0;
};

}  // namespace kondo

#endif  // KONDO_AUDIT_TRACED_FILE_H_
