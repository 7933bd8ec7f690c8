#include "audit/traced_file.h"

namespace kondo {

StatusOr<TracedFile> TracedFile::Open(const std::string& path, int64_t pid,
                                      int64_t file_id, EventLog* log) {
  KONDO_ASSIGN_OR_RETURN(KdfReader reader, KdfReader::Open(path));
  TracedFile file(std::move(reader), pid, file_id, log);
  file.Log(EventType::kOpen, 0, 0);
  return file;
}

TracedFile::TracedFile(KdfReader reader, int64_t pid, int64_t file_id,
                       EventLog* log)
    : reader_(std::move(reader)),
      pages_(new char[kCacheSlots * kCachePageBytes]),
      pid_(pid),
      file_id_(file_id),
      log_(log) {
  cached_page_.fill(-1);
  cached_bytes_.fill(0);
}

TracedFile::~TracedFile() {
  // A moved-from TracedFile has a closed reader fd (-1); logging close for
  // it would be misleading, so guard on the flag only for live instances.
  if (!closed_ && reader_.fd() >= 0) {
    Close();
  }
}

void TracedFile::Close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  Log(EventType::kClose, 0, 0);
}

StatusOr<double> TracedFile::ReadElement(const Index& index) {
  if (!shape().Contains(index)) {
    return OutOfRangeError("index out of bounds");
  }
  ++access_count_;
  const int64_t elem = reader_.layout().element_size();
  const int64_t rel = reader_.layout().ByteOffsetOf(index);
  Log(EventType::kPread, reader_.payload_offset() + rel, elem);
  const int64_t page = rel / kCachePageBytes;
  const int64_t slot = page % kCacheSlots;
  if (cached_page_[slot] != page) {
    KONDO_RETURN_IF_ERROR(FillSlot(slot, page));
  }
  const int64_t in_page = rel - page * kCachePageBytes;
  if (in_page + elem > cached_bytes_[slot]) {
    return DataLossError("short read");
  }
  return DecodeElement(pages_.get() + slot * kCachePageBytes + in_page,
                       reader_.header().dtype);
}

Status TracedFile::FillSlot(int64_t slot, int64_t page) {
  // Invalidate first: a failed read must not leave the old page mapped.
  cached_page_[slot] = -1;
  KONDO_ASSIGN_OR_RETURN(
      const int64_t got,
      reader_.ReadRaw(reader_.payload_offset() + page * kCachePageBytes,
                      kCachePageBytes, pages_.get() + slot * kCachePageBytes));
  cached_page_[slot] = page;
  cached_bytes_[slot] = got;
  return OkStatus();
}

StatusOr<int64_t> TracedFile::ReadRaw(int64_t offset, int64_t size,
                                      char* buf) {
  ++access_count_;
  Log(EventType::kPread, offset, size);
  return reader_.ReadRaw(offset, size, buf);
}

void TracedFile::TouchMmap(int64_t offset, int64_t size) {
  ++access_count_;
  Log(EventType::kMmap, offset, size);
}

void TracedFile::Log(EventType type, int64_t offset, int64_t size) {
  if (log_ == nullptr) {
    return;
  }
  Event event;
  event.id = EventId{pid_, file_id_};
  event.type = type;
  event.offset = offset;
  event.size = size;
  log_->Record(event);
}

}  // namespace kondo
