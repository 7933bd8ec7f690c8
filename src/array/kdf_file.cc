#include "array/kdf_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace kondo {
namespace {

constexpr char kMagic[4] = {'K', 'D', 'F', '1'};

/// ReadAll streams the payload in blocks of this many bytes.
constexpr int64_t kReadAllBlockBytes = int64_t{1} << 20;

void AppendI64(std::string* out, int64_t value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  out->append(buf, 8);
}

int64_t ReadI64(const char* buf) {
  int64_t value = 0;
  std::memcpy(&value, buf, 8);
  return value;
}

}  // namespace

int64_t KdfHeader::HeaderBytes() const {
  int64_t bytes = 8 + 8 * shape.rank();
  if (layout_kind == LayoutKind::kChunked) {
    bytes += 8 * shape.rank();
  }
  return bytes;
}

std::unique_ptr<Layout> KdfHeader::MakeFileLayout() const {
  return MakeLayout(layout_kind, shape, dtype, chunk_dims);
}

void EncodeElement(double value, DType dtype, char* buf) {
  switch (dtype) {
    case DType::kInt32: {
      int32_t v = static_cast<int32_t>(value);
      std::memcpy(buf, &v, 4);
      return;
    }
    case DType::kInt64: {
      int64_t v = static_cast<int64_t>(value);
      std::memcpy(buf, &v, 8);
      return;
    }
    case DType::kFloat32: {
      float v = static_cast<float>(value);
      std::memcpy(buf, &v, 4);
      return;
    }
    case DType::kFloat64: {
      std::memcpy(buf, &value, 8);
      return;
    }
    case DType::kFloat128: {
      // A float64 value padded to the paper's 16-byte element width.
      std::memcpy(buf, &value, 8);
      std::memset(buf + 8, 0, 8);
      return;
    }
  }
}

double DecodeElement(const char* buf, DType dtype) {
  switch (dtype) {
    case DType::kInt32: {
      int32_t v;
      std::memcpy(&v, buf, 4);
      return static_cast<double>(v);
    }
    case DType::kInt64: {
      int64_t v;
      std::memcpy(&v, buf, 8);
      return static_cast<double>(v);
    }
    case DType::kFloat32: {
      float v;
      std::memcpy(&v, buf, 4);
      return static_cast<double>(v);
    }
    case DType::kFloat64:
    case DType::kFloat128: {
      double v;
      std::memcpy(&v, buf, 8);
      return v;
    }
  }
  return 0.0;
}

Status WriteKdfFile(const std::string& path, const DataArray& array,
                    LayoutKind layout_kind, std::vector<int64_t> chunk_dims) {
  KdfHeader header;
  header.dtype = array.dtype();
  header.layout_kind = layout_kind;
  header.shape = array.shape();
  header.chunk_dims =
      layout_kind == LayoutKind::kChunked ? chunk_dims : std::vector<int64_t>{};
  if (layout_kind == LayoutKind::kChunked &&
      static_cast<int>(chunk_dims.size()) != array.shape().rank()) {
    return InvalidArgumentError("chunk_dims rank mismatch");
  }

  std::string bytes;
  bytes.append(kMagic, 4);
  bytes.push_back(static_cast<char>(array.shape().rank()));
  bytes.push_back(static_cast<char>(header.dtype));
  bytes.push_back(static_cast<char>(header.layout_kind));
  bytes.push_back(0);  // reserved
  for (int d = 0; d < array.shape().rank(); ++d) {
    AppendI64(&bytes, array.shape().dim(d));
  }
  if (layout_kind == LayoutKind::kChunked) {
    for (int64_t c : header.chunk_dims) {
      AppendI64(&bytes, c);
    }
  }

  std::unique_ptr<Layout> layout = header.MakeFileLayout();
  const int64_t payload_bytes = layout->PayloadBytes();
  std::string payload(static_cast<size_t>(payload_bytes), '\0');
  const int64_t elem = layout->element_size();
  array.shape().ForEachIndex([&](const Index& index) {
    const int64_t offset = layout->ByteOffsetOf(index);
    KONDO_CHECK_LE(offset + elem, payload_bytes);
    EncodeElement(array.At(index), header.dtype, payload.data() + offset);
  });
  bytes += payload;

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return InternalError("open for write failed: " + path);
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      ::close(fd);
      return InternalError("write failed: " + path);
    }
    written += static_cast<size_t>(n);
  }
  ::close(fd);
  return OkStatus();
}

KdfReader::KdfReader(int fd, KdfHeader header)
    : fd_(fd), header_(std::move(header)), layout_(header_.MakeFileLayout()) {}

KdfReader::~KdfReader() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

KdfReader::KdfReader(KdfReader&& other) noexcept
    : fd_(other.fd_),
      header_(std::move(other.header_)),
      layout_(std::move(other.layout_)) {
  other.fd_ = -1;
}

KdfReader& KdfReader::operator=(KdfReader&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    header_ = std::move(other.header_);
    layout_ = std::move(other.layout_);
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<KdfReader> KdfReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return NotFoundError("cannot open " + path);
  }
  char fixed[8];
  if (::pread(fd, fixed, 8, 0) != 8 || std::memcmp(fixed, kMagic, 4) != 0) {
    ::close(fd);
    return DataLossError("not a KDF file: " + path);
  }
  const int rank = static_cast<int>(fixed[4]);
  const uint8_t dtype_raw = static_cast<uint8_t>(fixed[5]);
  const uint8_t layout_raw = static_cast<uint8_t>(fixed[6]);
  if (rank < 1 || rank > kMaxRank || !IsValidDType(dtype_raw) ||
      layout_raw > 1) {
    ::close(fd);
    return DataLossError("corrupt KDF header: " + path);
  }
  KdfHeader header;
  header.dtype = static_cast<DType>(dtype_raw);
  header.layout_kind = static_cast<LayoutKind>(layout_raw);

  const int extra_vecs = header.layout_kind == LayoutKind::kChunked ? 2 : 1;
  std::vector<char> buf(static_cast<size_t>(8 * rank * extra_vecs));
  if (::pread(fd, buf.data(), buf.size(), 8) !=
      static_cast<ssize_t>(buf.size())) {
    ::close(fd);
    return DataLossError("truncated KDF header: " + path);
  }
  std::vector<int64_t> dims(rank);
  for (int d = 0; d < rank; ++d) {
    dims[d] = ReadI64(buf.data() + 8 * d);
    if (dims[d] <= 0) {
      ::close(fd);
      return DataLossError("corrupt KDF dims: " + path);
    }
  }
  header.shape = Shape(dims);
  if (header.layout_kind == LayoutKind::kChunked) {
    header.chunk_dims.resize(rank);
    for (int d = 0; d < rank; ++d) {
      header.chunk_dims[d] = ReadI64(buf.data() + 8 * (rank + d));
      if (header.chunk_dims[d] <= 0) {
        ::close(fd);
        return DataLossError("corrupt KDF chunk dims: " + path);
      }
    }
  }
  return KdfReader(fd, std::move(header));
}

int64_t KdfReader::FileBytes() const {
  return payload_offset() + layout_->PayloadBytes();
}

StatusOr<double> KdfReader::ReadElement(const Index& index) const {
  if (!shape().Contains(index)) {
    return OutOfRangeError("index out of bounds");
  }
  char buf[16];
  const int64_t elem = layout_->element_size();
  const int64_t offset = payload_offset() + layout_->ByteOffsetOf(index);
  KONDO_ASSIGN_OR_RETURN(int64_t n, ReadRaw(offset, elem, buf));
  if (n != elem) {
    return DataLossError("short read");
  }
  return DecodeElement(buf, header_.dtype);
}

StatusOr<int64_t> KdfReader::ReadRaw(int64_t offset, int64_t size,
                                     char* buf) const {
  if (offset < 0 || size < 0) {
    return InvalidArgumentError("negative offset or size");
  }
  int64_t total = 0;
  while (total < size) {
    const ssize_t n = ::pread(fd_, buf + total,
                              static_cast<size_t>(size - total),
                              offset + total);
    if (n < 0) {
      return InternalError("pread failed");
    }
    if (n == 0) {
      break;  // EOF
    }
    total += n;
  }
  return total;
}

StatusOr<DataArray> KdfReader::ReadAll() const {
  DataArray array(shape(), header_.dtype);
  const int64_t elem = layout_->element_size();
  const int64_t payload = layout_->PayloadBytes();
  // Every DType size divides kReadAllBlockBytes, so no element straddles two
  // blocks; only one block is buffered at a time.
  std::vector<char> buf(
      static_cast<size_t>(std::min(kReadAllBlockBytes, payload)));
  std::vector<ElementRun> runs;
  for (int64_t begin = 0; begin < payload; begin += kReadAllBlockBytes) {
    const int64_t end = std::min(payload, begin + kReadAllBlockBytes);
    KONDO_ASSIGN_OR_RETURN(
        int64_t got,
        ReadRaw(payload_offset() + begin, end - begin, buf.data()));
    if (got != end - begin) {
      return DataLossError("short read in ReadAll");
    }
    runs.clear();
    layout_->ElementRunsInByteRange(begin, end, &runs);
    for (const ElementRun& run : runs) {
      const char* src = buf.data() + (run.byte_offset - begin);
      for (int64_t i = 0; i < run.count; ++i) {
        array.SetLinear(run.first_linear + i,
                        DecodeElement(src + i * elem, header_.dtype));
      }
    }
  }
  return array;
}

}  // namespace kondo
