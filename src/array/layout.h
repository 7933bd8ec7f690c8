#ifndef KONDO_ARRAY_LAYOUT_H_
#define KONDO_ARRAY_LAYOUT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "array/dtype.h"
#include "array/index.h"
#include "array/shape.h"
#include "common/interval_set.h"
#include "common/statusor.h"

namespace kondo {

/// A run of `count` elements whose storage starts at payload byte
/// `byte_offset` and whose row-major linear ids are
/// [first_linear, first_linear + count).
struct ElementRun {
  int64_t first_linear = 0;
  int64_t count = 0;
  int64_t byte_offset = 0;

  friend bool operator==(const ElementRun&, const ElementRun&) = default;
};

/// Maps between logical index tuples and physical byte offsets inside a data
/// file payload (Section IV-C: "Kondo must maintain a mapping between index
/// tuples and byte offsets"). Offsets are relative to the payload start;
/// the file header size is added by the file reader/writer.
class Layout {
 public:
  virtual ~Layout() = default;

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  int64_t element_size() const { return DTypeSize(dtype_); }

  /// Total payload size in bytes.
  virtual int64_t PayloadBytes() const = 0;

  /// Byte offset of the first byte of the element at `index`.
  /// Requires shape().Contains(index).
  virtual int64_t ByteOffsetOf(const Index& index) const = 0;

  /// Inverse mapping: the element whose storage covers byte `offset`.
  /// Fails with OutOfRange for offsets outside the payload, and with
  /// NotFound for padding bytes that belong to no element (chunked layouts
  /// pad edge chunks, as HDF5 does).
  virtual StatusOr<Index> IndexOfByteOffset(int64_t offset) const = 0;

  /// Appends to `out`, in ascending byte order, runs covering every element
  /// whose storage overlaps the byte range [begin, end): each run is a
  /// stretch of elements contiguous both in storage and in row-major
  /// linear ids. Padding bytes are skipped; the range is clipped to the
  /// payload. A row-major layout yields at most one run, a chunked layout
  /// one per chunk row (clipped to the shape at partial edge chunks).
  virtual void ElementRunsInByteRange(int64_t begin, int64_t end,
                                      std::vector<ElementRun>* out) const = 0;

  /// The byte range [first, last) occupied by the element at `index`.
  Interval ByteRangeOf(const Index& index) const;

 protected:
  Layout(Shape shape, DType dtype)
      : shape_(std::move(shape)), dtype_(dtype) {}

 private:
  Shape shape_;
  DType dtype_;
};

/// Dense row-major ("C order") layout: offset = linear(index) * elem_size.
class RowMajorLayout final : public Layout {
 public:
  RowMajorLayout(Shape shape, DType dtype)
      : Layout(std::move(shape), dtype) {}

  int64_t PayloadBytes() const override;
  int64_t ByteOffsetOf(const Index& index) const override;
  StatusOr<Index> IndexOfByteOffset(int64_t offset) const override;
  void ElementRunsInByteRange(int64_t begin, int64_t end,
                              std::vector<ElementRun>* out) const override;
};

/// Chunked layout (HDF5-style): the array is tiled by fixed-size chunks laid
/// out row-major by chunk coordinate; elements within a chunk are row-major.
/// Edge chunks are padded to the full chunk size, as HDF5 does.
class ChunkedLayout final : public Layout {
 public:
  /// `chunk_dims` must have the array's rank with positive extents.
  ChunkedLayout(Shape shape, DType dtype, std::vector<int64_t> chunk_dims);

  const std::vector<int64_t>& chunk_dims() const { return chunk_dims_; }

  /// Number of chunks along dimension `d`.
  int64_t ChunkGridDim(int d) const { return grid_dims_[d]; }

  int64_t PayloadBytes() const override;
  int64_t ByteOffsetOf(const Index& index) const override;
  StatusOr<Index> IndexOfByteOffset(int64_t offset) const override;
  void ElementRunsInByteRange(int64_t begin, int64_t end,
                              std::vector<ElementRun>* out) const override;

 private:
  std::vector<int64_t> chunk_dims_;
  std::vector<int64_t> grid_dims_;  // Chunks per dimension (ceil division).
  int64_t chunk_elements_ = 1;      // Elements per (padded) chunk.
  int64_t num_chunks_ = 1;
};

/// Layout kinds as stored in KDF headers.
enum class LayoutKind : uint8_t { kRowMajor = 0, kChunked = 1 };

/// Constructs a layout of the given kind. For kChunked, `chunk_dims` must be
/// non-empty; for kRowMajor it is ignored.
std::unique_ptr<Layout> MakeLayout(LayoutKind kind, Shape shape, DType dtype,
                                   std::vector<int64_t> chunk_dims = {});

}  // namespace kondo

#endif  // KONDO_ARRAY_LAYOUT_H_
