#include "array/layout.h"

#include <algorithm>

#include "common/logging.h"

namespace kondo {

Interval Layout::ByteRangeOf(const Index& index) const {
  const int64_t begin = ByteOffsetOf(index);
  return Interval{begin, begin + element_size()};
}

int64_t RowMajorLayout::PayloadBytes() const {
  return shape().NumElements() * element_size();
}

int64_t RowMajorLayout::ByteOffsetOf(const Index& index) const {
  return shape().Linearize(index) * element_size();
}

StatusOr<Index> RowMajorLayout::IndexOfByteOffset(int64_t offset) const {
  if (offset < 0 || offset >= PayloadBytes()) {
    return OutOfRangeError("byte offset outside payload");
  }
  return shape().Delinearize(offset / element_size());
}

void RowMajorLayout::ElementRunsInByteRange(
    int64_t begin, int64_t end, std::vector<ElementRun>* out) const {
  begin = std::max<int64_t>(begin, 0);
  end = std::min(end, PayloadBytes());
  if (begin >= end) {
    return;
  }
  const int64_t elem = element_size();
  const int64_t first = begin / elem;
  const int64_t last = (end + elem - 1) / elem;
  out->push_back(ElementRun{first, last - first, first * elem});
}

ChunkedLayout::ChunkedLayout(Shape shape, DType dtype,
                             std::vector<int64_t> chunk_dims)
    : Layout(std::move(shape), dtype), chunk_dims_(std::move(chunk_dims)) {
  KONDO_CHECK_EQ(static_cast<int>(chunk_dims_.size()),
                 this->shape().rank());
  grid_dims_.resize(chunk_dims_.size());
  for (int d = 0; d < this->shape().rank(); ++d) {
    KONDO_CHECK_GT(chunk_dims_[d], 0);
    grid_dims_[d] =
        (this->shape().dim(d) + chunk_dims_[d] - 1) / chunk_dims_[d];
    chunk_elements_ *= chunk_dims_[d];
    num_chunks_ *= grid_dims_[d];
  }
}

int64_t ChunkedLayout::PayloadBytes() const {
  return num_chunks_ * chunk_elements_ * element_size();
}

int64_t ChunkedLayout::ByteOffsetOf(const Index& index) const {
  KONDO_CHECK(shape().Contains(index));
  int64_t chunk_linear = 0;
  int64_t within_linear = 0;
  for (int d = 0; d < shape().rank(); ++d) {
    const int64_t chunk_coord = index[d] / chunk_dims_[d];
    const int64_t within_coord = index[d] % chunk_dims_[d];
    chunk_linear = chunk_linear * grid_dims_[d] + chunk_coord;
    within_linear = within_linear * chunk_dims_[d] + within_coord;
  }
  return (chunk_linear * chunk_elements_ + within_linear) * element_size();
}

StatusOr<Index> ChunkedLayout::IndexOfByteOffset(int64_t offset) const {
  if (offset < 0 || offset >= PayloadBytes()) {
    return OutOfRangeError("byte offset outside payload");
  }
  const int64_t element_linear = offset / element_size();
  int64_t chunk_linear = element_linear / chunk_elements_;
  int64_t within_linear = element_linear % chunk_elements_;
  Index index(shape().rank());
  // Decode chunk and within-chunk coordinates (row-major, innermost last).
  for (int d = shape().rank() - 1; d >= 0; --d) {
    const int64_t chunk_coord = chunk_linear % grid_dims_[d];
    const int64_t within_coord = within_linear % chunk_dims_[d];
    chunk_linear /= grid_dims_[d];
    within_linear /= chunk_dims_[d];
    index[d] = chunk_coord * chunk_dims_[d] + within_coord;
  }
  if (!shape().Contains(index)) {
    return NotFoundError("offset addresses edge-chunk padding");
  }
  return index;
}

void ChunkedLayout::ElementRunsInByteRange(
    int64_t begin, int64_t end, std::vector<ElementRun>* out) const {
  begin = std::max<int64_t>(begin, 0);
  end = std::min(end, PayloadBytes());
  if (begin >= end) {
    return;
  }
  const int rank = shape().rank();
  const int inner = rank - 1;
  const int64_t elem = element_size();
  const int64_t row_len = chunk_dims_[inner];
  // Storage slots (element-sized, padding included) overlapping the range.
  int64_t slot = begin / elem;
  const int64_t slot_end = (end + elem - 1) / elem;
  int64_t origin[kMaxRank];  // First index of the current chunk.
  int64_t coord[kMaxRank];   // Index of the current chunk row's first slot.
  while (slot < slot_end) {
    const int64_t chunk = slot / chunk_elements_;
    const int64_t chunk_base = chunk * chunk_elements_;
    const int64_t chunk_stop = std::min(slot_end, chunk_base + chunk_elements_);
    int64_t rest = chunk;
    for (int d = rank - 1; d >= 0; --d) {
      origin[d] = (rest % grid_dims_[d]) * chunk_dims_[d];
      rest /= grid_dims_[d];
    }
    // Columns of a chunk row past the shape's edge are padding.
    const int64_t valid_cols =
        std::min(row_len, shape().dim(inner) - origin[inner]);
    while (slot < chunk_stop) {
      const int64_t within = slot - chunk_base;
      const int64_t row = within / row_len;
      const int64_t col = within % row_len;
      const int64_t row_stop =
          std::min(chunk_stop, chunk_base + (row + 1) * row_len);
      const int64_t col_stop =
          std::min(row_stop - chunk_base - row * row_len, valid_cols);
      bool inside = col < col_stop;
      rest = row;
      for (int d = inner - 1; d >= 0 && inside; --d) {
        coord[d] = origin[d] + rest % chunk_dims_[d];
        rest /= chunk_dims_[d];
        inside = coord[d] < shape().dim(d);
      }
      if (inside) {
        int64_t linear = 0;
        for (int d = 0; d < inner; ++d) {
          linear = linear * shape().dim(d) + coord[d];
        }
        linear = linear * shape().dim(inner) + origin[inner] + col;
        out->push_back(ElementRun{linear, col_stop - col, slot * elem});
      }
      slot = row_stop;
    }
  }
}

std::unique_ptr<Layout> MakeLayout(LayoutKind kind, Shape shape, DType dtype,
                                   std::vector<int64_t> chunk_dims) {
  switch (kind) {
    case LayoutKind::kRowMajor:
      return std::make_unique<RowMajorLayout>(std::move(shape), dtype);
    case LayoutKind::kChunked:
      return std::make_unique<ChunkedLayout>(std::move(shape), dtype,
                                             std::move(chunk_dims));
  }
  return nullptr;
}

}  // namespace kondo
