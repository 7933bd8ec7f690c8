#ifndef KONDO_AUDIT_OFFSET_MAPPER_H_
#define KONDO_AUDIT_OFFSET_MAPPER_H_

#include <cstdint>

#include "array/index_set.h"
#include "array/layout.h"
#include "common/interval_set.h"

namespace kondo {

/// Translates between the byte-offset space of audited events and the
/// d-dimensional index space the Fuzzer and Carver reason about
/// (Section IV-C: "Kondo must maintain a mapping between index tuples and
/// byte offsets ... using knowledge of metadata of the data file").
///
/// `payload_offset` is the file position of the first payload byte (the KDF
/// header size); event offsets are absolute file offsets.
class OffsetMapper {
 public:
  OffsetMapper(const Layout* layout, int64_t payload_offset)
      : layout_(layout), payload_offset_(payload_offset) {}

  /// Maps merged accessed byte ranges to the set of touched element indices.
  /// Bytes inside the header or chunk padding map to no element. Partially
  /// covered elements count as accessed. Each range becomes the layout's
  /// element runs (one for row-major, one per chunk row for chunked), each
  /// inserted as a range of linear ids — no per-element work.
  IndexSet IndicesForRanges(const IntervalSet& ranges) const;

  /// Inverse: the byte ranges occupied by the elements of `indices`
  /// (coalesced into maximal runs).
  IntervalSet RangesForIndices(const IndexSet& indices) const;

  /// Absolute byte range of one element.
  Interval RangeForIndex(const Index& index) const;

 private:
  const Layout* layout_;
  int64_t payload_offset_;
};

}  // namespace kondo

#endif  // KONDO_AUDIT_OFFSET_MAPPER_H_
