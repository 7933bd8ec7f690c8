#include "audit/offset_mapper.h"

#include <vector>

namespace kondo {

IndexSet OffsetMapper::IndicesForRanges(const IntervalSet& ranges) const {
  IndexSet result(layout_->shape());
  std::vector<ElementRun> runs;
  for (const Interval& range : ranges.ToIntervals()) {
    runs.clear();
    layout_->ElementRunsInByteRange(range.begin - payload_offset_,
                                    range.end - payload_offset_, &runs);
    for (const ElementRun& run : runs) {
      result.InsertRange(run.first_linear, run.first_linear + run.count);
    }
  }
  return result;
}

IntervalSet OffsetMapper::RangesForIndices(const IndexSet& indices) const {
  IntervalSet ranges;
  indices.ForEach([this, &ranges](const Index& index) {
    ranges.Add(RangeForIndex(index));
  });
  return ranges;
}

Interval OffsetMapper::RangeForIndex(const Index& index) const {
  Interval range = layout_->ByteRangeOf(index);
  range.begin += payload_offset_;
  range.end += payload_offset_;
  return range;
}

}  // namespace kondo
