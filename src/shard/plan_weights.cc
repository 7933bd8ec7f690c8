#include "shard/plan_weights.h"

#include <algorithm>

#include "provenance/kel2_reader.h"
#include "provenance/provenance_query.h"
#include "shard/shard_campaign.h"

namespace kondo {

StatusOr<PlanWeights> WeightsFromLineageStore(
    const std::string& kel2_path, const std::vector<Shape>& file_shapes) {
  KONDO_ASSIGN_OR_RETURN(Kel2Reader reader, Kel2Reader::Open(kel2_path));
  ProvenanceQuery query(&reader);

  PlanWeights weights;
  weights.per_file.reserve(file_shapes.size());
  for (size_t f = 0; f < file_shapes.size(); ++f) {
    const int64_t elements = file_shapes[f].NumElements();
    std::vector<double> file_weights(static_cast<size_t>(elements),
                                     kColdElementWeight);
    KONDO_ASSIGN_OR_RETURN(IntervalSet ranges,
                           query.AccessedRanges(static_cast<int64_t>(f) + 1));
    for (const Interval& range : ranges.ToIntervals()) {
      // Canonical lineage byte i*8 .. i*8+8 <-> element i; count an
      // element hot when any byte of its range was touched.
      const int64_t first = range.begin / kLineageElemBytes;
      const int64_t last = (range.end + kLineageElemBytes - 1) /
                           kLineageElemBytes;
      for (int64_t i = std::max<int64_t>(first, 0);
           i < std::min(last, elements); ++i) {
        file_weights[static_cast<size_t>(i)] = kHotElementWeight;
      }
    }
    weights.per_file.push_back(std::move(file_weights));
  }
  return weights;
}

PlanWeights WeightsFromIndexSets(const std::vector<IndexSet>& per_file) {
  PlanWeights weights;
  weights.per_file.reserve(per_file.size());
  for (const IndexSet& set : per_file) {
    std::vector<double> file_weights(
        static_cast<size_t>(set.shape().NumElements()), kColdElementWeight);
    set.ForEachLinear([&file_weights](int64_t id) {
      file_weights[static_cast<size_t>(id)] = kHotElementWeight;
    });
    weights.per_file.push_back(std::move(file_weights));
  }
  return weights;
}

}  // namespace kondo
