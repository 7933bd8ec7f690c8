#include "shard/shard_plan.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace kondo {

double PlanWeights::FileWeight(int f) const {
  double total = 0.0;
  for (double w : per_file[static_cast<size_t>(f)]) {
    total += w;
  }
  return total;
}

bool PlanWeights::IsUniform() const {
  double first = 0.0;
  bool seen = false;
  for (const std::vector<double>& file : per_file) {
    for (double w : file) {
      if (!seen) {
        first = w;
        seen = true;
      } else if (w != first) {
        return false;
      }
    }
  }
  return true;
}

int64_t Shard::NumElements() const {
  int64_t total = 0;
  for (const ShardSlice& slice : slices) {
    total += slice.NumElements();
  }
  return total;
}

namespace {

/// One whole-file slice.
ShardSlice WholeFile(int file, const Shape& shape) {
  return ShardSlice{file, 0, shape.NumElements()};
}

/// Splits file `file` (with `elements` linear ids) into `parts` contiguous
/// near-equal ranges. Requires 1 <= parts <= elements.
std::vector<ShardSlice> SplitFile(int file, int64_t elements, int64_t parts) {
  std::vector<ShardSlice> slices;
  slices.reserve(static_cast<size_t>(parts));
  for (int64_t p = 0; p < parts; ++p) {
    const int64_t begin = elements * p / parts;
    const int64_t end = elements * (p + 1) / parts;
    slices.push_back(ShardSlice{file, begin, end});
  }
  return slices;
}

}  // namespace

StatusOr<ShardPlan> PlanGeometry(const std::vector<Shape>& file_shapes) {
  if (file_shapes.empty()) {
    return InvalidArgumentError("cannot plan shards over zero files");
  }
  ShardPlan plan;
  plan.file_shapes = file_shapes;
  plan.offsets.assign(file_shapes.size() + 1, 0);
  for (size_t f = 0; f < file_shapes.size(); ++f) {
    const int64_t elements = file_shapes[f].NumElements();
    if (elements <= 0) {
      return InvalidArgumentError(
          StrCat("file ", f, " has no elements (shape ",
                 file_shapes[f].ToString(), ")"));
    }
    plan.offsets[f + 1] = plan.offsets[f] + elements;
  }
  return plan;
}

StatusOr<ShardPlan> PlanShards(const std::vector<Shape>& file_shapes,
                               int shards) {
  if (shards <= 0) {
    return InvalidArgumentError(
        StrCat("shards must be positive, got ", shards));
  }
  KONDO_ASSIGN_OR_RETURN(ShardPlan plan, PlanGeometry(file_shapes));

  const int files = static_cast<int>(file_shapes.size());
  const int64_t total = plan.offsets.back();

  if (shards >= files) {
    // Per-file shards, with extra splits for the largest files. Each extra
    // split goes to the file whose elements-per-split is currently largest
    // (ties to the lowest ordinal); a file never receives more splits than
    // it has elements, so tiny arrays can yield fewer shards than asked.
    std::vector<int64_t> splits(static_cast<size_t>(files), 1);
    for (int extra = shards - files; extra > 0; --extra) {
      int best = -1;
      int64_t best_load = 0;
      for (int f = 0; f < files; ++f) {
        const int64_t elements = file_shapes[static_cast<size_t>(f)]
                                     .NumElements();
        if (splits[static_cast<size_t>(f)] >= elements) {
          continue;  // Already one element per range.
        }
        const int64_t load = elements / splits[static_cast<size_t>(f)];
        if (load > best_load) {
          best_load = load;
          best = f;
        }
      }
      if (best < 0) {
        break;  // Every file is maximally split.
      }
      ++splits[static_cast<size_t>(best)];
    }
    for (int f = 0; f < files; ++f) {
      for (ShardSlice& slice :
           SplitFile(f, file_shapes[static_cast<size_t>(f)].NumElements(),
                     splits[static_cast<size_t>(f)])) {
        Shard shard;
        shard.id = plan.num_shards();
        shard.slices.push_back(slice);
        plan.shards.push_back(std::move(shard));
      }
    }
  } else {
    // Fewer shards than files: contiguous file groups balanced by element
    // count. Shard s ends at the first file whose cumulative element count
    // reaches (s+1)/shards of the total, always leaving at least one file
    // for each remaining shard.
    int f = 0;
    for (int s = 0; s < shards; ++s) {
      Shard shard;
      shard.id = s;
      const int64_t target = total * (s + 1) / shards;
      do {
        shard.slices.push_back(
            WholeFile(f, file_shapes[static_cast<size_t>(f)]));
        ++f;
      } while (f < files && files - f > shards - s - 1 &&
               plan.offsets[static_cast<size_t>(f)] < target);
      plan.shards.push_back(std::move(shard));
    }
  }

  KONDO_RETURN_IF_ERROR(ValidateShardPlan(plan));
  return plan;
}

namespace {

/// Splits file `file` into `parts` contiguous ranges with near-equal
/// summed weight: boundary p is the largest prefix whose cumulative weight
/// does not exceed p/parts of the file total, clamped so every range keeps
/// at least one element. Requires 1 <= parts <= elements.
std::vector<ShardSlice> SplitFileWeighted(int file,
                                          const std::vector<double>& weights,
                                          int64_t parts) {
  const int64_t elements = static_cast<int64_t>(weights.size());
  std::vector<double> prefix(static_cast<size_t>(elements) + 1, 0.0);
  for (int64_t i = 0; i < elements; ++i) {
    prefix[static_cast<size_t>(i) + 1] =
        prefix[static_cast<size_t>(i)] + weights[static_cast<size_t>(i)];
  }
  const double total = prefix.back();
  std::vector<int64_t> bounds(static_cast<size_t>(parts) + 1, 0);
  bounds[static_cast<size_t>(parts)] = elements;
  for (int64_t p = 1; p < parts; ++p) {
    const double quota = total * static_cast<double>(p) /
                         static_cast<double>(parts);
    // Largest k with prefix(k) <= quota.
    const auto it = std::upper_bound(prefix.begin(), prefix.end(), quota);
    int64_t k = static_cast<int64_t>(it - prefix.begin()) - 1;
    // Clamp: strictly after the previous boundary, and early enough that
    // every remaining range keeps at least one element.
    k = std::max(k, bounds[static_cast<size_t>(p) - 1] + 1);
    k = std::min(k, elements - (parts - p));
    bounds[static_cast<size_t>(p)] = k;
  }
  std::vector<ShardSlice> slices;
  slices.reserve(static_cast<size_t>(parts));
  for (int64_t p = 0; p < parts; ++p) {
    slices.push_back(ShardSlice{file, bounds[static_cast<size_t>(p)],
                                bounds[static_cast<size_t>(p) + 1]});
  }
  return slices;
}

}  // namespace

StatusOr<ShardPlan> PlanShards(const std::vector<Shape>& file_shapes,
                               int shards, const PlanWeights& weights) {
  if (weights.empty() || weights.IsUniform()) {
    return PlanShards(file_shapes, shards);
  }
  if (shards <= 0) {
    return InvalidArgumentError(
        StrCat("shards must be positive, got ", shards));
  }
  if (weights.per_file.size() != file_shapes.size()) {
    return InvalidArgumentError(
        StrCat("plan weights cover ", weights.per_file.size(),
               " files, the campaign has ", file_shapes.size()));
  }
  for (size_t f = 0; f < file_shapes.size(); ++f) {
    const int64_t elements = file_shapes[f].NumElements();
    if (static_cast<int64_t>(weights.per_file[f].size()) != elements) {
      return InvalidArgumentError(
          StrCat("plan weights for file ", f, " cover ",
                 weights.per_file[f].size(), " elements, the file has ",
                 elements));
    }
    for (double w : weights.per_file[f]) {
      if (!std::isfinite(w) || w <= 0.0) {
        return InvalidArgumentError(
            StrCat("plan weights for file ", f,
                   " contain a non-finite or non-positive entry"));
      }
    }
  }

  KONDO_ASSIGN_OR_RETURN(ShardPlan plan, PlanGeometry(file_shapes));

  const int files = static_cast<int>(file_shapes.size());
  std::vector<double> file_weight(static_cast<size_t>(files), 0.0);
  double total_weight = 0.0;
  for (int f = 0; f < files; ++f) {
    file_weight[static_cast<size_t>(f)] = weights.FileWeight(f);
    total_weight += file_weight[static_cast<size_t>(f)];
  }

  if (shards >= files) {
    // Per-file shards, extra splits to the heaviest files: each extra
    // split goes to the file whose weight-per-split is currently largest
    // (ties to the lowest ordinal), mirroring the unweighted planner's
    // elements-per-split rule.
    std::vector<int64_t> splits(static_cast<size_t>(files), 1);
    for (int extra = shards - files; extra > 0; --extra) {
      int best = -1;
      double best_load = 0.0;
      for (int f = 0; f < files; ++f) {
        const int64_t elements =
            file_shapes[static_cast<size_t>(f)].NumElements();
        if (splits[static_cast<size_t>(f)] >= elements) {
          continue;  // Already one element per range.
        }
        const double load = file_weight[static_cast<size_t>(f)] /
                            static_cast<double>(splits[static_cast<size_t>(f)]);
        if (load > best_load) {
          best_load = load;
          best = f;
        }
      }
      if (best < 0) {
        break;  // Every file is maximally split.
      }
      ++splits[static_cast<size_t>(best)];
    }
    for (int f = 0; f < files; ++f) {
      for (ShardSlice& slice :
           SplitFileWeighted(f, weights.per_file[static_cast<size_t>(f)],
                             splits[static_cast<size_t>(f)])) {
        Shard shard;
        shard.id = plan.num_shards();
        shard.slices.push_back(slice);
        plan.shards.push_back(std::move(shard));
      }
    }
  } else {
    // Fewer shards than files: contiguous file groups balanced by summed
    // weight, every group at least one whole file.
    int f = 0;
    double cumulative = 0.0;
    for (int s = 0; s < shards; ++s) {
      Shard shard;
      shard.id = s;
      const double target = total_weight * static_cast<double>(s + 1) /
                            static_cast<double>(shards);
      do {
        shard.slices.push_back(ShardSlice{
            f, 0, file_shapes[static_cast<size_t>(f)].NumElements()});
        cumulative += file_weight[static_cast<size_t>(f)];
        ++f;
      } while (f < files && files - f > shards - s - 1 &&
               cumulative < target);
      plan.shards.push_back(std::move(shard));
    }
  }

  KONDO_RETURN_IF_ERROR(ValidateShardPlan(plan));
  return plan;
}

Status ValidateShardPlan(const ShardPlan& plan) {
  if (plan.file_shapes.empty() || plan.shards.empty()) {
    return InvalidArgumentError("empty shard plan");
  }
  if (plan.offsets.size() != plan.file_shapes.size() + 1) {
    return InternalError("shard plan offsets/shapes mismatch");
  }
  // Collect every slice, sort by (file, begin), and require the slices of
  // each file to tile [0, NumElements) exactly.
  std::vector<ShardSlice> slices;
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    if (plan.shards[s].id != static_cast<int>(s)) {
      return InternalError(StrCat("shard ", s, " has id ", plan.shards[s].id));
    }
    for (const ShardSlice& slice : plan.shards[s].slices) {
      if (slice.file < 0 || slice.file >= plan.num_files()) {
        return InternalError(StrCat("slice names unknown file ", slice.file));
      }
      if (slice.begin < 0 || slice.begin >= slice.end ||
          slice.end >
              plan.file_shapes[static_cast<size_t>(slice.file)]
                  .NumElements()) {
        return InternalError(StrCat("bad slice range [", slice.begin, ",",
                                    slice.end, ") for file ", slice.file));
      }
      slices.push_back(slice);
    }
  }
  std::sort(slices.begin(), slices.end(),
            [](const ShardSlice& a, const ShardSlice& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.begin < b.begin;
            });
  size_t i = 0;
  for (int f = 0; f < plan.num_files(); ++f) {
    int64_t cursor = 0;
    const int64_t elements =
        plan.file_shapes[static_cast<size_t>(f)].NumElements();
    while (cursor < elements) {
      if (i >= slices.size() || slices[i].file != f ||
          slices[i].begin != cursor) {
        return InternalError(
            StrCat("file ", f, " not tiled at linear id ", cursor));
      }
      cursor = slices[i].end;
      ++i;
    }
  }
  if (i != slices.size()) {
    return InternalError("shard plan has overlapping slices");
  }
  return OkStatus();
}

}  // namespace kondo
