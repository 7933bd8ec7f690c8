#include "carve/carver.h"

#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "geom/vec.h"

namespace kondo {
namespace {

/// Cell coordinate of an index under SPLIT.
struct CellCoord {
  int64_t c[3] = {0, 0, 0};

  friend bool operator<(const CellCoord& a, const CellCoord& b) {
    for (int d = 0; d < 3; ++d) {
      if (a.c[d] != b.c[d]) {
        return a.c[d] < b.c[d];
      }
    }
    return false;
  }
};

struct ClosePair {
  int64_t i = -1;
  int64_t j = -1;
};

/// Lexicographically smallest CLOSE pair — smallest i, then smallest j —
/// or {-1, -1}.
ClosePair FindFirstClosePair(const Carver& carver,
                             const std::vector<Hull>& hulls) {
  const int64_t n = static_cast<int64_t>(hulls.size());
  for (int64_t i = 0; i + 1 < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (carver.Close(hulls[static_cast<size_t>(i)],
                       hulls[static_cast<size_t>(j)])) {
        return {i, j};
      }
    }
  }
  return {};
}

}  // namespace

bool Carver::Close(const Hull& a, const Hull& b) const {
  // The centroid test is one distance; the boundary test runs only when it
  // can still change the verdict, and stops at the first close vertex pair.
  const bool center_close = a.CentroidDistance(b) <= config_.center_d_thresh;
  switch (config_.close_mode) {
    case CloseMode::kBoundaryOrCenter:
      return center_close ||
             a.AnyVertexWithin(b, config_.boundary_d_thresh);
    case CloseMode::kBoundaryAndCenter:
      return center_close &&
             a.AnyVertexWithin(b, config_.boundary_d_thresh);
  }
  return false;
}

CarvedSubset Carver::Carve(const IndexSet& points, CarveStats* stats) const {
  const Shape& shape = points.shape();
  const int rank = shape.rank();
  KONDO_CHECK(rank >= 1 && rank <= 3);

  // SPLIT: bucket points into fixed-size cells.
  std::map<CellCoord, std::vector<Vec3>> cells;
  points.ForEach([this, rank, &cells](const Index& index) {
    CellCoord coord;
    for (int d = 0; d < rank; ++d) {
      coord.c[d] = index[d] / config_.cell_size;
    }
    cells[coord].push_back(Vec3::FromIndex(index));
  });

  // One hull per non-empty cell.
  std::vector<Hull> hulls;
  hulls.reserve(cells.size());
  for (auto& [coord, cell_points] : cells) {
    hulls.push_back(Hull::Build(cell_points, rank));
  }

  if (stats != nullptr) {
    stats->num_cells = static_cast<int>(cells.size());
    stats->initial_hulls = static_cast<int>(hulls.size());
    stats->merge_operations = 0;
  }

  // Iterated pairwise merging until no two hulls are CLOSE. Each merge
  // strictly decreases the hull count, so at most initial_hulls - 1 merges
  // happen; the rounds bound is a config safety net. Every round merges
  // the lexicographically smallest CLOSE pair.
  int rounds = 0;
  while (rounds++ < config_.max_merge_rounds) {
    const ClosePair pair = FindFirstClosePair(*this, hulls);
    if (pair.i < 0) {
      break;
    }
    std::vector<Vec3> union_vertices =
        hulls[static_cast<size_t>(pair.i)].vertices();
    union_vertices.insert(
        union_vertices.end(),
        hulls[static_cast<size_t>(pair.j)].vertices().begin(),
        hulls[static_cast<size_t>(pair.j)].vertices().end());
    Hull merged = Hull::Build(union_vertices, rank);
    hulls.erase(hulls.begin() + pair.j);
    hulls[static_cast<size_t>(pair.i)] = std::move(merged);
    if (stats != nullptr) {
      ++stats->merge_operations;
    }
  }

  if (stats != nullptr) {
    stats->final_hulls = static_cast<int>(hulls.size());
  }
  return CarvedSubset(shape, std::move(hulls));
}

IndexSet Carver::Rasterize(const CarvedSubset& carved,
                           CampaignExecutor& executor) {
  const std::vector<Hull>& hulls = carved.hulls();
  if (executor.jobs() <= 1 || hulls.size() <= 1) {
    return carved.Rasterize();
  }
  std::vector<IndexSet> per_hull = executor.Map<IndexSet>(
      static_cast<int64_t>(hulls.size()), [&carved, &hulls](int64_t i) {
        IndexSet points(carved.shape());
        hulls[static_cast<size_t>(i)].RasterizeInto(&points);
        return points;
      });
  IndexSet result(carved.shape());
  for (const IndexSet& points : per_hull) {
    result.Union(points);
  }
  return result;
}

CarvedSubset SimpleConvexCarve(const IndexSet& points) {
  const Shape& shape = points.shape();
  std::vector<Vec3> all_points;
  all_points.reserve(points.size());
  points.ForEach([&all_points](const Index& index) {
    all_points.push_back(Vec3::FromIndex(index));
  });
  std::vector<Hull> hulls;
  if (!all_points.empty()) {
    hulls.push_back(Hull::Build(all_points, shape.rank()));
  }
  return CarvedSubset(shape, std::move(hulls));
}

}  // namespace kondo
