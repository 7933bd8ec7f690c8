#include "geom/hull.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace kondo {
namespace {

/// Sort-and-dedupe for exact coordinate duplicates.
void DedupePoints(std::vector<Vec3>* points) {
  std::sort(points->begin(), points->end(),
            [](const Vec3& a, const Vec3& b) {
              if (a.x != b.x) return a.x < b.x;
              if (a.y != b.y) return a.y < b.y;
              return a.z < b.z;
            });
  points->erase(std::unique(points->begin(), points->end()), points->end());
}

/// A hull facet (or polygon edge) as an ambient half-space: every point p
/// the facet's `Contains` test accepts satisfies
/// Dot(normal, p) <= bound, up to rounding; `bound` includes the tolerance.
struct HalfSpace {
  Vec3 normal;
  double bound = 0.0;
};

/// Scanline tuning. A half-space whose normal has a last-axis component
/// within kParallelSlope of zero is treated as parallel to the columns:
/// lattice facets have components of at least ~1e-6 or exactly zero up to
/// rounding. A column outside such a half-space by more than
/// kParallelSlack is empty; lattice points are either on a facet plane
/// (|distance| ~1e-13) or ~1e-5 and more away from it, so that decision
/// matches Contains. kRunSlack widens each solved run far beyond rounding
/// error yet well inside one lattice step, and Contains then trims the
/// ends exactly.
constexpr double kParallelSlope = 1e-9;
constexpr double kParallelSlack = 1e-9;
constexpr double kRunSlack = 1e-3;

/// The integral value `v` clamped to [lo, hi] (infinities included).
int64_t ClampToInt(double v, int64_t lo, int64_t hi) {
  if (v <= static_cast<double>(lo)) return lo;
  if (v >= static_cast<double>(hi)) return hi;
  return static_cast<int64_t>(v);
}

/// Maps a local-frame half-space Dot(n, L(p)) <= offset + tol, with
/// L(p) = basis . (p - origin), into ambient coordinates.
HalfSpace ToAmbient(const Vec3& local_normal, double offset, double tol,
                    const Vec3& origin, const Vec3 basis[3]) {
  HalfSpace plane;
  for (int b = 0; b < 3; ++b) {
    plane.normal += basis[b] * local_normal[b];
  }
  plane.bound = offset + tol + Dot(plane.normal, origin);
  return plane;
}

/// Half-spaces of a 3-D hull's facets (PointInHull3D's tests).
std::vector<HalfSpace> FacetHalfSpaces(const Hull3D& hull, const Vec3& origin,
                                       const Vec3 basis[3], double tol) {
  std::vector<HalfSpace> planes;
  planes.reserve(hull.facets.size());
  for (const HullFacet& facet : hull.facets) {
    planes.push_back(
        ToAmbient(facet.normal, facet.offset, tol, origin, basis));
  }
  return planes;
}

/// Half-spaces of a CCW polygon's edges (PointInConvexPolygon's tests:
/// Cross2(a, b, p) >= -tol * |b - a|, i.e. the outward unit normal's
/// distance is at most tol). Empty for degenerate polygons, which that
/// predicate treats as a point or a segment.
std::vector<HalfSpace> PolygonHalfSpaces(const std::vector<Vec2>& polygon,
                                         const Vec3& origin,
                                         const Vec3 basis[3], double tol) {
  std::vector<HalfSpace> planes;
  if (polygon.size() < 3) {
    return planes;
  }
  for (size_t i = 0; i < polygon.size(); ++i) {
    const Vec2& a = polygon[i];
    const Vec2& b = polygon[(i + 1) % polygon.size()];
    const double edge_len = std::hypot(b.x - a.x, b.y - a.y);
    if (edge_len <= 0.0) {
      continue;
    }
    const Vec3 outward((b.y - a.y) / edge_len, (a.x - b.x) / edge_len, 0.0);
    planes.push_back(ToAmbient(outward, outward.x * a.x + outward.y * a.y,
                               tol, origin, basis));
  }
  return planes;
}

}  // namespace

Hull Hull::Build(const std::vector<Vec3>& input_points, int rank) {
  KONDO_CHECK(rank >= 1 && rank <= 3);
  KONDO_CHECK(!input_points.empty());
  std::vector<Vec3> points = input_points;
  DedupePoints(&points);

  Hull hull;
  hull.rank_ = rank;
  hull.origin_ = points[0];

  // Greedy affine-basis construction: repeatedly pick the point with the
  // largest residual after projecting onto the current basis.
  int affine_rank = 0;
  while (affine_rank < rank) {
    double best_residual = kGeomTol;
    Vec3 best_direction;
    bool found = false;
    for (const Vec3& p : points) {
      Vec3 rel = p - hull.origin_;
      for (int b = 0; b < affine_rank; ++b) {
        rel = rel - hull.basis_[b] * Dot(rel, hull.basis_[b]);
      }
      const double residual = Norm(rel);
      if (residual > best_residual) {
        best_residual = residual;
        best_direction = rel / residual;
        found = true;
      }
    }
    if (!found) {
      break;
    }
    hull.basis_[affine_rank++] = best_direction;
  }
  hull.affine_rank_ = affine_rank;

  switch (affine_rank) {
    case 0: {
      hull.vertices_ = {hull.origin_};
      break;
    }
    case 1: {
      double lo = 0.0;
      double hi = 0.0;
      for (const Vec3& p : points) {
        const double t = Dot(p - hull.origin_, hull.basis_[0]);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
      hull.seg_lo_ = lo;
      hull.seg_hi_ = hi;
      hull.vertices_ = {hull.origin_ + hull.basis_[0] * lo,
                        hull.origin_ + hull.basis_[0] * hi};
      break;
    }
    case 2: {
      std::vector<Vec2> local(points.size());
      for (size_t i = 0; i < points.size(); ++i) {
        const Vec3 rel = points[i] - hull.origin_;
        local[i] = Vec2{Dot(rel, hull.basis_[0]), Dot(rel, hull.basis_[1])};
      }
      hull.polygon_ = ConvexHull2D(std::move(local));
      hull.vertices_.reserve(hull.polygon_.size());
      for (const Vec2& v : hull.polygon_) {
        hull.vertices_.push_back(hull.origin_ + hull.basis_[0] * v.x +
                                 hull.basis_[1] * v.y);
      }
      break;
    }
    case 3: {
      hull.local_points_.resize(points.size());
      for (size_t i = 0; i < points.size(); ++i) {
        const Vec3 rel = points[i] - hull.origin_;
        hull.local_points_[i] =
            Vec3(Dot(rel, hull.basis_[0]), Dot(rel, hull.basis_[1]),
                 Dot(rel, hull.basis_[2]));
      }
      hull.hull3d_ = ConvexHull3D(hull.local_points_);
      hull.vertices_.reserve(hull.hull3d_.vertex_indices.size());
      for (int idx : hull.hull3d_.vertex_indices) {
        hull.vertices_.push_back(points[static_cast<size_t>(idx)]);
      }
      break;
    }
    default:
      KONDO_LOG(Fatal) << "unreachable affine rank";
  }

  Vec3 sum;
  for (const Vec3& v : hull.vertices_) {
    sum += v;
  }
  hull.centroid_ = sum / static_cast<double>(hull.vertices_.size());
  return hull;
}

Hull Hull::FromIndices(const std::vector<Index>& indices, int rank) {
  std::vector<Vec3> points;
  points.reserve(indices.size());
  for (const Index& index : indices) {
    points.push_back(Vec3::FromIndex(index));
  }
  return Build(points, rank);
}

Vec3 Hull::ToLocal(const Vec3& p, double* residual) const {
  Vec3 rel = p - origin_;
  Vec3 local;
  for (int b = 0; b < affine_rank_; ++b) {
    local[b] = Dot(rel, basis_[b]);
    rel = rel - basis_[b] * local[b];
  }
  if (residual != nullptr) {
    *residual = Norm(rel);
  }
  return local;
}

bool Hull::Contains(const Vec3& p, double tol) const {
  double residual = 0.0;
  const Vec3 local = ToLocal(p, &residual);
  if (residual > tol) {
    return false;
  }
  switch (affine_rank_) {
    case 0:
      return true;  // residual already checked against the single point.
    case 1:
      return local.x >= seg_lo_ - tol && local.x <= seg_hi_ + tol;
    case 2:
      return PointInConvexPolygon(polygon_, Vec2{local.x, local.y}, tol);
    case 3:
      return PointInHull3D(hull3d_, local, tol);
    default:
      return false;
  }
}

bool Hull::ContainsIndex(const Index& index, double tol) const {
  return Contains(Vec3::FromIndex(index), tol);
}

double Hull::Measure() const {
  switch (affine_rank_) {
    case 0:
      return 0.0;
    case 1:
      return seg_hi_ - seg_lo_;
    case 2:
      return ConvexPolygonArea(polygon_);
    case 3:
      return Hull3DVolume(hull3d_, local_points_);
    default:
      return 0.0;
  }
}

bool Hull::AnyVertexWithin(const Hull& other, double d) const {
  for (const Vec3& a : vertices_) {
    for (const Vec3& b : other.vertices_) {
      if (Distance(a, b) <= d) {
        return true;
      }
    }
  }
  return false;
}

double Hull::CentroidDistance(const Hull& other) const {
  return Distance(centroid_, other.centroid_);
}

void Hull::IntegerBounds(int64_t lo[3], int64_t hi[3]) const {
  for (int d = 0; d < 3; ++d) {
    lo[d] = 0;
    hi[d] = 0;
  }
  bool first = true;
  for (const Vec3& v : vertices_) {
    for (int d = 0; d < rank_; ++d) {
      const int64_t vlo = static_cast<int64_t>(std::floor(v[d] - kGeomTol));
      const int64_t vhi = static_cast<int64_t>(std::ceil(v[d] + kGeomTol));
      if (first) {
        lo[d] = vlo;
        hi[d] = vhi;
      } else {
        lo[d] = std::min(lo[d], vlo);
        hi[d] = std::max(hi[d], vhi);
      }
    }
    first = false;
  }
}

template <typename EmitRun>
void Hull::ForEachRun(const Shape& shape, double tol, EmitRun&& emit) const {
  KONDO_CHECK_EQ(shape.rank(), rank_);
  int64_t lo[3];
  int64_t hi[3];
  IntegerBounds(lo, hi);
  for (int d = 0; d < rank_; ++d) {
    lo[d] = std::max<int64_t>(lo[d], 0);
    hi[d] = std::min<int64_t>(hi[d], shape.dim(d) - 1);
  }
  // Dimensions beyond rank_ are degenerate single iterations.
  for (int d = rank_; d < 3; ++d) {
    lo[d] = 0;
    hi[d] = 0;
  }
  const int axis = rank_ - 1;
  std::vector<HalfSpace> planes;
  if (affine_rank_ == rank_) {
    if (rank_ == 2) {
      planes = PolygonHalfSpaces(polygon_, origin_, basis_, tol);
    } else if (rank_ == 3) {
      planes = FacetHalfSpaces(hull3d_, origin_, basis_, tol);
    }
  }
  const bool scanline = !planes.empty();

  Index index(rank_);
  auto inside = [this, &index, tol](int64_t v) {
    Vec3 p = Vec3::FromIndex(index);
    p[rank_ - 1] = static_cast<double>(v);
    return Contains(p, tol);
  };
  for (int64_t x = lo[0]; x <= (axis > 0 ? hi[0] : lo[0]); ++x) {
    for (int64_t y = lo[1]; y <= (axis > 1 ? hi[1] : lo[1]); ++y) {
      if (axis > 0) index[0] = x;
      if (axis > 1) index[1] = y;
      if (!scanline) {
        for (int64_t v = lo[axis]; v <= hi[axis]; ++v) {
          if (inside(v)) {
            emit(index, v, v);
          }
        }
        continue;
      }
      // Solve the column's interval along `axis`, widened by kRunSlack so
      // that rounding in the solve can only add candidates, never lose
      // them; then move each end until Contains agrees.
      double run_lo = -std::numeric_limits<double>::infinity();
      double run_hi = std::numeric_limits<double>::infinity();
      Vec3 column = Vec3::FromIndex(index);
      column[axis] = 0.0;
      bool empty = false;
      for (const HalfSpace& plane : planes) {
        const double rest = plane.bound - Dot(plane.normal, column);
        const double slope = plane.normal[axis];
        if (slope > kParallelSlope) {
          run_hi = std::min(run_hi, rest / slope);
        } else if (slope < -kParallelSlope) {
          run_lo = std::max(run_lo, rest / slope);
        } else if (rest < -kParallelSlack) {
          empty = true;  // The column misses a plane parallel to it.
          break;
        }
      }
      if (empty || run_lo > run_hi) {
        continue;
      }
      int64_t first =
          ClampToInt(std::ceil(run_lo - kRunSlack), lo[axis], hi[axis] + 1);
      int64_t last =
          ClampToInt(std::floor(run_hi + kRunSlack), lo[axis] - 1, hi[axis]);
      if (first > last) {
        continue;
      }
      if (inside(first)) {
        while (first > lo[axis] && inside(first - 1)) --first;
      } else {
        do {
          ++first;
        } while (first <= last && !inside(first));
        if (first > last) {
          continue;
        }
      }
      if (inside(last)) {
        while (last < hi[axis] && inside(last + 1)) ++last;
      } else {
        do {
          --last;
        } while (last > first && !inside(last));
      }
      emit(index, first, last);
    }
  }
}

void Hull::RasterizeInto(IndexSet* out, double tol) const {
  const Shape& shape = out->shape();
  ForEachRun(shape, tol, [this, out, &shape](Index& index, int64_t first,
                                              int64_t last) {
    // The last axis is contiguous in row-major order.
    index[rank_ - 1] = first;
    const int64_t base = shape.Linearize(index);
    for (int64_t v = 0; v <= last - first; ++v) {
      out->InsertLinear(base + v);
    }
  });
}

int64_t Hull::CountIntegerPoints(const Shape& shape, double tol) const {
  int64_t count = 0;
  ForEachRun(shape, tol,
             [&count](const Index&, int64_t first, int64_t last) {
               count += last - first + 1;
             });
  return count;
}

}  // namespace kondo
