#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/convex2d.h"
#include "geom/convex3d.h"
#include "geom/hull.h"
#include "geom/vec.h"

namespace kondo {
namespace {

// ------------------------------------------------------------------ Vec3 --

TEST(Vec3Test, Arithmetic) {
  const Vec3 a(1, 2, 3);
  const Vec3 b(4, 5, 6);
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_EQ(Cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
  EXPECT_DOUBLE_EQ(Norm(Vec3(3, 4, 0)), 5.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), std::sqrt(27.0));
}

TEST(Vec3Test, FromIndex) {
  EXPECT_EQ(Vec3::FromIndex(Index{3, 4}), Vec3(3, 4, 0));
  EXPECT_EQ(Vec3::FromIndex(Index{1, 2, 3}), Vec3(1, 2, 3));
  EXPECT_EQ(Vec3::FromIndex(Index{9}), Vec3(9, 0, 0));
}

TEST(Vec3Test, NormalizedHandlesZero) {
  EXPECT_EQ(Normalized(Vec3(0, 0, 0)), Vec3(0, 0, 0));
  EXPECT_NEAR(Norm(Normalized(Vec3(2, 3, 6))), 1.0, 1e-12);
}

// ----------------------------------------------------------- 2-D hulls --

TEST(ConvexHull2DTest, SquareHullIsFourCorners) {
  std::vector<Vec2> points;
  for (int x = 0; x <= 4; ++x) {
    for (int y = 0; y <= 4; ++y) {
      points.push_back(Vec2{static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const std::vector<Vec2> hull = ConvexHull2D(points);
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_NEAR(ConvexPolygonArea(hull), 16.0, 1e-9);
}

TEST(ConvexHull2DTest, SinglePoint) {
  const std::vector<Vec2> hull = ConvexHull2D({Vec2{2, 3}});
  ASSERT_EQ(hull.size(), 1u);
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{2, 3}, 1e-9));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{2, 4}, 1e-9));
}

TEST(ConvexHull2DTest, DuplicatePointsCollapse) {
  const std::vector<Vec2> hull =
      ConvexHull2D({Vec2{1, 1}, Vec2{1, 1}, Vec2{1, 1}});
  EXPECT_EQ(hull.size(), 1u);
}

TEST(ConvexHull2DTest, CollinearPointsBecomeSegment) {
  const std::vector<Vec2> hull =
      ConvexHull2D({Vec2{0, 0}, Vec2{1, 1}, Vec2{2, 2}, Vec2{3, 3}});
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{1.5, 1.5}, 1e-9));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{1.5, 1.6}, 1e-3));
}

TEST(ConvexHull2DTest, InteriorCollinearBoundaryPointsDropped) {
  const std::vector<Vec2> hull = ConvexHull2D(
      {Vec2{0, 0}, Vec2{2, 0}, Vec2{4, 0}, Vec2{4, 4}, Vec2{0, 4}});
  EXPECT_EQ(hull.size(), 4u);  // (2,0) is on an edge, not a vertex.
}

TEST(PointInConvexPolygonTest, BoundaryIsInside) {
  const std::vector<Vec2> hull =
      ConvexHull2D({Vec2{0, 0}, Vec2{4, 0}, Vec2{4, 4}, Vec2{0, 4}});
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{2, 0}, 1e-9));
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{0, 0}, 1e-9));
  EXPECT_TRUE(PointInConvexPolygon(hull, Vec2{2, 2}, 1e-9));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{2, -0.01}, 1e-6));
  EXPECT_FALSE(PointInConvexPolygon(hull, Vec2{4.01, 2}, 1e-6));
}

TEST(ConvexHull2DTest, HullContainsAllInputsProperty) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> points;
    for (int i = 0; i < 50; ++i) {
      points.push_back(Vec2{rng.UniformDouble(-10, 10),
                            rng.UniformDouble(-10, 10)});
    }
    const std::vector<Vec2> hull = ConvexHull2D(points);
    for (const Vec2& p : points) {
      EXPECT_TRUE(PointInConvexPolygon(hull, p, 1e-7)) << trial;
    }
  }
}

// ----------------------------------------------------------- 3-D hulls --

std::vector<Vec3> UnitCubeCorners() {
  std::vector<Vec3> corners;
  for (int x = 0; x <= 1; ++x) {
    for (int y = 0; y <= 1; ++y) {
      for (int z = 0; z <= 1; ++z) {
        corners.push_back(Vec3(x, y, z));
      }
    }
  }
  return corners;
}

TEST(ConvexHull3DTest, TetrahedronHasFourFacets) {
  const std::vector<Vec3> points = {Vec3(0, 0, 0), Vec3(1, 0, 0),
                                    Vec3(0, 1, 0), Vec3(0, 0, 1)};
  const Hull3D hull = ConvexHull3D(points);
  EXPECT_EQ(hull.facets.size(), 4u);
  EXPECT_EQ(hull.vertex_indices.size(), 4u);
  EXPECT_NEAR(Hull3DVolume(hull, points), 1.0 / 6.0, 1e-9);
}

TEST(ConvexHull3DTest, CubeHull) {
  const std::vector<Vec3> points = UnitCubeCorners();
  const Hull3D hull = ConvexHull3D(points);
  EXPECT_EQ(hull.vertex_indices.size(), 8u);
  EXPECT_NEAR(Hull3DVolume(hull, points), 1.0, 1e-9);
  EXPECT_TRUE(PointInHull3D(hull, Vec3(0.5, 0.5, 0.5), 1e-9));
  EXPECT_TRUE(PointInHull3D(hull, Vec3(0, 0.5, 0.5), 1e-9));  // Face point.
  EXPECT_FALSE(PointInHull3D(hull, Vec3(1.01, 0.5, 0.5), 1e-6));
}

TEST(ConvexHull3DTest, InteriorPointsNotVertices) {
  std::vector<Vec3> points = UnitCubeCorners();
  points.push_back(Vec3(0.5, 0.5, 0.5));
  points.push_back(Vec3(0.25, 0.25, 0.25));
  const Hull3D hull = ConvexHull3D(points);
  EXPECT_EQ(hull.vertex_indices.size(), 8u);
}

TEST(ConvexHull3DTest, HullContainsAllInputsProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec3> points;
    for (int i = 0; i < 60; ++i) {
      points.push_back(Vec3(rng.UniformDouble(-5, 5),
                            rng.UniformDouble(-5, 5),
                            rng.UniformDouble(-5, 5)));
    }
    const Hull3D hull = ConvexHull3D(points);
    for (const Vec3& p : points) {
      EXPECT_TRUE(PointInHull3D(hull, p, 1e-6)) << trial;
    }
    // Outward orientation: far-away points are outside.
    EXPECT_FALSE(PointInHull3D(hull, Vec3(100, 100, 100), 1e-6));
  }
}

TEST(ConvexHull3DTest, FacetsAreConsistentlyOutward) {
  const std::vector<Vec3> points = UnitCubeCorners();
  const Hull3D hull = ConvexHull3D(points);
  const Vec3 center(0.5, 0.5, 0.5);
  for (const HullFacet& facet : hull.facets) {
    EXPECT_LT(facet.SignedDistance(center), 0.0);
  }
}

// ----------------------------------------------------- Hull (any rank) --

TEST(HullTest, SinglePointHull) {
  const Hull hull = Hull::Build({Vec3(3, 4, 0)}, 2);
  EXPECT_EQ(hull.affine_rank(), 0);
  EXPECT_TRUE(hull.Contains(Vec3(3, 4, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(3, 5, 0)));
  EXPECT_DOUBLE_EQ(hull.Measure(), 0.0);
}

TEST(HullTest, SegmentHull) {
  const Hull hull = Hull::Build({Vec3(0, 0, 0), Vec3(4, 4, 0),
                                 Vec3(2, 2, 0)},
                                2);
  EXPECT_EQ(hull.affine_rank(), 1);
  EXPECT_EQ(hull.vertices().size(), 2u);
  EXPECT_TRUE(hull.Contains(Vec3(1, 1, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(1, 2, 0)));
  EXPECT_NEAR(hull.Measure(), std::sqrt(32.0), 1e-9);
}

TEST(HullTest, PolygonHull) {
  const Hull hull = Hull::Build(
      {Vec3(0, 0, 0), Vec3(4, 0, 0), Vec3(4, 4, 0), Vec3(0, 4, 0),
       Vec3(2, 2, 0)},
      2);
  EXPECT_EQ(hull.affine_rank(), 2);
  EXPECT_EQ(hull.vertices().size(), 4u);
  EXPECT_TRUE(hull.Contains(Vec3(2, 2, 0)));
  EXPECT_TRUE(hull.Contains(Vec3(4, 4, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(5, 2, 0)));
  EXPECT_NEAR(hull.Measure(), 16.0, 1e-9);
  EXPECT_NEAR(Distance(hull.centroid(), Vec3(2, 2, 0)), 0.0, 1e-9);
}

TEST(HullTest, FullRank3DHull) {
  std::vector<Vec3> points = UnitCubeCorners();
  for (Vec3& p : points) {
    p = p * 4.0;
  }
  const Hull hull = Hull::Build(points, 3);
  EXPECT_EQ(hull.affine_rank(), 3);
  EXPECT_TRUE(hull.Contains(Vec3(2, 2, 2)));
  EXPECT_FALSE(hull.Contains(Vec3(2, 2, 4.1)));
  EXPECT_NEAR(hull.Measure(), 64.0, 1e-6);
}

TEST(HullTest, PlanarPointsIn3DAreRankTwo) {
  // A plane z = 2 inside a rank-3 ambient space.
  std::vector<Vec3> points;
  for (int x = 0; x <= 3; ++x) {
    for (int y = 0; y <= 3; ++y) {
      points.push_back(Vec3(x, y, 2));
    }
  }
  const Hull hull = Hull::Build(points, 3);
  EXPECT_EQ(hull.affine_rank(), 2);
  EXPECT_TRUE(hull.Contains(Vec3(1.5, 1.5, 2)));
  EXPECT_FALSE(hull.Contains(Vec3(1.5, 1.5, 2.5)));
}

TEST(HullTest, CollinearPointsIn3DAreRankOne) {
  const Hull hull = Hull::Build(
      {Vec3(0, 0, 0), Vec3(1, 2, 3), Vec3(2, 4, 6), Vec3(3, 6, 9)}, 3);
  EXPECT_EQ(hull.affine_rank(), 1);
  EXPECT_TRUE(hull.Contains(Vec3(1.5, 3, 4.5)));
  EXPECT_FALSE(hull.Contains(Vec3(1.5, 3, 5)));
}

TEST(HullTest, RankOneAmbient) {
  const Hull hull = Hull::Build({Vec3(2, 0, 0), Vec3(9, 0, 0)}, 1);
  EXPECT_EQ(hull.affine_rank(), 1);
  EXPECT_TRUE(hull.Contains(Vec3(5, 0, 0)));
  EXPECT_FALSE(hull.Contains(Vec3(1, 0, 0)));
}

TEST(HullTest, FromIndices) {
  const Hull hull =
      Hull::FromIndices({Index{0, 0}, Index{4, 0}, Index{0, 4}}, 2);
  EXPECT_TRUE(hull.ContainsIndex(Index{1, 1}));
  EXPECT_FALSE(hull.ContainsIndex(Index{3, 3}));
}

class HullContainmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HullContainmentPropertyTest, HullContainsItsInputPoints) {
  const int rank = GetParam();
  Rng rng(100 + static_cast<uint64_t>(rank));
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<Vec3> points;
    const int count = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < count; ++i) {
      Vec3 p;
      for (int d = 0; d < rank; ++d) {
        p[d] = static_cast<double>(rng.UniformInt(0, 20));
      }
      points.push_back(p);
    }
    const Hull hull = Hull::Build(points, rank);
    for (const Vec3& p : points) {
      EXPECT_TRUE(hull.Contains(p, 1e-6))
          << "rank=" << rank << " trial=" << trial << " p=" << p;
    }
  }
}

TEST_P(HullContainmentPropertyTest, MergedHullContainsBothVertexSets) {
  const int rank = GetParam();
  Rng rng(200 + static_cast<uint64_t>(rank));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vec3> a_points;
    std::vector<Vec3> b_points;
    for (int i = 0; i < 15; ++i) {
      Vec3 pa, pb;
      for (int d = 0; d < rank; ++d) {
        pa[d] = static_cast<double>(rng.UniformInt(0, 10));
        pb[d] = static_cast<double>(rng.UniformInt(8, 20));
      }
      a_points.push_back(pa);
      b_points.push_back(pb);
    }
    const Hull a = Hull::Build(a_points, rank);
    const Hull b = Hull::Build(b_points, rank);
    std::vector<Vec3> merged_points = a.vertices();
    merged_points.insert(merged_points.end(), b.vertices().begin(),
                         b.vertices().end());
    const Hull merged = Hull::Build(merged_points, rank);
    // The merge of two hulls contains every original point — the paper's
    // claim that merging vertex sets equals hulling the underlying points.
    for (const Vec3& p : a_points) {
      EXPECT_TRUE(merged.Contains(p, 1e-6)) << "rank=" << rank;
    }
    for (const Vec3& p : b_points) {
      EXPECT_TRUE(merged.Contains(p, 1e-6)) << "rank=" << rank;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, HullContainmentPropertyTest,
                         ::testing::Values(1, 2, 3));

TEST(HullTest, CentroidAndVertexDistance) {
  const Hull a = Hull::Build({Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(0, 2, 0),
                              Vec3(2, 2, 0)},
                             2);
  const Hull b = Hull::Build({Vec3(10, 0, 0), Vec3(12, 0, 0),
                              Vec3(10, 2, 0), Vec3(12, 2, 0)},
                             2);
  EXPECT_DOUBLE_EQ(a.CentroidDistance(b), 10.0);
  // The closest vertex pair, (2, y) and (10, y), is exactly 8.0 apart.
  EXPECT_TRUE(a.AnyVertexWithin(b, 8.0));
  EXPECT_TRUE(b.AnyVertexWithin(a, 8.0));
  EXPECT_FALSE(a.AnyVertexWithin(b, std::nextafter(8.0, 0.0)));
  EXPECT_FALSE(b.AnyVertexWithin(a, 7.5));
  EXPECT_TRUE(a.AnyVertexWithin(a, 0.0));
}

TEST(HullTest, RasterizeSquare) {
  const Hull hull = Hull::Build(
      {Vec3(1, 1, 0), Vec3(3, 1, 0), Vec3(1, 3, 0), Vec3(3, 3, 0)}, 2);
  IndexSet raster(Shape{8, 8});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 9u);  // 3x3 integer points.
  EXPECT_TRUE(raster.Contains(Index{2, 2}));
  EXPECT_TRUE(raster.Contains(Index{1, 3}));
  EXPECT_FALSE(raster.Contains(Index{0, 0}));
}

TEST(HullTest, RasterizeClipsToShape) {
  const Hull hull = Hull::Build(
      {Vec3(-5, -5, 0), Vec3(20, -5, 0), Vec3(-5, 20, 0), Vec3(20, 20, 0)},
      2);
  IndexSet raster(Shape{4, 4});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 16u);
}

TEST(HullTest, RasterizeSegment) {
  const Hull hull = Hull::Build({Vec3(0, 0, 0), Vec3(3, 3, 0)}, 2);
  IndexSet raster(Shape{8, 8});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 4u);  // (0,0) (1,1) (2,2) (3,3).
}

TEST(HullTest, Rasterize3DBox) {
  std::vector<Vec3> corners;
  for (int x : {0, 2}) {
    for (int y : {0, 2}) {
      for (int z : {0, 2}) {
        corners.push_back(Vec3(x, y, z));
      }
    }
  }
  const Hull hull = Hull::Build(corners, 3);
  IndexSet raster(Shape{4, 4, 4});
  hull.RasterizeInto(&raster);
  EXPECT_EQ(raster.size(), 27u);
  EXPECT_EQ(hull.CountIntegerPoints(Shape{4, 4, 4}), 27);
}

TEST(HullTest, RasterizeContainsIntegerInputsProperty) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Index> indices;
    IndexSet raster(Shape{24, 24});
    for (int i = 0; i < 20; ++i) {
      indices.push_back(Index{rng.UniformInt(0, 23), rng.UniformInt(0, 23)});
    }
    const Hull hull = Hull::FromIndices(indices, 2);
    hull.RasterizeInto(&raster);
    for (const Index& index : indices) {
      EXPECT_TRUE(raster.Contains(index)) << index << " trial=" << trial;
    }
  }
}

// ------------------------------------------------- scanline vs per-point --

// The per-point rasteriser the scanline path replaced: every integer point
// of the hull's bounding box (clipped to `shape`) tested with Contains, in
// row-major order.
std::vector<int64_t> PerPointRaster(const Hull& hull, const Shape& shape) {
  int64_t lo[3];
  int64_t hi[3];
  hull.IntegerBounds(lo, hi);
  for (int d = 0; d < 3; ++d) {
    lo[d] = d < shape.rank() ? std::max<int64_t>(lo[d], 0) : 0;
    hi[d] = d < shape.rank() ? std::min<int64_t>(hi[d], shape.dim(d) - 1) : 0;
  }
  std::vector<int64_t> ids;
  Index index(shape.rank());
  for (int64_t x = lo[0]; x <= hi[0]; ++x) {
    for (int64_t y = lo[1]; y <= hi[1]; ++y) {
      for (int64_t z = lo[2]; z <= hi[2]; ++z) {
        if (!hull.Contains(Vec3(static_cast<double>(x),
                                static_cast<double>(y),
                                static_cast<double>(z)),
                           1e-6)) {
          continue;
        }
        index[0] = x;
        if (shape.rank() > 1) index[1] = y;
        if (shape.rank() > 2) index[2] = z;
        ids.push_back(shape.Linearize(index));
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// A random lattice cloud of one of several kinds; coordinates may fall
// outside `shape` so that hulls are clipped at its edge.
std::vector<Vec3> RandomCloud(Rng& rng, const Shape& shape, int kind) {
  const int rank = shape.rank();
  auto coord = [&rng, &shape](int d, int64_t margin) {
    return static_cast<double>(
        rng.UniformInt(-margin, shape.dim(d) - 1 + margin));
  };
  std::vector<Vec3> points;
  const int n = static_cast<int>(rng.UniformInt(1, 40));
  const double slope_x = static_cast<double>(rng.UniformInt(-3, 3)) / 4.0;
  const double slope_y = static_cast<double>(rng.UniformInt(-3, 3)) / 4.0;
  const int64_t thickness = rng.UniformInt(0, 2);
  const Vec3 anchor(coord(0, 0), coord(1, 0), rank > 2 ? coord(2, 0) : 0.0);
  const Vec3 step(static_cast<double>(rng.UniformInt(-2, 2)),
                  static_cast<double>(rng.UniformInt(-2, 2)),
                  rank > 2 ? static_cast<double>(rng.UniformInt(-2, 2)) : 0.0);
  for (int i = 0; i < n; ++i) {
    Vec3 p(coord(0, 6), coord(1, 6), rank > 2 ? coord(2, 6) : 0.0);
    switch (kind) {
      case 0:  // Full-dimensional cloud.
        break;
      case 1: {  // Thin slab around a tilted line (2-D) or plane (3-D).
        const int last = rank - 1;
        const double base =
            rank > 2 ? std::round(slope_x * p.x + slope_y * p.y)
                     : std::round(slope_x * p.x);
        p[last] = anchor[last] + base +
                  static_cast<double>(rng.UniformInt(0, thickness));
        break;
      }
      case 2:  // Points on one lattice line: a segment (or a point).
        p = anchor + step * static_cast<double>(rng.UniformInt(-8, 8));
        break;
      case 3:  // Points on one lattice plane: a polygon in 3-D.
        p = anchor + step * static_cast<double>(rng.UniformInt(-8, 8)) +
            Vec3(0, 1, 1) * static_cast<double>(rng.UniformInt(-8, 8));
        if (rank < 3) p.z = 0.0;
        break;
      default:  // A single point.
        p = anchor;
        break;
    }
    points.push_back(p);
  }
  return points;
}

TEST(HullRasterTest, ScanlineRasterMatchesPerPointOracle) {
  Rng rng(4711);
  int full_dimensional = 0;
  for (const Shape& shape : {Shape{37, 29}, Shape{18, 23, 21}}) {
    for (int trial = 0; trial < 300; ++trial) {
      const int kind = trial % 5;
      const Hull hull =
          Hull::Build(RandomCloud(rng, shape, kind), shape.rank());
      if (hull.affine_rank() == shape.rank()) {
        ++full_dimensional;
      }
      IndexSet raster(shape);
      hull.RasterizeInto(&raster);
      const std::vector<int64_t> expected = PerPointRaster(hull, shape);
      ASSERT_EQ(raster.ToSortedLinearIds(), expected)
          << "rank=" << shape.rank() << " trial=" << trial << " kind=" << kind
          << " affine_rank=" << hull.affine_rank();
      EXPECT_EQ(hull.CountIntegerPoints(shape),
                static_cast<int64_t>(expected.size()))
          << "rank=" << shape.rank() << " trial=" << trial;
    }
  }
  // Most clouds exercise the scanline path, not the per-point fallback.
  EXPECT_GT(full_dimensional, 200);
}

TEST(HullRasterTest, ScanlineRasterMatchesOracleOnLargeHulls) {
  // Merge-sized hulls with hundreds of facets over a long last axis.
  Rng rng(99);
  const Shape shape{40, 48, 300};
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Vec3> points;
    for (int i = 0; i < 400; ++i) {
      points.push_back(Vec3(static_cast<double>(rng.UniformInt(-4, 43)),
                            static_cast<double>(rng.UniformInt(2, 45)),
                            static_cast<double>(rng.UniformInt(10, 310))));
    }
    const Hull hull = Hull::Build(points, 3);
    IndexSet raster(shape);
    hull.RasterizeInto(&raster);
    EXPECT_EQ(raster.ToSortedLinearIds(), PerPointRaster(hull, shape))
        << "trial=" << trial;
  }
}

TEST(HullRasterTest, ScanlineMatchesOracleOnNeedleHulls) {
  // Long shallow edges put lattice points within 1e-3 of a column's solved
  // end while still outside the hull, so the Contains confirmation of
  // each run end decides them.
  const Shape flat{1001, 3};
  const Hull sliver = Hull::Build(
      {Vec3(0, 0, 0), Vec3(1000, 1, 0), Vec3(0, 2, 0), Vec3(999, 2, 0)}, 2);
  IndexSet flat_raster(flat);
  sliver.RasterizeInto(&flat_raster);
  EXPECT_EQ(flat_raster.ToSortedLinearIds(), PerPointRaster(sliver, flat));

  const Shape deep{1001, 3, 3};
  const Hull wedge = Hull::Build({Vec3(0, 0, 0), Vec3(1000, 0, 1),
                                  Vec3(0, 1, 1), Vec3(0, 0, 2),
                                  Vec3(1000, 2, 2), Vec3(999, 1, 2)},
                                 3);
  IndexSet deep_raster(deep);
  wedge.RasterizeInto(&deep_raster);
  EXPECT_EQ(deep_raster.ToSortedLinearIds(), PerPointRaster(wedge, deep));
  EXPECT_EQ(wedge.CountIntegerPoints(deep),
            static_cast<int64_t>(deep_raster.size()));
}

TEST(HullTest, IntegerBounds) {
  const Hull hull = Hull::Build({Vec3(1.2, 2.8, 0), Vec3(5.9, 7.1, 0)}, 2);
  int64_t lo[3];
  int64_t hi[3];
  hull.IntegerBounds(lo, hi);
  EXPECT_EQ(lo[0], 1);
  EXPECT_EQ(hi[0], 6);
  EXPECT_EQ(lo[1], 2);
  EXPECT_EQ(hi[1], 8);
}

}  // namespace
}  // namespace kondo
