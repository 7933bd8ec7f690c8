#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "array/index_set.h"
#include "carve/carve_config.h"
#include "carve/carved_subset.h"
#include "carve/carver.h"
#include "common/rng.h"
#include "core/kondo.h"
#include "geom/hull.h"
#include "geom/vec.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

IndexSet FilledRect(const Shape& shape, int64_t x0, int64_t y0, int64_t x1,
                    int64_t y1) {
  IndexSet set(shape);
  for (int64_t x = x0; x <= x1; ++x) {
    for (int64_t y = y0; y <= y1; ++y) {
      set.Insert(Index{x, y});
    }
  }
  return set;
}

// ------------------------------------------------------------- CLOSE(.) --

TEST(CloseTest, BoundaryOrCenterMode) {
  CarveConfig config;
  config.center_d_thresh = 20.0;
  config.boundary_d_thresh = 10.0;
  config.close_mode = CloseMode::kBoundaryOrCenter;
  Carver carver(config);

  const Hull a = Hull::FromIndices({Index{0, 0}, Index{4, 4}}, 2);
  const Hull near = Hull::FromIndices({Index{8, 8}, Index{12, 12}}, 2);
  const Hull far = Hull::FromIndices({Index{100, 100}, Index{104, 104}}, 2);
  EXPECT_TRUE(carver.Close(a, near));   // Boundary distance ~5.7.
  EXPECT_FALSE(carver.Close(a, far));   // Both distances huge.
}

TEST(CloseTest, CenterAloneSufficesInOrMode) {
  CarveConfig config;
  config.center_d_thresh = 200.0;
  config.boundary_d_thresh = 1.0;
  config.close_mode = CloseMode::kBoundaryOrCenter;
  Carver carver(config);
  // Far-apart boundaries but centres within the generous centre threshold:
  // the big-hull-absorbs-small-hull case the paper describes.
  const Hull a = Hull::FromIndices({Index{0, 0}, Index{40, 40}}, 2);
  const Hull b = Hull::FromIndices({Index{80, 80}, Index{90, 90}}, 2);
  EXPECT_TRUE(carver.Close(a, b));
}

TEST(CloseTest, AndModeRequiresBoth) {
  CarveConfig config;
  config.center_d_thresh = 200.0;
  config.boundary_d_thresh = 1.0;
  config.close_mode = CloseMode::kBoundaryAndCenter;
  Carver carver(config);
  const Hull a = Hull::FromIndices({Index{0, 0}, Index{40, 40}}, 2);
  const Hull b = Hull::FromIndices({Index{80, 80}, Index{90, 90}}, 2);
  EXPECT_FALSE(carver.Close(a, b));
}

// The CLOSE formula as Algorithm 2 states it: the all-pairs minimum
// vertex distance against the boundary threshold, combined with the centre
// test.
bool ReferenceClose(const CarveConfig& config, const Hull& a, const Hull& b) {
  double min_vertex = std::numeric_limits<double>::infinity();
  for (const Vec3& u : a.vertices()) {
    for (const Vec3& v : b.vertices()) {
      min_vertex = std::min(min_vertex, Distance(u, v));
    }
  }
  const bool boundary_close = min_vertex <= config.boundary_d_thresh;
  const bool center_close =
      a.CentroidDistance(b) <= config.center_d_thresh;
  return config.close_mode == CloseMode::kBoundaryOrCenter
             ? boundary_close || center_close
             : boundary_close && center_close;
}

Hull RandomClusterHull(Rng& rng, int rank) {
  const Vec3 centre(static_cast<double>(rng.UniformInt(0, 60)),
                    static_cast<double>(rng.UniformInt(0, 60)),
                    rank > 2 ? static_cast<double>(rng.UniformInt(0, 60))
                             : 0.0);
  const int64_t radius = rng.UniformInt(0, 8);
  std::vector<Vec3> points;
  const int n = static_cast<int>(rng.UniformInt(1, 30));
  for (int i = 0; i < n; ++i) {
    points.push_back(
        centre +
        Vec3(static_cast<double>(rng.UniformInt(-radius, radius)),
             static_cast<double>(rng.UniformInt(-radius, radius)),
             rank > 2 ? static_cast<double>(rng.UniformInt(-radius, radius))
                      : 0.0));
  }
  return Hull::Build(points, rank);
}

TEST(CloseTest, MatchesMinVertexDistanceFormulaInBothModes) {
  Rng rng(811);
  int close_verdicts = 0;
  int far_verdicts = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int rank = trial % 2 == 0 ? 2 : 3;
    const Hull a = RandomClusterHull(rng, rank);
    const Hull b = RandomClusterHull(rng, rank);
    CarveConfig config;
    config.center_d_thresh = static_cast<double>(rng.UniformInt(0, 40));
    config.boundary_d_thresh = static_cast<double>(rng.UniformInt(0, 20));
    if (trial % 4 == 1) {
      // Put the boundary threshold exactly on one vertex-pair distance.
      config.boundary_d_thresh = Distance(a.vertices()[0], b.vertices()[0]);
    }
    for (CloseMode mode :
         {CloseMode::kBoundaryOrCenter, CloseMode::kBoundaryAndCenter}) {
      config.close_mode = mode;
      const bool expected = ReferenceClose(config, a, b);
      EXPECT_EQ(Carver(config).Close(a, b), expected)
          << "trial=" << trial << " mode=" << static_cast<int>(mode);
      EXPECT_EQ(Carver(config).Close(b, a), expected)
          << "trial=" << trial << " mode=" << static_cast<int>(mode);
      ++(expected ? close_verdicts : far_verdicts);
    }
  }
  // Both verdicts occur often enough for the comparison to mean something.
  EXPECT_GT(close_verdicts, 100);
  EXPECT_GT(far_verdicts, 100);
}

// --------------------------------------------------------------- Carver --

TEST(CarverTest, SingleBlobBecomesOneHull) {
  const Shape shape{64, 64};
  const IndexSet points = FilledRect(shape, 10, 10, 40, 40);
  Carver carver(CarveConfig{});
  CarveStats stats;
  const CarvedSubset carved = carver.Carve(points, &stats);
  EXPECT_EQ(carved.num_hulls(), 1);
  EXPECT_GT(stats.initial_hulls, 1);
  EXPECT_EQ(stats.merge_operations, stats.initial_hulls - 1);
  EXPECT_EQ(stats.final_hulls, 1);
}

TEST(CarverTest, DistantBlobsStaySeparate) {
  const Shape shape{128, 128};
  IndexSet points = FilledRect(shape, 0, 0, 15, 15);
  points.Union(FilledRect(shape, 100, 100, 115, 115));
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 2);
}

TEST(CarverTest, SeparateBlobsDoNotLeakIntoGap) {
  const Shape shape{128, 128};
  IndexSet points = FilledRect(shape, 0, 0, 15, 15);
  points.Union(FilledRect(shape, 100, 100, 115, 115));
  Carver carver(CarveConfig{});
  const IndexSet raster = carver.Carve(points).Rasterize();
  EXPECT_EQ(raster.size(), points.size());
  EXPECT_FALSE(raster.Contains(Index{50, 50}));
}

TEST(CarverTest, SandwichedGapIsRecovered) {
  // Two rectangles separated by a thin unobserved gap: merging recovers the
  // sandwiched indices (the Fig. 6 motivation).
  const Shape shape{64, 64};
  IndexSet points = FilledRect(shape, 0, 0, 20, 9);
  points.Union(FilledRect(shape, 0, 13, 20, 22));
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  const IndexSet raster = carved.Rasterize();
  EXPECT_TRUE(raster.Contains(Index{10, 11}));  // Inside the gap.
}

TEST(CarverTest, EmptyInputYieldsNoHulls) {
  Carver carver(CarveConfig{});
  CarveStats stats;
  const CarvedSubset carved = carver.Carve(IndexSet(Shape{32, 32}), &stats);
  EXPECT_EQ(carved.num_hulls(), 0);
  EXPECT_EQ(stats.num_cells, 0);
  EXPECT_TRUE(carved.Rasterize().empty());
}

TEST(CarverTest, SinglePointInput) {
  IndexSet points(Shape{32, 32});
  points.Insert(Index{5, 7});
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  const IndexSet raster = carved.Rasterize();
  EXPECT_EQ(raster.size(), 1u);
  EXPECT_TRUE(raster.Contains(Index{5, 7}));
}

TEST(CarverTest, RasterizeIsSupersetOfInputProperty) {
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const Shape shape{96, 96};
    IndexSet points(shape);
    const int clusters = static_cast<int>(rng.UniformInt(1, 4));
    for (int c = 0; c < clusters; ++c) {
      const int64_t cx = rng.UniformInt(10, 85);
      const int64_t cy = rng.UniformInt(10, 85);
      for (int i = 0; i < 40; ++i) {
        points.Insert(Index{cx + rng.UniformInt(-8, 8),
                            cy + rng.UniformInt(-8, 8)});
      }
    }
    Carver carver(CarveConfig{});
    const IndexSet raster = carver.Carve(points).Rasterize();
    EXPECT_TRUE(points.IsSubsetOf(raster)) << "trial=" << trial;
  }
}

TEST(CarverTest, ThreeDimensionalCarving) {
  const Shape shape{32, 32, 32};
  IndexSet points(shape);
  for (int64_t x = 4; x <= 12; ++x) {
    for (int64_t y = 4; y <= 12; ++y) {
      for (int64_t z = 4; z <= 12; ++z) {
        points.Insert(Index{x, y, z});
      }
    }
  }
  Carver carver(CarveConfig{});
  const CarvedSubset carved = carver.Carve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  EXPECT_EQ(carved.Rasterize().size(), points.size());
}

TEST(CarverTest, CellSizeControlsInitialHulls) {
  const Shape shape{64, 64};
  const IndexSet points = FilledRect(shape, 0, 0, 31, 31);
  CarveConfig coarse;
  coarse.cell_size = 32;
  CarveStats coarse_stats;
  Carver(coarse).Carve(points, &coarse_stats);
  CarveConfig fine;
  fine.cell_size = 8;
  CarveStats fine_stats;
  Carver(fine).Carve(points, &fine_stats);
  EXPECT_EQ(coarse_stats.initial_hulls, 1);
  EXPECT_EQ(fine_stats.initial_hulls, 16);
}

TEST(CarverTest, ThresholdZeroDisablesMerging) {
  const Shape shape{64, 64};
  const IndexSet points = FilledRect(shape, 0, 0, 31, 31);
  CarveConfig config;
  config.cell_size = 16;
  config.center_d_thresh = 0.0;
  config.boundary_d_thresh = 0.0;
  CarveStats stats;
  const CarvedSubset carved = Carver(config).Carve(points, &stats);
  // Adjacent cell hulls have vertex distance 1 > 0: no merges.
  EXPECT_EQ(stats.merge_operations, 0);
  EXPECT_EQ(carved.num_hulls(), 4);
}

// ------------------------------------------------------------- golden --

// FNV-1a over the sorted linear ids: a compact fingerprint of a raster.
uint64_t RasterHash(const IndexSet& set) {
  uint64_t hash = 14695981039346656037ull;
  for (int64_t id : set.ToSortedLinearIds()) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<uint64_t>(id >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

struct GoldenCampaign {
  const char* program;
  int64_t n;
  uint64_t seed;
  int64_t cell_size;
  int64_t max_evals;  // 0 = the schedule's own stopping rules.
  CloseMode close_mode;
  int cell_hulls;
  int merges;
  int final_hulls;
  size_t points_out;
  uint64_t raster_hash;
};

// Carve stats and rasterised sets of small offset-mode campaigns, recorded
// with the original all-pairs CLOSE scan and per-point rasteriser. Cells
// are smaller than the scaled default so each campaign runs tens to
// hundreds of merges. Any change to carving or rasterisation must
// reproduce these exactly.
TEST(CarveGoldenTest, SmallCampaignsAreBitIdenticalToRecorded) {
  constexpr CloseMode kAnd = CloseMode::kBoundaryAndCenter;
  constexpr CloseMode kOr = CloseMode::kBoundaryOrCenter;
  const GoldenCampaign kGolden[] = {
      {"PRL3D", 32, 1, 8, 0, kAnd, 63, 62, 1, 29791, 9592686427952024197ull},
      {"PRL3D", 48, 3, 8, 300, kAnd, 208, 204, 4, 103823,
       15251078898483145999ull},
      {"PRL3D", 48, 3, 8, 300, kOr, 208, 207, 1, 103823,
       15251078898483145999ull},
      {"LDC3D", 32, 7, 4, 0, kAnd, 54, 52, 2, 3456, 11767736183091271269ull},
      {"LDC3D", 32, 7, 4, 0, kOr, 54, 52, 2, 3456, 11767736183091271269ull},
      {"PRL", 64, 1, 8, 0, kAnd, 63, 60, 3, 3969, 1188664572566480069ull},
      {"LDC", 64, 2, 8, 0, kAnd, 18, 16, 2, 1152, 7314317785746314341ull},
  };
  for (const GoldenCampaign& golden : kGolden) {
    const std::unique_ptr<Program> program =
        CreateProgram(golden.program, golden.n);
    ASSERT_NE(program, nullptr) << golden.program;
    KondoConfig config = ScaledKondoConfig(program->data_shape());
    config.rng_seed = golden.seed;
    config.fuzz.max_evals = golden.max_evals;
    config.carve.cell_size = golden.cell_size;
    config.carve.close_mode = golden.close_mode;
    const KondoResult result = KondoPipeline(config).Run(*program);
    const std::string where =
        std::string(golden.program) + " n=" + std::to_string(golden.n) +
        " mode=" + std::to_string(static_cast<int>(golden.close_mode));
    EXPECT_EQ(result.carve_stats.initial_hulls, golden.cell_hulls) << where;
    EXPECT_EQ(result.carve_stats.merge_operations, golden.merges) << where;
    EXPECT_EQ(result.carve_stats.final_hulls, golden.final_hulls) << where;
    EXPECT_EQ(result.approx.size(), golden.points_out) << where;
    EXPECT_EQ(RasterHash(result.approx), golden.raster_hash) << where;
  }
}

// ---------------------------------------------------------- CarvedSubset --

TEST(CarvedSubsetTest, ContainsMatchesRasterize) {
  const Shape shape{48, 48};
  IndexSet points = FilledRect(shape, 2, 2, 10, 10);
  points.Union(FilledRect(shape, 30, 30, 40, 40));
  const CarvedSubset carved = Carver(CarveConfig{}).Carve(points);
  const IndexSet raster = carved.Rasterize();
  shape.ForEachIndex([&](const Index& index) {
    EXPECT_EQ(carved.Contains(index), raster.Contains(index)) << index;
  });
}

// ---------------------------------------------------------- SimpleConvex --

TEST(SimpleConvexTest, SingleHullCoversEverything) {
  const Shape shape{128, 128};
  IndexSet points = FilledRect(shape, 0, 0, 15, 15);
  points.Union(FilledRect(shape, 100, 100, 115, 115));
  const CarvedSubset carved = SimpleConvexCarve(points);
  EXPECT_EQ(carved.num_hulls(), 1);
  const IndexSet raster = carved.Rasterize();
  // SC bridges the gap -> worse precision than Kondo's merge-based carver.
  EXPECT_TRUE(raster.Contains(Index{50, 50}));
  EXPECT_GT(raster.size(), points.size() * 2);
}

TEST(SimpleConvexTest, EmptyInput) {
  const CarvedSubset carved = SimpleConvexCarve(IndexSet(Shape{8, 8}));
  EXPECT_EQ(carved.num_hulls(), 0);
}

}  // namespace
}  // namespace kondo
