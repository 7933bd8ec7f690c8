#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "array/data_array.h"
#include "array/dtype.h"
#include "array/index.h"
#include "array/index_set.h"
#include "array/layout.h"
#include "array/shape.h"
#include "common/rng.h"

namespace kondo {
namespace {

// ----------------------------------------------------------------- Index --

TEST(IndexTest, ConstructionAndAccess) {
  Index index{3, 4, 5};
  EXPECT_EQ(index.rank(), 3);
  EXPECT_EQ(index[0], 3);
  EXPECT_EQ(index[2], 5);
  index[1] = 9;
  EXPECT_EQ(index[1], 9);
}

TEST(IndexTest, ZeroInitialized) {
  Index index(2);
  EXPECT_EQ(index[0], 0);
  EXPECT_EQ(index[1], 0);
}

TEST(IndexTest, Equality) {
  EXPECT_EQ((Index{1, 2}), (Index{1, 2}));
  EXPECT_FALSE((Index{1, 2}) == (Index{1, 3}));
  EXPECT_FALSE((Index{1, 2}) == (Index{1, 2, 0}));  // Rank differs.
}

TEST(IndexTest, Ordering) {
  EXPECT_LT((Index{1, 2}), (Index{1, 3}));
  EXPECT_LT((Index{1, 9}), (Index{2, 0}));
  EXPECT_LT((Index{5}), (Index{0, 0}));  // Lower rank sorts first.
}

TEST(IndexTest, ToString) {
  EXPECT_EQ((Index{7, 8}).ToString(), "(7, 8)");
  EXPECT_EQ(Index(1).ToString(), "(0)");
}

TEST(IndexTest, HashDistinguishesNearbyIndices) {
  const std::hash<Index> hasher;
  EXPECT_NE(hasher(Index{0, 1}), hasher(Index{1, 0}));
  EXPECT_EQ(hasher(Index{3, 4}), hasher(Index{3, 4}));
}

// ----------------------------------------------------------------- Shape --

TEST(ShapeTest, BasicProperties) {
  const Shape shape{4, 5, 6};
  EXPECT_EQ(shape.rank(), 3);
  EXPECT_EQ(shape.NumElements(), 120);
  EXPECT_EQ(shape.ToString(), "4x5x6");
}

TEST(ShapeTest, Contains) {
  const Shape shape{4, 5};
  EXPECT_TRUE(shape.Contains(Index{0, 0}));
  EXPECT_TRUE(shape.Contains(Index{3, 4}));
  EXPECT_FALSE(shape.Contains(Index{4, 0}));
  EXPECT_FALSE(shape.Contains(Index{0, -1}));
  EXPECT_FALSE(shape.Contains(Index{0, 0, 0}));  // Rank mismatch.

  // The fused check-and-linearise is -1 exactly where Contains fails.
  EXPECT_EQ(shape.LinearOrNegative(Index{0, 0}), 0);
  EXPECT_EQ(shape.LinearOrNegative(Index{3, 4}), 19);
  EXPECT_EQ(shape.LinearOrNegative(Index{4, 0}), -1);
  EXPECT_EQ(shape.LinearOrNegative(Index{0, -1}), -1);
  EXPECT_EQ(shape.LinearOrNegative(Index{0, 5}), -1);
  EXPECT_EQ(shape.LinearOrNegative(Index{0, 0, 0}), -1);
  EXPECT_EQ(shape.LinearOrNegative(Index({2})), -1);
}

TEST(ShapeTest, LinearizeIsRowMajor) {
  const Shape shape{3, 4};
  EXPECT_EQ(shape.Linearize(Index{0, 0}), 0);
  EXPECT_EQ(shape.Linearize(Index{0, 3}), 3);
  EXPECT_EQ(shape.Linearize(Index{1, 0}), 4);
  EXPECT_EQ(shape.Linearize(Index{2, 3}), 11);
}

class ShapeRoundTripTest
    : public ::testing::TestWithParam<std::vector<int64_t>> {};

TEST_P(ShapeRoundTripTest, LinearizeDelinearizeRoundTrips) {
  const Shape shape(GetParam());
  const int64_t n = shape.NumElements();
  for (int64_t linear = 0; linear < n; ++linear) {
    const Index index = shape.Delinearize(linear);
    EXPECT_TRUE(shape.Contains(index));
    EXPECT_EQ(shape.Linearize(index), linear);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeRoundTripTest,
                         ::testing::Values(std::vector<int64_t>{7},
                                           std::vector<int64_t>{3, 5},
                                           std::vector<int64_t>{4, 4, 4},
                                           std::vector<int64_t>{2, 3, 4, 5},
                                           std::vector<int64_t>{1, 9},
                                           std::vector<int64_t>{16, 16}));

TEST(ShapeTest, ForEachIndexVisitsAllOnce) {
  const Shape shape{3, 3};
  int count = 0;
  Index last(2);
  shape.ForEachIndex([&count, &last, &shape](const Index& index) {
    EXPECT_TRUE(shape.Contains(index));
    ++count;
    last = index;
  });
  EXPECT_EQ(count, 9);
  EXPECT_EQ(last, (Index{2, 2}));
}

// -------------------------------------------------------------- IndexSet --

TEST(IndexSetTest, InsertAndContains) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{1, 2});
  EXPECT_TRUE(set.Contains(Index{1, 2}));
  EXPECT_FALSE(set.Contains(Index{2, 1}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(IndexSetTest, OutOfBoundsInsertIsClipped) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{4, 0});
  set.Insert(Index{-1, 2});
  EXPECT_TRUE(set.empty());
}

TEST(IndexSetTest, DuplicateInsertIsIdempotent) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{1, 1});
  set.Insert(Index{1, 1});
  EXPECT_EQ(set.size(), 1u);
}

TEST(IndexSetTest, UnionAndIntersection) {
  IndexSet a(Shape{8, 8});
  IndexSet b(Shape{8, 8});
  a.Insert(Index{0, 0});
  a.Insert(Index{1, 1});
  b.Insert(Index{1, 1});
  b.Insert(Index{2, 2});
  EXPECT_EQ(a.IntersectionSize(b), 1);
  a.Union(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.IntersectionSize(b), 2);
}

TEST(IndexSetTest, UnionIntoDefaultConstructedAdoptsShape) {
  IndexSet a;
  IndexSet b(Shape{4, 4});
  b.Insert(Index{3, 3});
  a.Union(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(a.Contains(Index{3, 3}));
}

TEST(IndexSetTest, IsSubsetOf) {
  IndexSet a(Shape{4, 4});
  IndexSet b(Shape{4, 4});
  a.Insert(Index{0, 1});
  b.Insert(Index{0, 1});
  b.Insert(Index{2, 3});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
}

TEST(IndexSetTest, SortedLinearIdsAreSorted) {
  IndexSet set(Shape{4, 4});
  set.Insert(Index{3, 3});
  set.Insert(Index{0, 0});
  set.Insert(Index{1, 2});
  const std::vector<int64_t> ids = set.ToSortedLinearIds();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(ids[2], 15);
}

TEST(IndexSetTest, ForEachVisitsEveryMember) {
  IndexSet set(Shape{5, 5});
  set.Insert(Index{1, 1});
  set.Insert(Index{4, 0});
  int count = 0;
  set.ForEach([&count, &set](const Index& index) {
    EXPECT_TRUE(set.Contains(index));
    ++count;
  });
  EXPECT_EQ(count, 2);
}

// Randomised IndexSet checks against a std::set<int64_t> oracle, on shapes
// that span several 64 Ki-id pages and whose element counts are not a page
// multiple. Half the ids cluster around page boundaries.
class IndexSetOracleTest : public testing::TestWithParam<Shape> {
 protected:
  static constexpr int64_t kPage = 65536;

  int64_t RandomId(Rng& rng) const {
    const int64_t n = GetParam().NumElements();
    if (rng.Bernoulli(0.5)) {
      const int64_t boundary = kPage * rng.UniformInt(0, n / kPage);
      return std::clamp<int64_t>(boundary + rng.UniformInt(-2, 1), 0, n - 1);
    }
    return rng.UniformInt(0, n - 1);
  }

  /// `count` seeded inserts, alternating Insert and InsertLinear; every
  /// tenth is an out-of-bounds Insert that must be clipped.
  void RandomInserts(uint64_t seed, int count, IndexSet* set,
                     std::set<int64_t>* oracle) const {
    const Shape& shape = GetParam();
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      const int64_t id = RandomId(rng);
      if (i % 10 == 9) {
        Index outside = shape.Delinearize(id);
        const int d = static_cast<int>(rng.UniformInt(0, shape.rank() - 1));
        outside[d] = rng.Bernoulli(0.5) ? -1 : shape.dim(d);
        set->Insert(outside);
        continue;
      }
      if (i % 2 == 0) {
        set->InsertLinear(id);
      } else {
        set->Insert(shape.Delinearize(id));
      }
      oracle->insert(id);
    }
  }

  void ExpectMatches(const IndexSet& set,
                     const std::set<int64_t>& oracle) const {
    const Shape& shape = GetParam();
    const std::vector<int64_t> expected(oracle.begin(), oracle.end());
    EXPECT_EQ(set.size(), oracle.size());
    EXPECT_EQ(set.empty(), oracle.empty());
    EXPECT_EQ(set.ToSortedLinearIds(), expected);
    std::vector<int64_t> linear;
    set.ForEachLinear([&linear](int64_t id) { linear.push_back(id); });
    EXPECT_EQ(linear, expected);
    std::vector<int64_t> via_index;
    set.ForEach([&](const Index& index) {
      via_index.push_back(shape.Linearize(index));
    });
    EXPECT_EQ(via_index, expected);
    const std::vector<Index> indices = set.ToIndices();
    ASSERT_EQ(indices.size(), expected.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      ASSERT_EQ(shape.Linearize(indices[i]), expected[i]);
    }
    // Every member and its neighbours, then every page boundary.
    const int64_t n = shape.NumElements();
    std::vector<int64_t> probes;
    for (int64_t id : expected) {
      probes.insert(probes.end(), {id - 1, id, id + 1});
    }
    for (int64_t b = 0; b <= n + kPage; b += kPage) {
      probes.insert(probes.end(), {b - 1, b, b + 1});
    }
    probes.insert(probes.end(), {n - 1, n, n + 1});
    for (int64_t id : probes) {
      const bool member = oracle.count(id) > 0;
      ASSERT_EQ(set.ContainsLinear(id), member) << id;
      if (id >= 0 && id < n) {
        ASSERT_EQ(set.Contains(shape.Delinearize(id)), member) << id;
      }
    }
    Index outside = shape.Delinearize(0);
    outside[0] = shape.dim(0);
    EXPECT_FALSE(set.Contains(outside));
    outside[0] = -1;
    EXPECT_FALSE(set.Contains(outside));
  }
};

TEST_P(IndexSetOracleTest, InsertsMatchOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    IndexSet set(GetParam());
    std::set<int64_t> oracle;
    RandomInserts(seed, 3000, &set, &oracle);
    ExpectMatches(set, oracle);
  }
  ExpectMatches(IndexSet(GetParam()), {});
}

TEST_P(IndexSetOracleTest, SetAlgebraMatchesOracle) {
  IndexSet a(GetParam());
  IndexSet b(GetParam());
  std::set<int64_t> oa;
  std::set<int64_t> ob;
  RandomInserts(11, 4000, &a, &oa);
  RandomInserts(12, 2000, &b, &ob);

  std::vector<int64_t> common;
  std::set_intersection(oa.begin(), oa.end(), ob.begin(), ob.end(),
                        std::back_inserter(common));
  EXPECT_EQ(a.IntersectionSize(b), static_cast<int64_t>(common.size()));
  EXPECT_EQ(b.IntersectionSize(a), static_cast<int64_t>(common.size()));
  EXPECT_EQ(a.IsSubsetOf(b), std::includes(ob.begin(), ob.end(), oa.begin(),
                                           oa.end()));
  EXPECT_FALSE(a.IsSubsetOf(b));

  IndexSet both = a;
  both.Union(b);
  std::set<int64_t> ob_union = oa;
  ob_union.insert(ob.begin(), ob.end());
  ExpectMatches(both, ob_union);
  EXPECT_TRUE(a.IsSubsetOf(both));
  EXPECT_TRUE(b.IsSubsetOf(both));
  EXPECT_FALSE(both.IsSubsetOf(a));
  EXPECT_TRUE(IndexSet(GetParam()).IsSubsetOf(a));
  EXPECT_EQ(both.IntersectionSize(a), static_cast<int64_t>(oa.size()));

  // A one-page subset of a multi-page set, and a set with a page its
  // superset-by-count lacks.
  IndexSet single(GetParam());
  single.InsertLinear(*oa.begin());
  EXPECT_TRUE(single.IsSubsetOf(a));
  IndexSet last_page(GetParam());
  last_page.InsertLinear(GetParam().NumElements() - 1);
  EXPECT_EQ(last_page.IsSubsetOf(a),
            oa.count(GetParam().NumElements() - 1) > 0);

  // Union into a default-constructed set adopts the shape.
  IndexSet adopted;
  adopted.Union(b);
  EXPECT_EQ(adopted.shape(), GetParam());
  ExpectMatches(adopted, ob);

  // Unioning a set into itself changes nothing.
  both.Union(both);
  ExpectMatches(both, ob_union);
}

TEST_P(IndexSetOracleTest, CopiesAreIndependent) {
  IndexSet source(GetParam());
  std::set<int64_t> oracle;
  RandomInserts(21, 2000, &source, &oracle);
  IndexSet copy = source;
  std::set<int64_t> copy_oracle = oracle;
  RandomInserts(22, 2000, &copy, &copy_oracle);
  ExpectMatches(source, oracle);
  ExpectMatches(copy, copy_oracle);

  IndexSet assigned(GetParam());
  assigned = copy;
  source.Union(assigned);
  oracle.insert(copy_oracle.begin(), copy_oracle.end());
  ExpectMatches(source, oracle);
  ExpectMatches(assigned, copy_oracle);
}

INSTANTIATE_TEST_SUITE_P(MultiPageShapes, IndexSetOracleTest,
                         testing::Values(Shape{3, 50000}, Shape{200000},
                                         Shape{7, 9, 2100}));

// ----------------------------------------------------------------- DType --

// InsertRange's word-wise fill equals a loop of InsertLinear: ranges that
// start and stop mid-word, span whole words, cross the 64 Ki-id page
// boundaries at 65536 and 131072, and are empty.
TEST(IndexSetTest, InsertRangeMatchesInsertLinearLoop) {
  const Shape shape{3, 50000};
  const int64_t n = shape.NumElements();
  Rng rng(8);
  std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 0},           {0, 1},          {63, 65},
      {64, 128},        {65530, 65600},  {131000, 131072},
      {131071, 131073}, {140000, n},     {100, 100},
  };
  for (int i = 0; i < 60; ++i) {
    const int64_t lo = rng.UniformInt(0, n);
    const int64_t len =
        i % 3 == 0 ? rng.UniformInt(0, 70000) : rng.UniformInt(0, 300);
    ranges.emplace_back(lo, std::min(n, lo + len));
  }
  IndexSet by_range(shape);
  IndexSet by_id(shape);
  for (const auto& [lo, hi] : ranges) {
    by_range.InsertRange(lo, hi);
    for (int64_t id = lo; id < hi; ++id) {
      by_id.InsertLinear(id);
    }
    ASSERT_EQ(by_range.size(), by_id.size()) << "[" << lo << "," << hi << ")";
  }
  EXPECT_EQ(by_range.ToSortedLinearIds(), by_id.ToSortedLinearIds());
  EXPECT_TRUE(by_range.IsSubsetOf(by_id));
  EXPECT_TRUE(by_id.IsSubsetOf(by_range));

  // An empty range on an untouched set allocates and inserts nothing.
  IndexSet empty(shape);
  empty.InsertRange(5, 5);
  EXPECT_TRUE(empty.empty());
}

TEST(DTypeTest, Sizes) {
  EXPECT_EQ(DTypeSize(DType::kInt32), 4);
  EXPECT_EQ(DTypeSize(DType::kInt64), 8);
  EXPECT_EQ(DTypeSize(DType::kFloat32), 4);
  EXPECT_EQ(DTypeSize(DType::kFloat64), 8);
  // The paper assumes 16-byte long double elements (Section V-B).
  EXPECT_EQ(DTypeSize(DType::kFloat128), 16);
}

TEST(DTypeTest, NamesAndValidity) {
  EXPECT_EQ(DTypeName(DType::kFloat128), "float128");
  EXPECT_TRUE(IsValidDType(0));
  EXPECT_TRUE(IsValidDType(4));
  EXPECT_FALSE(IsValidDType(5));
}

// --------------------------------------------------------------- Layouts --

TEST(RowMajorLayoutTest, OffsetsAreContiguous) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  EXPECT_EQ(layout.PayloadBytes(), 128);
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 0}), 0);
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 1}), 8);
  EXPECT_EQ(layout.ByteOffsetOf(Index{1, 0}), 32);
}

TEST(RowMajorLayoutTest, InverseMapping) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  StatusOr<Index> index = layout.IndexOfByteOffset(33);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*index, (Index{1, 0}));  // Offset mid-element maps to element.
  EXPECT_FALSE(layout.IndexOfByteOffset(-1).ok());
  EXPECT_FALSE(layout.IndexOfByteOffset(128).ok());
}

TEST(ChunkedLayoutTest, GridDims) {
  ChunkedLayout layout(Shape{10, 10}, DType::kFloat64, {4, 4});
  EXPECT_EQ(layout.ChunkGridDim(0), 3);
  EXPECT_EQ(layout.ChunkGridDim(1), 3);
  // 9 chunks, each padded to 16 elements.
  EXPECT_EQ(layout.PayloadBytes(), 9 * 16 * 8);
}

TEST(ChunkedLayoutTest, ChunkInteriorIsContiguous) {
  ChunkedLayout layout(Shape{8, 8}, DType::kFloat64, {4, 4});
  const int64_t base = layout.ByteOffsetOf(Index{0, 0});
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 1}) - base, 8);
  EXPECT_EQ(layout.ByteOffsetOf(Index{1, 0}) - base, 32);
  // Next chunk starts a full chunk later.
  EXPECT_EQ(layout.ByteOffsetOf(Index{0, 4}), 16 * 8);
}

TEST(ChunkedLayoutTest, PaddingBytesMapToNoElement) {
  ChunkedLayout layout(Shape{3, 3}, DType::kFloat64, {2, 2});
  // Chunk grid is 2x2; the element (0,0) of chunk (1,1) is index (2,2), and
  // its chunk-mate slot for (2,3) -> index (2,3) exists, but (3,3) is pure
  // padding.
  int pad_slots = 0;
  for (int64_t offset = 0; offset < layout.PayloadBytes(); offset += 8) {
    StatusOr<Index> index = layout.IndexOfByteOffset(offset);
    if (!index.ok()) {
      EXPECT_EQ(index.status().code(), StatusCode::kNotFound);
      ++pad_slots;
    }
  }
  // 4 chunks x 4 slots = 16 slots for 9 elements -> 7 padding slots.
  EXPECT_EQ(pad_slots, 7);
}

using LayoutParam = std::tuple<std::vector<int64_t>, std::vector<int64_t>,
                               DType>;

class ChunkedRoundTripTest : public ::testing::TestWithParam<LayoutParam> {};

TEST_P(ChunkedRoundTripTest, OffsetIndexRoundTrips) {
  const auto& [dims, chunks, dtype] = GetParam();
  ChunkedLayout layout(Shape(dims), dtype, chunks);
  layout.shape().ForEachIndex([&layout](const Index& index) {
    const int64_t offset = layout.ByteOffsetOf(index);
    EXPECT_GE(offset, 0);
    EXPECT_LT(offset, layout.PayloadBytes());
    StatusOr<Index> back = layout.IndexOfByteOffset(offset);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, index);
  });
}

TEST_P(ChunkedRoundTripTest, OffsetsAreUnique) {
  const auto& [dims, chunks, dtype] = GetParam();
  ChunkedLayout layout(Shape(dims), dtype, chunks);
  std::vector<int64_t> offsets;
  layout.shape().ForEachIndex([&layout, &offsets](const Index& index) {
    offsets.push_back(layout.ByteOffsetOf(index));
  });
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()),
            offsets.end());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChunkedRoundTripTest,
    ::testing::Values(
        LayoutParam{{8, 8}, {4, 4}, DType::kFloat64},
        LayoutParam{{10, 10}, {4, 4}, DType::kFloat128},
        LayoutParam{{7, 5}, {3, 2}, DType::kInt32},
        LayoutParam{{6, 6, 6}, {2, 3, 4}, DType::kFloat64},
        LayoutParam{{5, 5, 5}, {2, 2, 2}, DType::kFloat32},
        LayoutParam{{9}, {4}, DType::kInt64}));

TEST(LayoutTest, ElementsInByteRange) {
  RowMajorLayout layout(Shape{4, 4}, DType::kFloat64);
  std::vector<ElementRun> runs;
  // Bytes [4, 20) touch elements 0, 1, 2 (element 2 partially): one run.
  layout.ElementRunsInByteRange(4, 20, &runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (ElementRun{0, 3, 0}));
}

TEST(LayoutTest, ElementsInByteRangeClipsToPayload) {
  RowMajorLayout layout(Shape{2, 2}, DType::kFloat64);
  std::vector<ElementRun> runs;
  layout.ElementRunsInByteRange(-100, 1000, &runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (ElementRun{0, 4, 0}));
  runs.clear();
  layout.ElementRunsInByteRange(50, 40, &runs);
  EXPECT_TRUE(runs.empty());
}

TEST(LayoutTest, ByteRangeOfCoversElement) {
  ChunkedLayout layout(Shape{4, 4}, DType::kFloat128, {2, 2});
  const Interval range = layout.ByteRangeOf(Index{3, 3});
  EXPECT_EQ(range.length(), 16);
  StatusOr<Index> back = layout.IndexOfByteOffset(range.begin);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, (Index{3, 3}));
}

TEST(LayoutTest, MakeLayoutFactory) {
  std::unique_ptr<Layout> row =
      MakeLayout(LayoutKind::kRowMajor, Shape{4, 4}, DType::kFloat64);
  EXPECT_NE(dynamic_cast<RowMajorLayout*>(row.get()), nullptr);
  std::unique_ptr<Layout> chunked =
      MakeLayout(LayoutKind::kChunked, Shape{4, 4}, DType::kFloat64, {2, 2});
  EXPECT_NE(dynamic_cast<ChunkedLayout*>(chunked.get()), nullptr);
}

// ------------------------------------------------------------- DataArray --

TEST(DataArrayTest, ZeroInitialized) {
  DataArray array(Shape{3, 3});
  EXPECT_DOUBLE_EQ(array.At(Index{1, 1}), 0.0);
  EXPECT_EQ(array.dtype(), DType::kFloat128);
}

TEST(DataArrayTest, SetAndGet) {
  DataArray array(Shape{3, 3}, DType::kFloat64);
  array.Set(Index{2, 1}, 3.5);
  EXPECT_DOUBLE_EQ(array.At(Index{2, 1}), 3.5);
  EXPECT_DOUBLE_EQ(array.AtLinear(array.shape().Linearize(Index{2, 1})), 3.5);
}

TEST(DataArrayTest, FillWithFunction) {
  DataArray array(Shape{4, 4});
  array.FillWith([](const Index& index) {
    return static_cast<double>(index[0] * 10 + index[1]);
  });
  EXPECT_DOUBLE_EQ(array.At(Index{3, 2}), 32.0);
}

TEST(DataArrayTest, FillPatternIsDeterministic) {
  DataArray a(Shape{8, 8});
  DataArray b(Shape{8, 8});
  a.FillPattern(5);
  b.FillPattern(5);
  EXPECT_EQ(a.values(), b.values());
  DataArray c(Shape{8, 8});
  c.FillPattern(6);
  EXPECT_NE(a.values(), c.values());
}

}  // namespace
}  // namespace kondo
