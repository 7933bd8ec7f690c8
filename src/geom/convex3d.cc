#include "geom/convex3d.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "common/logging.h"

namespace kondo {
namespace {

/// Builds an outward-oriented facet over points[a], points[b], points[c],
/// flipping winding if needed so that `interior` lies on the negative side.
HullFacet MakeFacet(const std::vector<Vec3>& points, int a, int b, int c,
                    const Vec3& interior) {
  HullFacet facet;
  facet.a = a;
  facet.b = b;
  facet.c = c;
  Vec3 normal =
      Cross(points[b] - points[a], points[c] - points[a]);
  normal = Normalized(normal);
  double offset = Dot(normal, points[a]);
  if (Dot(normal, interior) - offset > 0.0) {
    std::swap(facet.b, facet.c);
    normal = normal * -1.0;
    offset = -offset;
  }
  facet.normal = normal;
  facet.offset = offset;
  return facet;
}

/// Finds four points spanning 3-D space; returns nullopt when the input is
/// degenerate (the caller should have rank-reduced already).
std::optional<std::array<int, 4>> FindInitialTetrahedron(
    const std::vector<Vec3>& points) {
  const int n = static_cast<int>(points.size());
  if (n < 4) {
    return std::nullopt;
  }
  // First two: the pair realizing the largest extent along any axis.
  int i0 = 0;
  int i1 = 0;
  double best = -1.0;
  for (int axis = 0; axis < 3; ++axis) {
    int lo = 0;
    int hi = 0;
    for (int i = 1; i < n; ++i) {
      if (points[i][axis] < points[lo][axis]) lo = i;
      if (points[i][axis] > points[hi][axis]) hi = i;
    }
    const double extent = points[hi][axis] - points[lo][axis];
    if (extent > best) {
      best = extent;
      i0 = lo;
      i1 = hi;
    }
  }
  if (best <= kGeomTol) {
    return std::nullopt;
  }
  // Third: farthest from the line i0-i1.
  const Vec3 dir = Normalized(points[i1] - points[i0]);
  int i2 = -1;
  best = kGeomTol;
  for (int i = 0; i < n; ++i) {
    const Vec3 rel = points[i] - points[i0];
    const double dist = Norm(rel - dir * Dot(rel, dir));
    if (dist > best) {
      best = dist;
      i2 = i;
    }
  }
  if (i2 < 0) {
    return std::nullopt;
  }
  // Fourth: farthest from the plane (i0, i1, i2).
  const Vec3 normal =
      Normalized(Cross(points[i1] - points[i0], points[i2] - points[i0]));
  int i3 = -1;
  best = kGeomTol;
  for (int i = 0; i < n; ++i) {
    const double dist = std::abs(Dot(normal, points[i] - points[i0]));
    if (dist > best) {
      best = dist;
      i3 = i;
    }
  }
  if (i3 < 0) {
    return std::nullopt;
  }
  return std::array<int, 4>{i0, i1, i2, i3};
}

}  // namespace

Hull3D ConvexHull3D(const std::vector<Vec3>& points) {
  Hull3D hull;
  const std::optional<std::array<int, 4>> found =
      FindInitialTetrahedron(points);
  KONDO_CHECK(found.has_value())
      << "ConvexHull3D requires full-dimensional input";
  const std::array<int, 4>& tetra = *found;

  const Vec3 interior = (points[tetra[0]] + points[tetra[1]] +
                         points[tetra[2]] + points[tetra[3]]) /
                        4.0;
  hull.facets.push_back(
      MakeFacet(points, tetra[0], tetra[1], tetra[2], interior));
  hull.facets.push_back(
      MakeFacet(points, tetra[0], tetra[1], tetra[3], interior));
  hull.facets.push_back(
      MakeFacet(points, tetra[0], tetra[2], tetra[3], interior));
  hull.facets.push_back(
      MakeFacet(points, tetra[1], tetra[2], tetra[3], interior));

  // Plane of each facet, in facet order: the visibility scan below is the
  // hot loop, and four packed doubles per facet keep it in cache.
  std::vector<double> planes;
  auto push_plane = [&planes](const HullFacet& facet) {
    planes.insert(planes.end(), {facet.normal.x, facet.normal.y,
                                 facet.normal.z, facet.offset});
  };
  for (const HullFacet& facet : hull.facets) {
    push_plane(facet);
  }
  std::vector<char> visible;
  // Edges of the visible facets as (undirected key, directed edge).
  std::vector<std::pair<std::pair<int, int>, std::pair<int, int>>> edges;
  const int n = static_cast<int>(points.size());
  for (int i = 0; i < n; ++i) {
    if (i == tetra[0] || i == tetra[1] || i == tetra[2] || i == tetra[3]) {
      continue;
    }
    // Collect facets visible from points[i] (HullFacet::SignedDistance).
    const Vec3& p = points[i];
    const size_t num_facets = hull.facets.size();
    visible.resize(num_facets);
    bool any_visible = false;
    for (size_t f = 0; f < num_facets; ++f) {
      const double* plane = &planes[4 * f];
      const bool sees =
          plane[0] * p.x + plane[1] * p.y + plane[2] * p.z - plane[3] >
          kGeomTol;
      visible[f] = sees;
      any_visible |= sees;
    }
    if (!any_visible) {
      continue;  // Inside (or on) the current hull.
    }
    // Horizon edges: edges belonging to exactly one visible facet. Edges
    // shared by two visible facets are interior to the visible region.
    edges.clear();
    for (size_t f = 0; f < num_facets; ++f) {
      if (!visible[f]) {
        continue;
      }
      const HullFacet& facet = hull.facets[f];
      for (const auto& [u, v] : {std::pair<int, int>{facet.a, facet.b},
                                 std::pair<int, int>{facet.b, facet.c},
                                 std::pair<int, int>{facet.c, facet.a}}) {
        edges.push_back({std::minmax(u, v), {u, v}});
      }
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    // Remove visible facets, keeping the order of the rest.
    size_t kept = 0;
    for (size_t f = 0; f < num_facets; ++f) {
      if (visible[f]) {
        continue;
      }
      if (kept != f) {
        hull.facets[kept] = hull.facets[f];
        std::copy_n(&planes[4 * f], 4, &planes[4 * kept]);
      }
      ++kept;
    }
    hull.facets.resize(kept);
    planes.resize(4 * kept);
    // Attach a new facet for every horizon edge, in edge-key order.
    for (size_t e = 0; e < edges.size();) {
      size_t end = e + 1;
      while (end < edges.size() && edges[end].first == edges[e].first) {
        ++end;
      }
      if (end - e == 1) {
        hull.facets.push_back(MakeFacet(points, edges[e].second.first,
                                        edges[e].second.second, i, interior));
        push_plane(hull.facets.back());
      }
      e = end;
    }
  }

  std::set<int> vertex_set;
  for (const HullFacet& facet : hull.facets) {
    vertex_set.insert(facet.a);
    vertex_set.insert(facet.b);
    vertex_set.insert(facet.c);
  }
  hull.vertex_indices.assign(vertex_set.begin(), vertex_set.end());
  return hull;
}

bool PointInHull3D(const Hull3D& hull, const Vec3& p, double tol) {
  for (const HullFacet& facet : hull.facets) {
    if (facet.SignedDistance(p) > tol) {
      return false;
    }
  }
  return !hull.facets.empty();
}

double Hull3DVolume(const Hull3D& hull, const std::vector<Vec3>& points) {
  if (hull.facets.empty()) {
    return 0.0;
  }
  // Sum of signed tetrahedron volumes from the origin; facets are outward
  // oriented so the signed sum is the enclosed volume.
  double volume = 0.0;
  for (const HullFacet& facet : hull.facets) {
    const Vec3& a = points[facet.a];
    const Vec3& b = points[facet.b];
    const Vec3& c = points[facet.c];
    volume += Dot(a, Cross(b, c));
  }
  return std::abs(volume) / 6.0;
}

}  // namespace kondo
