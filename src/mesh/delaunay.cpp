#include "cm5/mesh/delaunay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "cm5/util/check.hpp"
#include "cm5/util/rng.hpp"

namespace cm5::mesh {
namespace {

/// > 0 when (a, b, c) is counter-clockwise.
double orient2d(const Point& a, const Point& b, const Point& c) {
  return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
}

/// > 0 when d lies strictly inside the circumcircle of CCW triangle
/// (a, b, c). The standard 3x3 incircle determinant, translated to d
/// for numerical conditioning.
double incircle(const Point& a, const Point& b, const Point& c,
                const Point& d) {
  const double adx = a.x - d.x, ady = a.y - d.y;
  const double bdx = b.x - d.x, bdy = b.y - d.y;
  const double cdx = c.x - d.x, cdy = c.y - d.y;
  const double ad = adx * adx + ady * ady;
  const double bd = bdx * bdx + bdy * bdy;
  const double cd = cdx * cdx + cdy * cdy;
  return adx * (bdy * cd - bd * cdy) - ady * (bdx * cd - bd * cdx) +
         ad * (bdx * cdy - bdy * cdx);
}

struct WorkTriangle {
  VertexId v[3];
  bool alive = true;
};

}  // namespace

TriMesh delaunay_triangulation(std::span<const Point> input) {
  CM5_CHECK_MSG(input.size() >= 3, "need at least three points");
  for (std::size_t i = 0; i < input.size(); ++i) {
    for (std::size_t j = i + 1; j < input.size(); ++j) {
      CM5_CHECK_MSG(input[i].x != input[j].x || input[i].y != input[j].y,
                    "duplicate points are not triangulable");
    }
  }

  // Working vertex list: the input plus a super-triangle big enough that
  // its circumcircles never exclude real interactions.
  std::vector<Point> points(input.begin(), input.end());
  double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
  for (const Point& p : points) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double span = std::max(max_x - min_x, max_y - min_y);
  CM5_CHECK_MSG(span > 0.0, "all points are identical");
  const double cx = (min_x + max_x) / 2.0, cy = (min_y + max_y) / 2.0;
  const double m = 64.0 * span;
  const auto super0 = static_cast<VertexId>(points.size());
  points.push_back(Point{cx - m, cy - m});
  points.push_back(Point{cx + m, cy - m});
  points.push_back(Point{cx, cy + m});

  std::vector<WorkTriangle> triangles;
  triangles.push_back(
      WorkTriangle{{super0, super0 + 1, super0 + 2}, true});

  for (VertexId v = 0; v < static_cast<VertexId>(input.size()); ++v) {
    const Point& p = points[static_cast<std::size_t>(v)];
    // Bowyer-Watson cavity: all triangles whose circumcircle holds p.
    // Edge -> count over cavity triangles; boundary edges appear once.
    std::map<std::pair<VertexId, VertexId>, std::pair<VertexId, VertexId>>
        boundary;  // key (lo,hi) -> directed (a,b) as seen from cavity
    bool found = false;
    for (WorkTriangle& t : triangles) {
      if (!t.alive) continue;
      if (incircle(points[static_cast<std::size_t>(t.v[0])],
                   points[static_cast<std::size_t>(t.v[1])],
                   points[static_cast<std::size_t>(t.v[2])], p) <= 0.0) {
        continue;
      }
      found = true;
      t.alive = false;
      for (int e = 0; e < 3; ++e) {
        const VertexId a = t.v[static_cast<std::size_t>(e)];
        const VertexId b = t.v[static_cast<std::size_t>((e + 1) % 3)];
        const auto key = std::minmax(a, b);
        const auto it = boundary.find(key);
        if (it == boundary.end()) {
          boundary.emplace(key, std::make_pair(a, b));
        } else {
          boundary.erase(it);  // interior edge: shared by two cavity tris
        }
      }
    }
    CM5_CHECK_MSG(found, "point fell outside every circumcircle");
    // Re-triangulate the star-shaped cavity from p. Keep the cavity's
    // edge orientation so every new triangle is CCW.
    for (const auto& [key, edge] : boundary) {
      triangles.push_back(WorkTriangle{{edge.first, edge.second, v}, true});
    }
  }

  // Strip the super-triangle and compact to the final mesh.
  std::vector<Triangle> out;
  for (const WorkTriangle& t : triangles) {
    if (!t.alive) continue;
    if (t.v[0] >= super0 || t.v[1] >= super0 || t.v[2] >= super0) continue;
    Triangle tri{{t.v[0], t.v[1], t.v[2]}};
    // Defensive orientation fix (exact CCW can flip under roundoff).
    if (orient2d(points[static_cast<std::size_t>(tri.v[0])],
                 points[static_cast<std::size_t>(tri.v[1])],
                 points[static_cast<std::size_t>(tri.v[2])]) < 0.0) {
      std::swap(tri.v[1], tri.v[2]);
    }
    out.push_back(tri);
  }
  points.resize(input.size());
  return TriMesh(std::move(points), std::move(out));
}

TriMesh random_delaunay_mesh(std::int32_t num_points, std::uint64_t seed) {
  CM5_CHECK(num_points >= 3);
  util::Rng rng = util::Rng::forked(seed, 0xde1a);
  // Dart throwing with a modest minimum separation: keeps the smallest
  // angles bounded away from zero without biasing the distribution much.
  const double min_dist =
      0.3 / std::sqrt(static_cast<double>(num_points));
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(num_points));
  std::int32_t attempts = 0;
  while (static_cast<std::int32_t>(points.size()) < num_points) {
    CM5_CHECK_MSG(++attempts < num_points * 200, "dart throwing stalled");
    const Point candidate{rng.next_double(), rng.next_double()};
    bool ok = true;
    for (const Point& q : points) {
      const double dx = candidate.x - q.x, dy = candidate.y - q.y;
      if (dx * dx + dy * dy < min_dist * min_dist) {
        ok = false;
        break;
      }
    }
    if (ok) points.push_back(candidate);
  }
  return delaunay_triangulation(points);
}

}  // namespace cm5::mesh
