#include "mesh_quality.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace cm5::mesh {
namespace {

double distance(const Point& a, const Point& b) {
  return std::hypot(b.x - a.x, b.y - a.y);
}

}  // namespace

double min_angle_deg(const TriMesh& mesh, TriId t) {
  const Triangle& tri = mesh.triangle(t);
  const Point& a = mesh.vertex(tri.v[0]);
  const Point& b = mesh.vertex(tri.v[1]);
  const Point& c = mesh.vertex(tri.v[2]);
  const double la = distance(b, c);  // side opposite A
  const double lb = distance(c, a);
  const double lc = distance(a, b);
  auto angle = [](double opposite, double s1, double s2) {
    const double cosine =
        std::clamp((s1 * s1 + s2 * s2 - opposite * opposite) / (2 * s1 * s2),
                   -1.0, 1.0);
    return std::acos(cosine) * 180.0 / std::numbers::pi;
  };
  return std::min({angle(la, lb, lc), angle(lb, lc, la), angle(lc, la, lb)});
}

double aspect_ratio(const TriMesh& mesh, TriId t) {
  const Triangle& tri = mesh.triangle(t);
  const Point& a = mesh.vertex(tri.v[0]);
  const Point& b = mesh.vertex(tri.v[1]);
  const Point& c = mesh.vertex(tri.v[2]);
  const double longest =
      std::max({distance(b, c), distance(c, a), distance(a, b)});
  // Altitude from the longest edge: 2 * area / longest.
  const double altitude = 2.0 * mesh.signed_area(t) / longest;
  return longest / altitude;
}

MeshQuality measure_quality(const TriMesh& mesh) {
  MeshQuality q;
  for (TriId t = 0; t < mesh.num_triangles(); ++t) {
    q.min_angle_deg.add(min_angle_deg(mesh, t));
    q.aspect_ratio.add(aspect_ratio(mesh, t));
    const double area = mesh.signed_area(t);
    q.area.add(area);
    q.total_area += area;
  }
  return q;
}

}  // namespace cm5::mesh
