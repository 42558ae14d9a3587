#include "delaunay_check.hpp"

#include <cmath>

namespace cm5::mesh {

bool is_delaunay(const TriMesh& mesh, double tolerance) {
  for (TriId t = 0; t < mesh.num_triangles(); ++t) {
    const Triangle& tri = mesh.triangle(t);
    const Point& a = mesh.vertex(tri.v[0]);
    const Point& b = mesh.vertex(tri.v[1]);
    const Point& c = mesh.vertex(tri.v[2]);
    // Scale-aware tolerance: incircle grows with the 4th power of size.
    const double scale =
        std::pow(std::abs(mesh.signed_area(t)) + 1e-30, 2.0);
    for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
      if (v == tri.v[0] || v == tri.v[1] || v == tri.v[2]) continue;
      // The 3x3 incircle determinant, translated to d: > 0 when d lies
      // strictly inside the circumcircle of CCW triangle (a, b, c).
      const Point& d = mesh.vertex(v);
      const double adx = a.x - d.x, ady = a.y - d.y;
      const double bdx = b.x - d.x, bdy = b.y - d.y;
      const double cdx = c.x - d.x, cdy = c.y - d.y;
      const double ad = adx * adx + ady * ady;
      const double bd = bdx * bdx + bdy * bdy;
      const double cd = cdx * cdx + cdy * cdy;
      const double incircle = adx * (bdy * cd - bd * cdy) -
                              ady * (bdx * cd - bd * cdx) +
                              ad * (bdx * cdy - bdy * cdx);
      if (incircle > tolerance * scale) return false;
    }
  }
  return true;
}

}  // namespace cm5::mesh
