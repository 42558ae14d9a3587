#include "mesh_refine.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "cm5/util/check.hpp"

namespace cm5::mesh {

TriMesh refine_uniform(const TriMesh& mesh) {
  std::vector<Point> vertices;
  vertices.reserve(static_cast<std::size_t>(mesh.num_vertices() + mesh.num_edges()));
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    vertices.push_back(mesh.vertex(v));
  }

  // One midpoint vertex per edge, created on first use.
  std::map<std::pair<VertexId, VertexId>, VertexId> midpoint;
  auto mid = [&](VertexId a, VertexId b) {
    const auto key = std::minmax(a, b);
    const auto it = midpoint.find(key);
    if (it != midpoint.end()) return it->second;
    const Point& pa = mesh.vertex(a);
    const Point& pb = mesh.vertex(b);
    const auto id = static_cast<VertexId>(vertices.size());
    vertices.push_back(Point{(pa.x + pb.x) / 2.0, (pa.y + pb.y) / 2.0});
    midpoint.emplace(key, id);
    return id;
  };

  std::vector<Triangle> triangles;
  triangles.reserve(static_cast<std::size_t>(4 * mesh.num_triangles()));
  for (TriId t = 0; t < mesh.num_triangles(); ++t) {
    const Triangle& tri = mesh.triangle(t);
    const VertexId a = tri.v[0], b = tri.v[1], c = tri.v[2];
    const VertexId ab = mid(a, b), bc = mid(b, c), ca = mid(c, a);
    // Corner triangles keep the parent's orientation; the central one
    // (ab, bc, ca) is counter-clockwise because the parent is.
    triangles.push_back(Triangle{{a, ab, ca}});
    triangles.push_back(Triangle{{ab, b, bc}});
    triangles.push_back(Triangle{{ca, bc, c}});
    triangles.push_back(Triangle{{ab, bc, ca}});
  }
  return TriMesh(std::move(vertices), std::move(triangles));
}

TriMesh refine_uniform(const TriMesh& mesh, std::int32_t levels) {
  CM5_CHECK(levels >= 1);
  TriMesh result = refine_uniform(mesh);
  for (std::int32_t l = 1; l < levels; ++l) result = refine_uniform(result);
  return result;
}

}  // namespace cm5::mesh
