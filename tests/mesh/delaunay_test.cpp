#include "cm5/mesh/delaunay.hpp"

#include <gtest/gtest.h>

#include "cm5/mesh/halo.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/util/check.hpp"
#include "delaunay_check.hpp"
#include "mesh_quality.hpp"

namespace cm5::mesh {
namespace {

TEST(DelaunayTest, TriangulatesASquare) {
  const std::vector<Point> square = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const TriMesh m = delaunay_triangulation(square);
  EXPECT_EQ(m.num_vertices(), 4);
  EXPECT_EQ(m.num_triangles(), 2);
  EXPECT_TRUE(is_delaunay(m));
}

TEST(DelaunayTest, KnownDegenerateChoice) {
  // Four points where one diagonal is Delaunay and the other is not:
  // (0,0), (2,0), (2,1), (0,1) with a point pulled in — use the classic
  // co-circular-avoiding configuration.
  const std::vector<Point> points = {{0, 0}, {3, 0}, {3, 1}, {0, 1}, {1.5, 0.4}};
  const TriMesh m = delaunay_triangulation(points);
  EXPECT_EQ(m.num_vertices(), 5);
  EXPECT_TRUE(is_delaunay(m));
  // A convex-hull triangulation of 5 points with 1 interior point has
  // 2*1 + 4 - 2 = 4 triangles.
  EXPECT_EQ(m.num_triangles(), 4);
}

class DelaunayPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DelaunayPropertyTest, RandomMeshesSatisfyEmptyCircumcircle) {
  const TriMesh m = random_delaunay_mesh(200, GetParam());
  EXPECT_EQ(m.num_vertices(), 200);
  EXPECT_TRUE(is_delaunay(m));
  // Convex-hull disk: V - E + F = 1.
  EXPECT_EQ(m.euler_characteristic(), 1);
}

TEST_P(DelaunayPropertyTest, QualityIsReasonable) {
  // Dart-throwing + Delaunay gives good *typical* angles; a few slivers
  // along the convex hull (nearly collinear hull points) are inherent to
  // triangulating the hull and are tolerated, but must stay rare.
  const TriMesh m = random_delaunay_mesh(300, GetParam() + 100);
  const MeshQuality q = measure_quality(m);
  EXPECT_GT(q.min_angle_deg.mean(), 20.0);
  std::int32_t slivers = 0;
  for (TriId t = 0; t < m.num_triangles(); ++t) {
    if (min_angle_deg(m, t) < 2.0) ++slivers;
  }
  EXPECT_LT(static_cast<double>(slivers),
            0.03 * static_cast<double>(m.num_triangles()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelaunayPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DelaunayTest, DeterministicInSeed) {
  const TriMesh a = random_delaunay_mesh(150, 9);
  const TriMesh b = random_delaunay_mesh(150, 9);
  ASSERT_EQ(a.num_triangles(), b.num_triangles());
  for (TriId t = 0; t < a.num_triangles(); ++t) {
    EXPECT_EQ(a.triangle(t).v, b.triangle(t).v);
  }
}

TEST(DelaunayTest, VertexDegreesAreIrregular) {
  // The point of this generator: unlike the perturbed grid (degree ~6
  // everywhere), a random Delaunay mesh has a genuine degree spread.
  const TriMesh m = random_delaunay_mesh(400, 11);
  std::int32_t min_degree = 1 << 30, max_degree = 0;
  for (VertexId v = 0; v < m.num_vertices(); ++v) {
    const auto d = static_cast<std::int32_t>(m.vertex_neighbors(v).size());
    min_degree = std::min(min_degree, d);
    max_degree = std::max(max_degree, d);
  }
  EXPECT_LE(min_degree, 4);
  EXPECT_GE(max_degree, 8);
}

TEST(DelaunayTest, RejectsBadInput) {
  EXPECT_THROW(delaunay_triangulation(std::vector<Point>{{0, 0}, {1, 1}}),
               util::CheckError);
  EXPECT_THROW(delaunay_triangulation(
                   std::vector<Point>{{0, 0}, {1, 1}, {0, 0}}),
               util::CheckError);
  EXPECT_THROW(delaunay_triangulation(
                   std::vector<Point>{{0, 0}, {0, 0}, {0, 0}}),
               util::CheckError);
}

TEST(DelaunayTest, WorksAsTable12Substrate) {
  // End-to-end: Delaunay mesh -> RCB -> halo pattern in the paper's
  // density regime.
  const TriMesh m = random_delaunay_mesh(1024, 13);
  const auto part = rcb_vertex_partition(m, 16);
  const HaloPlan halo = build_vertex_halo(m, part, 16);
  const auto pattern = halo.pattern(8);
  EXPECT_GT(pattern.density(), 0.05);
  EXPECT_LT(pattern.density(), 0.6);
}

}  // namespace
}  // namespace cm5::mesh
