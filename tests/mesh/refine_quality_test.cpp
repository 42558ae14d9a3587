#include <gtest/gtest.h>

#include <cmath>

#include "cm5/mesh/generate.hpp"
#include "cm5/util/check.hpp"
#include "mesh_quality.hpp"
#include "mesh_refine.hpp"

namespace cm5::mesh {
namespace {

TEST(RefineTest, CountsQuadrupleTriangles) {
  const TriMesh coarse = perturbed_grid(6, 6, 0.2, 1);
  const TriMesh fine = refine_uniform(coarse);
  EXPECT_EQ(fine.num_triangles(), 4 * coarse.num_triangles());
  EXPECT_EQ(fine.num_vertices(), coarse.num_vertices() + coarse.num_edges());
  // Refinement preserves the topology (Euler characteristic).
  EXPECT_EQ(fine.euler_characteristic(), coarse.euler_characteristic());
}

TEST(RefineTest, PreservesAnnulusTopologyAndBoundary) {
  const TriMesh coarse = airfoil_annulus(4, 12, 2);
  const TriMesh fine = refine_uniform(coarse);
  EXPECT_EQ(fine.euler_characteristic(), 0);  // still an annulus
  // Each boundary edge splits in two.
  EXPECT_EQ(fine.num_boundary_edges(), 2 * coarse.num_boundary_edges());
}

TEST(RefineTest, PreservesTotalArea) {
  const TriMesh coarse = perturbed_grid(5, 7, 0.2, 3);
  const TriMesh fine = refine_uniform(coarse);
  EXPECT_NEAR(measure_quality(fine).total_area,
              measure_quality(coarse).total_area, 1e-9);
}

TEST(RefineTest, MultiLevelGrowsGeometrically) {
  const TriMesh coarse = perturbed_grid(4, 4, 0.1, 4);
  const TriMesh fine = refine_uniform(coarse, 3);
  EXPECT_EQ(fine.num_triangles(), 64 * coarse.num_triangles());
  EXPECT_THROW(refine_uniform(coarse, 0), util::CheckError);
}

TEST(RefineTest, QualityDoesNotDegrade) {
  // Midpoint refinement produces four similar copies of each triangle:
  // min angles are preserved exactly (up to floating point).
  const TriMesh coarse = airfoil_with_target(545, 5);
  const TriMesh fine = refine_uniform(coarse);
  const MeshQuality qc = measure_quality(coarse);
  const MeshQuality qf = measure_quality(fine);
  EXPECT_NEAR(qf.min_angle_deg.min(), qc.min_angle_deg.min(), 1e-6);
  EXPECT_NEAR(qf.aspect_ratio.max(), qc.aspect_ratio.max(), 1e-6);
}

TEST(QualityTest, EquilateralTriangleMetrics) {
  const TriMesh m({{0, 0}, {1, 0}, {0.5, std::sqrt(3.0) / 2.0}},
                  {Triangle{{0, 1, 2}}});
  EXPECT_NEAR(min_angle_deg(m, 0), 60.0, 1e-9);
  // Longest edge 1, altitude sqrt(3)/2 -> ratio 2/sqrt(3) ~ 1.1547.
  EXPECT_NEAR(aspect_ratio(m, 0), 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(QualityTest, RightTriangleMetrics) {
  const TriMesh m({{0, 0}, {1, 0}, {0, 1}}, {Triangle{{0, 1, 2}}});
  EXPECT_NEAR(min_angle_deg(m, 0), 45.0, 1e-9);
  // Longest edge sqrt(2); area 1/2 -> altitude = 2*(1/2)/sqrt(2).
  EXPECT_NEAR(aspect_ratio(m, 0), 2.0, 1e-9);
}

TEST(QualityTest, SliverIsFlagged) {
  const TriMesh m({{0, 0}, {1, 0}, {0.5, 0.01}}, {Triangle{{0, 1, 2}}});
  EXPECT_LT(min_angle_deg(m, 0), 2.0);
  EXPECT_GT(aspect_ratio(m, 0), 40.0);
}

TEST(QualityTest, GeneratedMeshesAreHealthy) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const MeshQuality grid = measure_quality(perturbed_grid(16, 16, 0.25, seed));
    EXPECT_GT(grid.min_angle_deg.min(), 10.0);
    EXPECT_LT(grid.aspect_ratio.max(), 8.0);
    const MeshQuality annulus = measure_quality(airfoil_with_target(2048, seed));
    EXPECT_GT(annulus.min_angle_deg.min(), 5.0);
    EXPECT_GT(annulus.total_area, 0.0);
  }
}

}  // namespace
}  // namespace cm5::mesh
