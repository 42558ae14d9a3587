#pragma once

#include "cm5/mesh/mesh.hpp"
#include "running_stats.hpp"

/// \file mesh_quality.hpp
/// Mesh quality metrics. Test support: the mesh tests use them to check
/// that generated and refined meshes are free of slivers (a sliver-ridden
/// mesh distorts the Table 12 communication patterns and the Euler
/// solver's stable dt).

namespace cm5::mesh {

/// Per-mesh quality summary.
struct MeshQuality {
  util::RunningStats min_angle_deg;    ///< smallest angle of each triangle
  util::RunningStats aspect_ratio;     ///< longest edge / shortest altitude
  util::RunningStats area;             ///< triangle areas
  double total_area = 0.0;
};

/// Computes all metrics in one pass.
MeshQuality measure_quality(const TriMesh& mesh);

/// Smallest angle (degrees) of one triangle.
double min_angle_deg(const TriMesh& mesh, TriId t);

/// Longest-edge / shortest-altitude ratio of one triangle (1.15 for an
/// equilateral triangle; large values mean slivers).
double aspect_ratio(const TriMesh& mesh, TriId t);

}  // namespace cm5::mesh
