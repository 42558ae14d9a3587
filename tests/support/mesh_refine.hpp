#pragma once

#include "cm5/mesh/mesh.hpp"

/// \file mesh_refine.hpp
/// Uniform mesh refinement: every triangle splits into four by edge
/// midpoints. Quadruples the cell count (and roughly the vertex count),
/// preserving orientation and boundary topology — the standard way to
/// scale a workload family up. Test support: the mesh tests use it to
/// check that refinement keeps the generators' meshes well formed.

namespace cm5::mesh {

/// Returns the uniformly refined mesh: V' = V + E vertices (original
/// vertices keep their ids; midpoint vertices are appended), T' = 4T
/// triangles. Each child triangle is counter-clockwise like its parent.
TriMesh refine_uniform(const TriMesh& mesh);

/// Refines `levels` times.
TriMesh refine_uniform(const TriMesh& mesh, std::int32_t levels);

}  // namespace cm5::mesh
