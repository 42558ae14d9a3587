#pragma once

#include "cm5/mesh/mesh.hpp"

/// \file delaunay_check.hpp
/// The empty-circumcircle property, checked by brute force. Test
/// support: the mesh tests verify delaunay_triangulation with it.

namespace cm5::mesh {

/// True if no vertex lies strictly inside any triangle's circumcircle —
/// the Delaunay property. O(T * V).
bool is_delaunay(const TriMesh& mesh, double tolerance = 1e-9);

}  // namespace cm5::mesh
