#pragma once

#include <cstdint>
#include <span>

#include "cm5/mesh/mesh.hpp"

/// \file delaunay.hpp
/// Delaunay triangulation (Bowyer-Watson) — the genuinely unstructured
/// mesh source. The perturbed-grid and annulus generators have
/// structured connectivity under the jitter; Delaunay triangulations of
/// random point sets reproduce the irregular vertex degrees of real
/// advancing-front meshes like the paper's Mavriplis airfoil grids.

namespace cm5::mesh {

/// Triangulates the convex hull of `points` (at least 3, not all
/// collinear). O(n^2) incremental Bowyer-Watson — fine for the 10^3-10^4
/// point meshes this library works at. Duplicate points are rejected.
/// The result satisfies the empty-circumcircle property (verified by the
/// property tests) and is a valid CCW TriMesh.
TriMesh delaunay_triangulation(std::span<const Point> points);

/// A Delaunay mesh of `num_points` pseudo-random points in the unit
/// square (deterministic in `seed`), with a thin margin enforced between
/// points so the triangulation is well conditioned.
TriMesh random_delaunay_mesh(std::int32_t num_points, std::uint64_t seed);

}  // namespace cm5::mesh
