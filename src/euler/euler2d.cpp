#include "cm5/euler/euler2d.hpp"

#include <algorithm>
#include <cmath>

#include "cm5/util/check.hpp"

namespace cm5::euler {
namespace {

Cons operator+(const Cons& a, const Cons& b) {
  return Cons{a.rho + b.rho, a.mx + b.mx, a.my + b.my, a.e + b.e};
}
Cons operator-(const Cons& a, const Cons& b) {
  return Cons{a.rho - b.rho, a.mx - b.mx, a.my - b.my, a.e - b.e};
}
Cons operator*(double s, const Cons& a) {
  return Cons{s * a.rho, s * a.mx, s * a.my, s * a.e};
}

/// Mirror state across a wall with unit normal (nx, ny): the normal
/// velocity component flips, everything else is preserved. Feeding this
/// ghost to the Rusanov flux yields exactly zero mass and energy flux
/// through the wall (a slip-wall boundary).
Cons mirror(const Cons& c, double nx, double ny) {
  const double vn = c.mx * nx + c.my * ny;
  return Cons{c.rho, c.mx - 2.0 * vn * nx, c.my - 2.0 * vn * ny, c.e};
}

struct Flux {
  double rho, mx, my, e;
};

Flux physical_flux(const Cons& c, double nx, double ny, double gamma) {
  const double inv_rho = 1.0 / c.rho;
  const double u = c.mx * inv_rho;
  const double v = c.my * inv_rho;
  const double p = (gamma - 1.0) * (c.e - 0.5 * c.rho * (u * u + v * v));
  const double vn = u * nx + v * ny;
  return Flux{c.rho * vn, c.mx * vn + p * nx, c.my * vn + p * ny,
              (c.e + p) * vn};
}

double wave_speed(const Cons& c, double nx, double ny, double gamma) {
  const double inv_rho = 1.0 / c.rho;
  const double u = c.mx * inv_rho;
  const double v = c.my * inv_rho;
  const double p = (gamma - 1.0) * (c.e - 0.5 * c.rho * (u * u + v * v));
  const double a = std::sqrt(std::max(0.0, gamma * p * inv_rho));
  return std::abs(u * nx + v * ny) + a;
}

/// Rusanov (local Lax-Friedrichs) numerical flux through a unit normal.
Cons rusanov(const Cons& left, const Cons& right, double nx, double ny,
             double gamma) {
  const Flux fl = physical_flux(left, nx, ny, gamma);
  const Flux fr = physical_flux(right, nx, ny, gamma);
  const double lambda = std::max(wave_speed(left, nx, ny, gamma),
                                 wave_speed(right, nx, ny, gamma));
  return Cons{0.5 * (fl.rho + fr.rho) - 0.5 * lambda * (right.rho - left.rho),
              0.5 * (fl.mx + fr.mx) - 0.5 * lambda * (right.mx - left.mx),
              0.5 * (fl.my + fr.my) - 0.5 * lambda * (right.my - left.my),
              0.5 * (fl.e + fr.e) - 0.5 * lambda * (right.e - left.e)};
}

}  // namespace

Cons from_primitive(double rho, double u, double v, double p, double gamma) {
  CM5_CHECK(rho > 0.0 && p > 0.0);
  return Cons{rho, rho * u, rho * v,
              p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)};
}

double pressure(const Cons& c, double gamma) {
  const double inv_rho = 1.0 / c.rho;
  return (gamma - 1.0) *
         (c.e - 0.5 * (c.mx * c.mx + c.my * c.my) * inv_rho);
}

EulerSolver::EulerSolver(const mesh::TriMesh& mesh, double gamma)
    : mesh_(&mesh), gamma_(gamma) {
  const auto nt = static_cast<std::size_t>(mesh.num_triangles());
  cells_.assign(nt, from_primitive(1.0, 0.0, 0.0, 1.0, gamma_));
  next_.assign(nt, Cons{});
  area_.resize(nt);
  edge_normal_.resize(nt);
  for (mesh::TriId t = 0; t < mesh.num_triangles(); ++t) {
    area_[static_cast<std::size_t>(t)] = mesh.signed_area(t);
    const mesh::Triangle& tri = mesh.triangle(t);
    for (int e = 0; e < 3; ++e) {
      // Edge e is opposite vertex e and runs from v[(e+1)%3] to
      // v[(e+2)%3]; for a CCW triangle the outward normal of the edge
      // direction (dx, dy) is (dy, -dx), with length = edge length.
      const mesh::Point& a =
          mesh.vertex(tri.v[static_cast<std::size_t>((e + 1) % 3)]);
      const mesh::Point& b =
          mesh.vertex(tri.v[static_cast<std::size_t>((e + 2) % 3)]);
      edge_normal_[static_cast<std::size_t>(t)][static_cast<std::size_t>(2 * e)] =
          b.y - a.y;
      edge_normal_[static_cast<std::size_t>(t)]
                  [static_cast<std::size_t>(2 * e + 1)] = -(b.x - a.x);
    }
  }
}

void EulerSolver::set_state(std::span<const Cons> cells) {
  CM5_CHECK(cells.size() == cells_.size());
  std::copy(cells.begin(), cells.end(), cells_.begin());
}

void EulerSolver::set_uniform(const Cons& c) {
  std::fill(cells_.begin(), cells_.end(), c);
}

Cons EulerSolver::residual(std::span<const Cons> cells, mesh::TriId t) const {
  const auto ti = static_cast<std::size_t>(t);
  Cons net{};
  const auto& neighbors = mesh_->tri_neighbors(t);
  for (int e = 0; e < 3; ++e) {
    const double sx = edge_normal_[ti][static_cast<std::size_t>(2 * e)];
    const double sy = edge_normal_[ti][static_cast<std::size_t>(2 * e + 1)];
    const double len = std::sqrt(sx * sx + sy * sy);
    const double nx = sx / len;
    const double ny = sy / len;
    const Cons& left = cells[ti];
    const mesh::TriId nb = neighbors[static_cast<std::size_t>(e)];
    const Cons right =
        nb >= 0 ? cells[static_cast<std::size_t>(nb)] : mirror(left, nx, ny);
    const Cons flux = rusanov(left, right, nx, ny, gamma_);
    net = net + len * flux;
  }
  return net;
}

void EulerSolver::step(double dt) {
  CM5_CHECK(dt > 0.0);
  for (mesh::TriId t = 0; t < mesh_->num_triangles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const Cons net = residual(cells_, t);
    next_[ti] = cells_[ti] - (dt / area_[ti]) * net;
  }
  cells_.swap(next_);
}

void EulerSolver::step_rk2(double dt) {
  CM5_CHECK(dt > 0.0);
  const auto nt = cells_.size();
  if (stage_.size() != nt) stage_.assign(nt, Cons{});
  // Stage 1: U1 = U - dt/A R(U).
  for (mesh::TriId t = 0; t < mesh_->num_triangles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    stage_[ti] = cells_[ti] - (dt / area_[ti]) * residual(cells_, t);
  }
  // Stage 2: U^{n+1} = (U + U1 - dt/A R(U1)) / 2.
  for (mesh::TriId t = 0; t < mesh_->num_triangles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const Cons u2 = stage_[ti] - (dt / area_[ti]) * residual(stage_, t);
    next_[ti] = 0.5 * (cells_[ti] + u2);
  }
  cells_.swap(next_);
}

double EulerSolver::stable_dt(double cfl) const {
  CM5_CHECK(cfl > 0.0);
  double dt = 1e300;
  for (mesh::TriId t = 0; t < mesh_->num_triangles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    double perimeter_speed = 0.0;
    for (int e = 0; e < 3; ++e) {
      const double sx = edge_normal_[ti][static_cast<std::size_t>(2 * e)];
      const double sy = edge_normal_[ti][static_cast<std::size_t>(2 * e + 1)];
      const double len = std::sqrt(sx * sx + sy * sy);
      perimeter_speed +=
          len * wave_speed(cells_[ti], sx / len, sy / len, gamma_);
    }
    dt = std::min(dt, cfl * area_[ti] / perimeter_speed);
  }
  return dt;
}

double EulerSolver::total_mass() const {
  double total = 0.0;
  for (std::size_t t = 0; t < cells_.size(); ++t) {
    total += cells_[t].rho * area_[t];
  }
  return total;
}

double EulerSolver::total_energy() const {
  double total = 0.0;
  for (std::size_t t = 0; t < cells_.size(); ++t) {
    total += cells_[t].e * area_[t];
  }
  return total;
}

// ----------------------------------------------------------- distributed

DistributedEuler::DistributedEuler(machine::Node& node,
                                   const mesh::TriMesh& mesh,
                                   std::span<const mesh::PartId> cell_part,
                                   const mesh::HaloPlan& halo,
                                   sched::Scheduler scheduler,
                                   std::span<const Cons> initial, double gamma)
    : node_(&node),
      solver_(mesh, gamma),
      cell_part_(cell_part),
      halo_(&halo),
      schedule_(sched::build_schedule(scheduler,
                                      halo.pattern(sizeof(Cons)))) {
  CM5_CHECK(cell_part.size() == static_cast<std::size_t>(mesh.num_triangles()));
  CM5_CHECK(halo.nparts() == node.nprocs());
  solver_.set_state(initial);
  for (std::size_t t = 0; t < cell_part.size(); ++t) {
    if (cell_part[t] == node.self()) {
      owned_.push_back(static_cast<std::int32_t>(t));
    }
  }
}

void DistributedEuler::exchange_ghosts() {
  halo_->exchange(*node_, schedule_, std::span<Cons>(solver_.cells_));
}

void DistributedEuler::step(double dt) {
  exchange_ghosts();
  auto& cells = solver_.cells_;
  auto& next = solver_.next_;
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    const Cons net = solver_.residual(cells, t);
    next[ti] = cells[ti] - (dt / solver_.area_[ti]) * net;
  }
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    cells[ti] = next[ti];
  }
  // ~90 flops per Rusanov flux, 3 edges, plus the cell update.
  node_->compute_flops(300.0 * static_cast<double>(owned_.size()));
}

void DistributedEuler::step_rk2(double dt) {
  auto& cells = solver_.cells_;
  auto& next = solver_.next_;
  auto& stage = solver_.stage_;
  if (stage.size() != cells.size()) stage.assign(cells.size(), Cons{});

  // Stage 1 on fresh U^n ghosts; remember owned U^n in `next`.
  exchange_ghosts();
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    stage[ti] = cells[ti] - (dt / solver_.area_[ti]) *
                                solver_.residual(cells, t);
    next[ti] = cells[ti];  // save U^n
  }
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    cells[ti] = stage[ti];  // publish U1 for the ghost exchange
  }

  // Stage 2 on fresh U1 ghosts. `cells` holds U1 everywhere we read it;
  // the serial integrator evaluates stage 2 on exactly the same values.
  exchange_ghosts();
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    const Cons u2 =
        cells[ti] - (dt / solver_.area_[ti]) * solver_.residual(cells, t);
    stage[ti] = 0.5 * (next[ti] + u2);
  }
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    cells[ti] = stage[ti];
  }
  node_->compute_flops(600.0 * static_cast<double>(owned_.size()));
}

double DistributedEuler::stable_dt(double cfl) {
  double dt = 1e300;
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    double perimeter_speed = 0.0;
    for (int e = 0; e < 3; ++e) {
      const double sx = solver_.edge_normal_[ti][static_cast<std::size_t>(2 * e)];
      const double sy =
          solver_.edge_normal_[ti][static_cast<std::size_t>(2 * e + 1)];
      const double len = std::sqrt(sx * sx + sy * sy);
      perimeter_speed += len * wave_speed(solver_.cells_[ti], sx / len,
                                          sy / len, solver_.gamma_);
    }
    dt = std::min(dt, cfl * solver_.area_[ti] / perimeter_speed);
  }
  // Agree globally: dt = min over nodes = -max(-dt).
  return -node_->reduce_max(-dt);
}

double DistributedEuler::total_mass() {
  double total = 0.0;
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    total += solver_.cells_[ti].rho * solver_.area_[ti];
  }
  return node_->reduce_sum(total);
}

double DistributedEuler::total_energy() {
  double total = 0.0;
  for (const std::int32_t t : owned_) {
    const auto ti = static_cast<std::size_t>(t);
    total += solver_.cells_[ti].e * solver_.area_[ti];
  }
  return node_->reduce_sum(total);
}

}  // namespace cm5::euler
