#include "cm5/sparse/cg.hpp"

#include <cmath>

#include "cm5/util/check.hpp"

namespace cm5::sparse {

CgResult cg_solve(const CsrMatrix& A, std::span<const double> b,
                  std::int32_t max_iterations, double tol) {
  const auto n = static_cast<std::size_t>(A.rows());
  CM5_CHECK(b.size() == n);
  CgResult result;
  result.x.assign(n, 0.0);
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> p = r;
  std::vector<double> ap(n, 0.0);

  auto dot = [](std::span<const double> u, std::span<const double> v) {
    double sum = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) sum += u[i] * v[i];
    return sum;
  };

  double rr = dot(r, r);
  const double b_norm = std::sqrt(dot(b, b));
  const double threshold = tol * (b_norm > 0.0 ? b_norm : 1.0);

  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    if (std::sqrt(rr) <= threshold) {
      result.converged = true;
      break;
    }
    A.multiply(p, ap);
    const double pap = dot(p, ap);
    CM5_CHECK_MSG(pap > 0.0, "matrix is not positive definite");
    const double alpha = rr / pap;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
    ++result.iterations;
  }
  result.converged = result.converged || std::sqrt(rr) <= threshold;
  result.residual_norm = std::sqrt(rr);
  return result;
}

CgResult pcg_solve(const CsrMatrix& A, std::span<const double> b,
                   std::int32_t max_iterations, double tol) {
  const auto n = static_cast<std::size_t>(A.rows());
  CM5_CHECK(b.size() == n);

  // Inverse diagonal of A (Jacobi preconditioner).
  std::vector<double> inv_diag(n, 0.0);
  for (std::int32_t r = 0; r < A.rows(); ++r) {
    const auto cols = A.row_cols(r);
    const auto vals = A.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == r) {
        CM5_CHECK_MSG(vals[k] > 0.0, "SPD matrix must have positive diagonal");
        inv_diag[static_cast<std::size_t>(r)] = 1.0 / vals[k];
      }
    }
    CM5_CHECK_MSG(inv_diag[static_cast<std::size_t>(r)] > 0.0,
                  "matrix row has no diagonal entry");
  }

  auto dot = [](std::span<const double> u, std::span<const double> v) {
    double sum = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) sum += u[i] * v[i];
    return sum;
  };

  CgResult result;
  result.x.assign(n, 0.0);
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> z(n), p(n), ap(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  p = z;
  double rz = dot(r, z);
  double rr = dot(r, r);
  const double b_norm = std::sqrt(dot(b, b));
  const double threshold = tol * (b_norm > 0.0 ? b_norm : 1.0);

  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    if (std::sqrt(rr) <= threshold) {
      result.converged = true;
      break;
    }
    A.multiply(p, ap);
    const double pap = dot(p, ap);
    CM5_CHECK_MSG(pap > 0.0, "matrix is not positive definite");
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    rz = rz_new;
    rr = dot(r, r);
    ++result.iterations;
  }
  result.converged = result.converged || std::sqrt(rr) <= threshold;
  result.residual_norm = std::sqrt(rr);
  return result;
}

namespace {

/// What both distributed solvers set up on each node: its owned rows,
/// their nonzero count, the halo schedule (built once, reused every
/// iteration) and the owned dot product.
struct DistributedSetup {
  machine::Node& node;
  const mesh::HaloPlan& halo;
  std::vector<std::int32_t> owned;
  std::int64_t owned_nnz = 0;
  sched::CommSchedule schedule;

  DistributedSetup(machine::Node& node_in, const CsrMatrix& A,
                   std::span<const double> b,
                   std::span<const mesh::PartId> vertex_part,
                   const mesh::HaloPlan& halo_in, sched::Scheduler scheduler)
      : node(node_in),
        halo(halo_in),
        schedule(sched::build_schedule(scheduler,
                                       halo_in.pattern(sizeof(double)))) {
    const auto n = static_cast<std::size_t>(A.rows());
    CM5_CHECK(b.size() == n);
    CM5_CHECK(vertex_part.size() == n);
    CM5_CHECK(halo.nparts() == node.nprocs());
    for (std::size_t i = 0; i < n; ++i) {
      if (vertex_part[i] == node.self()) {
        owned.push_back(static_cast<std::int32_t>(i));
        owned_nnz += static_cast<std::int64_t>(
            A.row_cols(static_cast<std::int32_t>(i)).size());
      }
    }
  }

  /// Refreshes the ghost entries of `vec` before a matvec.
  void exchange_ghosts(std::span<double> vec) {
    halo.exchange(node, schedule, vec);
  }

  double owned_dot(std::span<const double> u, std::span<const double> v) {
    double sum = 0.0;
    for (const std::int32_t i : owned) {
      sum += u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
    }
    // Control-network reduction (paper §2: global ops).
    return node.reduce_sum(sum);
  }
};

}  // namespace

CgResult cg_solve_distributed(machine::Node& node, const CsrMatrix& A,
                              std::span<const double> b,
                              std::span<const mesh::PartId> vertex_part,
                              const mesh::HaloPlan& halo,
                              sched::Scheduler scheduler,
                              std::int32_t max_iterations, double tol) {
  DistributedSetup setup(node, A, b, vertex_part, halo, scheduler);
  const auto& owned = setup.owned;
  const auto n = static_cast<std::size_t>(A.rows());

  CgResult result;
  result.x.assign(n, 0.0);
  std::vector<double> r(n, 0.0), p(n, 0.0), ap(n, 0.0);
  for (const std::int32_t i : owned) {
    r[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i)];
    p[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i)];
  }

  double rr = setup.owned_dot(r, r);
  const double b_norm = std::sqrt(setup.owned_dot(b, b));
  const double threshold = tol * (b_norm > 0.0 ? b_norm : 1.0);

  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    if (std::sqrt(rr) <= threshold) {
      result.converged = true;
      break;
    }
    setup.exchange_ghosts(p);
    A.multiply_rows(owned, p, ap);
    // 2 flops per nonzero (multiply-add) plus the vector updates below.
    node.compute_flops(2.0 * static_cast<double>(setup.owned_nnz) +
                       10.0 * static_cast<double>(owned.size()));
    const double pap = setup.owned_dot(p, ap);
    CM5_CHECK_MSG(pap > 0.0, "matrix is not positive definite");
    const double alpha = rr / pap;
    for (const std::int32_t i : owned) {
      result.x[static_cast<std::size_t>(i)] += alpha * p[static_cast<std::size_t>(i)];
      r[static_cast<std::size_t>(i)] -= alpha * ap[static_cast<std::size_t>(i)];
    }
    const double rr_new = setup.owned_dot(r, r);
    const double beta = rr_new / rr;
    for (const std::int32_t i : owned) {
      p[static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(i)] + beta * p[static_cast<std::size_t>(i)];
    }
    rr = rr_new;
    ++result.iterations;
  }
  result.converged = result.converged || std::sqrt(rr) <= threshold;
  result.residual_norm = std::sqrt(rr);
  return result;
}


CgResult pcg_solve_distributed(machine::Node& node, const CsrMatrix& A,
                               std::span<const double> b,
                               std::span<const mesh::PartId> vertex_part,
                               const mesh::HaloPlan& halo,
                               sched::Scheduler scheduler,
                               std::int32_t max_iterations, double tol) {
  DistributedSetup setup(node, A, b, vertex_part, halo, scheduler);
  const auto& owned = setup.owned;
  const auto n = static_cast<std::size_t>(A.rows());

  std::vector<double> inv_diag(n, 0.0);
  for (const std::int32_t r : owned) {
    const auto cols = A.row_cols(r);
    const auto vals = A.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == r) {
        CM5_CHECK_MSG(vals[k] > 0.0, "SPD matrix must have positive diagonal");
        inv_diag[static_cast<std::size_t>(r)] = 1.0 / vals[k];
      }
    }
    CM5_CHECK_MSG(inv_diag[static_cast<std::size_t>(r)] > 0.0,
                  "matrix row has no diagonal entry");
  }

  CgResult result;
  result.x.assign(n, 0.0);
  std::vector<double> r(n, 0.0), z(n, 0.0), p(n, 0.0), ap(n, 0.0);
  for (const std::int32_t i : owned) {
    const auto ui = static_cast<std::size_t>(i);
    r[ui] = b[ui];
    z[ui] = inv_diag[ui] * r[ui];
    p[ui] = z[ui];
  }
  double rz = setup.owned_dot(r, z);
  double rr = setup.owned_dot(r, r);
  const double b_norm = std::sqrt(setup.owned_dot(b, b));
  const double threshold = tol * (b_norm > 0.0 ? b_norm : 1.0);

  for (std::int32_t iter = 0; iter < max_iterations; ++iter) {
    if (std::sqrt(rr) <= threshold) {
      result.converged = true;
      break;
    }
    setup.exchange_ghosts(p);
    A.multiply_rows(owned, p, ap);
    node.compute_flops(2.0 * static_cast<double>(setup.owned_nnz) +
                       12.0 * static_cast<double>(owned.size()));
    const double pap = setup.owned_dot(p, ap);
    CM5_CHECK_MSG(pap > 0.0, "matrix is not positive definite");
    const double alpha = rz / pap;
    for (const std::int32_t i : owned) {
      const auto ui = static_cast<std::size_t>(i);
      result.x[ui] += alpha * p[ui];
      r[ui] -= alpha * ap[ui];
      z[ui] = inv_diag[ui] * r[ui];
    }
    const double rz_new = setup.owned_dot(r, z);
    const double beta = rz_new / rz;
    for (const std::int32_t i : owned) {
      const auto ui = static_cast<std::size_t>(i);
      p[ui] = z[ui] + beta * p[ui];
    }
    rz = rz_new;
    rr = setup.owned_dot(r, r);
    ++result.iterations;
  }
  result.converged = result.converged || std::sqrt(rr) <= threshold;
  result.residual_norm = std::sqrt(rr);
  return result;
}

}  // namespace cm5::sparse
