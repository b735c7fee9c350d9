#include "core/ridge_problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/cost_model.hpp"
#include "linalg/vector_ops.hpp"
#include "util/thread_pool.hpp"

namespace tpa::core {
namespace {

// Fixed reduction grain for the pool-parallel objectives.  Partial sums are
// computed per grain-sized chunk and combined in chunk order, so the result
// is a pure function of the data and this constant — independent of how many
// workers the pool has (DESIGN.md §9).
constexpr std::size_t kGapGrain = 1u << 13;

// Sums fn(begin, end) over grain-sized chunks of [0, count), scheduling the
// chunks across `pool` and combining the partials in ascending chunk order.
template <typename ChunkFn>
double chunked_sum(util::ThreadPool& pool, std::size_t count,
                   const ChunkFn& fn) {
  const std::size_t chunks = (count + kGapGrain - 1) / kGapGrain;
  std::vector<double> partial(chunks, 0.0);
  pool.parallel_for_chunks(chunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t begin = c * kGapGrain;
      const std::size_t end = std::min(count, begin + kGapGrain);
      partial[c] = fn(begin, end);
    }
  });
  double total = 0.0;
  for (const double p : partial) total += p;
  return total;
}

// A pool with a single worker would add scheduling cost without splitting
// any work, and so would any pool the dispatch model predicts to lose on
// `work_entries` entries (too little work, or fewer hardware cores than
// workers); both degrade to the serial path.
util::ThreadPool* effective_pool(util::ThreadPool* pool,
                                 std::uint64_t work_entries) {
  if (pool == nullptr || pool->size() <= 1) return nullptr;
  return pool_dispatch().use_pool(work_entries,
                                  static_cast<int>(pool->size()))
             ? pool
             : nullptr;
}

// The closed-form steps against a shared vector stored as T (float or
// linalg::Half): the half kernels widen each gathered element exactly, so
// the formulas are the same for both.
template <typename T>
double closed_form_delta(const RidgeProblem& problem, Formulation f, Index j,
                         std::span<const T> shared, double weight_j) {
  const auto n = static_cast<double>(problem.effective_examples());
  const double lambda = problem.lambda();
  const auto vec = problem.coordinate_vector(f, j);
  const double norm_sq = problem.coordinate_squared_norm(f, j);
  const auto labels = problem.dataset().labels();
  if (f == Formulation::kPrimal) {
    // Eq. (2): Δβ = (⟨y − w, a_m⟩ − Nλβ_m) / (||a_m||² + Nλ).
    const double residual_dot =
        linalg::sparse_residual_dot(vec, labels, shared);
    return (residual_dot - n * lambda * weight_j) / (norm_sq + n * lambda);
  }
  // Eq. (4): Δα = (λyₙ − ⟨w̄, āₙ⟩ − λNαₙ) / (λN + ||āₙ||²).
  const double wbar_dot = linalg::sparse_dot(vec, shared);
  const double y_n = labels[j];
  return (lambda * y_n - wbar_dot - lambda * n * weight_j) /
         (lambda * n + norm_sq);
}

}  // namespace

RidgeProblem::RidgeProblem(const data::Dataset& dataset, double lambda,
                           Index global_examples)
    : dataset_(&dataset),
      lambda_(lambda),
      global_examples_(global_examples) {
  if (lambda <= 0.0) {
    throw std::invalid_argument("RidgeProblem: lambda must be positive");
  }
  if (dataset.num_examples() == 0 || dataset.num_features() == 0) {
    throw std::invalid_argument("RidgeProblem: dataset must be non-empty");
  }
}

Index RidgeProblem::num_coordinates(Formulation f) const noexcept {
  return f == Formulation::kPrimal ? num_features() : num_examples();
}

Index RidgeProblem::shared_dim(Formulation f) const noexcept {
  return f == Formulation::kPrimal ? num_examples() : num_features();
}

SparseVectorView RidgeProblem::coordinate_vector(Formulation f,
                                                 Index j) const {
  return f == Formulation::kPrimal ? dataset_->bucketed_cols().padded(j)
                                   : dataset_->bucketed_rows().padded(j);
}

SparseVectorView RidgeProblem::coordinate_vector_unpadded(Formulation f,
                                                          Index j) const {
  return f == Formulation::kPrimal ? dataset_->bucketed_cols().unpadded(j)
                                   : dataset_->bucketed_rows().unpadded(j);
}

double RidgeProblem::coordinate_squared_norm(Formulation f, Index j) const {
  return f == Formulation::kPrimal ? dataset_->col_squared_norms()[j]
                                   : dataset_->row_squared_norms()[j];
}

double RidgeProblem::coordinate_delta(Formulation f, Index j,
                                      std::span<const float> shared,
                                      double weight_j) const {
  return closed_form_delta(*this, f, j, shared, weight_j);
}

double RidgeProblem::coordinate_delta(Formulation f, Index j,
                                      std::span<const linalg::Half> shared,
                                      double weight_j) const {
  return closed_form_delta(*this, f, j, shared, weight_j);
}

double RidgeProblem::primal_objective(std::span<const float> beta,
                                      std::span<const float> w,
                                      util::ThreadPool* pool) const {
  const auto n = static_cast<double>(effective_examples());
  const auto labels = dataset_->labels();
  if (util::ThreadPool* p = effective_pool(pool, w.size() + beta.size())) {
    const double residual_sq =
        chunked_sum(*p, w.size(), [&](std::size_t b, std::size_t e) {
          double acc = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            const double r = static_cast<double>(w[i]) - labels[i];
            acc += r * r;
          }
          return acc;
        });
    const double beta_sq =
        chunked_sum(*p, beta.size(), [&](std::size_t b, std::size_t e) {
          return linalg::dot(beta.subspan(b, e - b), beta.subspan(b, e - b));
        });
    return residual_sq / (2.0 * n) + 0.5 * lambda_ * beta_sq;
  }
  double residual_sq = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double r = static_cast<double>(w[i]) - labels[i];
    residual_sq += r * r;
  }
  return residual_sq / (2.0 * n) +
         0.5 * lambda_ * linalg::squared_norm(beta);
}

double RidgeProblem::dual_objective(std::span<const float> alpha,
                                    std::span<const float> wbar,
                                    util::ThreadPool* pool) const {
  const auto n = static_cast<double>(effective_examples());
  const auto labels = dataset_->labels();
  if (util::ThreadPool* p =
          effective_pool(pool, 2 * alpha.size() + wbar.size())) {
    const double alpha_sq =
        chunked_sum(*p, alpha.size(), [&](std::size_t b, std::size_t e) {
          return linalg::dot(alpha.subspan(b, e - b), alpha.subspan(b, e - b));
        });
    const double wbar_sq =
        chunked_sum(*p, wbar.size(), [&](std::size_t b, std::size_t e) {
          return linalg::dot(wbar.subspan(b, e - b), wbar.subspan(b, e - b));
        });
    const double alpha_y =
        chunked_sum(*p, alpha.size(), [&](std::size_t b, std::size_t e) {
          double acc = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            acc += static_cast<double>(alpha[i]) * labels[i];
          }
          return acc;
        });
    return -0.5 * n * alpha_sq - wbar_sq / (2.0 * lambda_) + alpha_y;
  }
  const double alpha_sq = linalg::squared_norm(alpha);
  const double wbar_sq = linalg::squared_norm(wbar);
  double alpha_y = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    alpha_y += static_cast<double>(alpha[i]) * labels[i];
  }
  return -0.5 * n * alpha_sq - wbar_sq / (2.0 * lambda_) + alpha_y;
}

double RidgeProblem::primal_duality_gap(std::span<const float> beta,
                                        std::span<const float> w,
                                        util::ThreadPool* pool) const {
  // Candidate dual point from eq. (6): α = (y − w)/N, then w̄ = Aᵀα.
  // Work is dominated by the matvec — one visit per stored nonzero.
  util::ThreadPool* p = effective_pool(pool, dataset_->nnz());
  const auto alpha = dual_from_primal_shared(w);
  std::vector<float> wbar(static_cast<std::size_t>(num_features()));
  if (p != nullptr) {
    // Aᵀα as per-column dots over the CSC orientation: race-free rows of
    // independent work, unlike the serial CSR scatter.
    linalg::csc_matvec_transposed(dataset_->by_col(), alpha, wbar, p);
  } else {
    linalg::csr_matvec_transposed(dataset_->by_row(), alpha, wbar);
  }
  return std::abs(primal_objective(beta, w, p) -
                  dual_objective(alpha, wbar, p));
}

double RidgeProblem::dual_duality_gap(std::span<const float> alpha,
                                      std::span<const float> wbar,
                                      util::ThreadPool* pool) const {
  // Candidate primal point from eq. (5): β = w̄/λ, then w = Aβ.
  util::ThreadPool* p = effective_pool(pool, dataset_->nnz());
  const auto beta = primal_from_dual_shared(wbar);
  std::vector<float> w(static_cast<std::size_t>(num_examples()));
  // Per-row dots: serial and pooled schedules produce identical values.
  linalg::csr_matvec(dataset_->by_row(), beta, w, p);
  return std::abs(primal_objective(beta, w, p) -
                  dual_objective(alpha, wbar, p));
}

double RidgeProblem::duality_gap(Formulation f,
                                 std::span<const float> weights,
                                 std::span<const float> shared,
                                 util::ThreadPool* pool) const {
  return f == Formulation::kPrimal ? primal_duality_gap(weights, shared, pool)
                                   : dual_duality_gap(weights, shared, pool);
}

std::vector<float> RidgeProblem::primal_from_dual_shared(
    std::span<const float> wbar) const {
  std::vector<float> beta(wbar.size());
  const double inv_lambda = 1.0 / lambda_;
  for (std::size_t i = 0; i < wbar.size(); ++i) {
    beta[i] = static_cast<float>(wbar[i] * inv_lambda);
  }
  return beta;
}

std::vector<float> RidgeProblem::dual_from_primal_shared(
    std::span<const float> w) const {
  const auto labels = dataset_->labels();
  std::vector<float> alpha(w.size());
  const double inv_n = 1.0 / static_cast<double>(effective_examples());
  for (std::size_t i = 0; i < w.size(); ++i) {
    alpha[i] = static_cast<float>((labels[i] - w[i]) * inv_n);
  }
  return alpha;
}

double RidgeProblem::primal_partial(Index m, std::span<const float> beta,
                                    std::span<const float> w) const {
  // ∂P/∂βₘ = (1/N)·⟨Aβ − y, a_m⟩ + λβₘ = −(1/N)·⟨y − w, a_m⟩ + λβₘ.
  const auto n = static_cast<double>(effective_examples());
  const double residual_dot = linalg::sparse_residual_dot(
      coordinate_vector(Formulation::kPrimal, m), dataset_->labels(), w);
  return -residual_dot / n + lambda_ * static_cast<double>(beta[m]);
}

double RidgeProblem::dual_partial(Index n, std::span<const float> alpha,
                                  std::span<const float> wbar) const {
  // ∂D/∂αₙ = −Nαₙ − (1/λ)·⟨Aᵀα, āₙ⟩ + yₙ.
  const auto examples = static_cast<double>(effective_examples());
  const double wbar_dot = linalg::sparse_dot(
      coordinate_vector(Formulation::kDual, n), wbar);
  return -examples * static_cast<double>(alpha[n]) - wbar_dot / lambda_ +
         static_cast<double>(dataset_->labels()[n]);
}

}  // namespace tpa::core
