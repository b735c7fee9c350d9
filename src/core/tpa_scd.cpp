#include "core/tpa_scd.hpp"

#include "core/cost_model.hpp"
#include "linalg/half.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::core {
namespace {

gpusim::EpochWorkload make_workload(const RidgeProblem& problem,
                                    Formulation f) {
  const auto timing = TimingWorkload::for_dataset(problem.dataset(), f);
  gpusim::EpochWorkload w;
  w.nnz = timing.nnz;
  w.num_coordinates = timing.num_coordinates;
  w.shared_dim = timing.shared_dim;
  return w;
}

// A shared-vector element as the block reads it: fp16 widens exactly.
float as_float(float x) { return x; }
float as_float(linalg::Half x) { return linalg::half_to_float(x); }

}  // namespace

TpaScdSolver::TpaScdSolver(const RidgeProblem& problem, Formulation f,
                           std::uint64_t seed, TpaScdOptions options)
    : problem_(&problem),
      formulation_(f),
      options_(options),
      name_("TPA-SCD (" + options.device.name + ")"),
      state_(ModelState::zeros(problem, f)),
      permutation_(problem.num_coordinates(f), util::Rng(seed)),
      engine_(static_cast<std::size_t>(
                  options.async_window_override > 0
                      ? options.async_window_override
                      : options.device.async_staleness()),
              CommitPolicy::kAtomicAdd),
      block_(options.device.threads_per_block),
      timing_(options.device),
      memory_(options.device),
      workload_(make_workload(problem, f)) {
  // "The dataset ... is transferred into the GPU memory once at the
  // beginning of operation and does not move" (paper Section V.A).
  const auto& dataset = problem.dataset();
  std::size_t data_bytes = dataset.memory_bytes();
  if (options_.charge_paper_scale_memory &&
      dataset.paper_scale().has_value()) {
    // 8 bytes per stored entry (4 B value + 4 B index), as in Section III.D.
    data_bytes = static_cast<std::size_t>(dataset.paper_scale()->nnz) * 8;
  }
  const std::size_t vector_bytes =
      (state_.weights.size() + state_.shared.size()) * sizeof(float);
  memory_.allocate(data_bytes + vector_bytes);
  setup_sim_seconds_ =
      memory_.upload_seconds(data_bytes + vector_bytes, options_.pcie,
                             /*pinned=*/true);
}

EpochReport TpaScdSolver::run_epoch() {
  const util::WallTimer timer;
  const auto order = [this] {
    obs::TraceSpan shuffle("tpa_scd/shuffle");
    return permutation_.next();
  }();
  const auto labels = problem_->dataset().labels();
  const auto n = static_cast<double>(problem_->effective_examples());
  const double lambda = problem_->lambda();

  obs::TraceSpan sweep("tpa_scd/sweep");
  // The thread-block body of Algorithm 2: strided partial inner product
  // in 32-bit floats, shared-memory tree reduction, then thread 0's
  // closed-form delta.  The same body runs against an fp16-stored replica:
  // gathers widen each element exactly, so only the storage rounding
  // differs (DESIGN.md §16).
  const auto block_delta = [&](sparse::Index j, auto shared) {
    const auto vec = problem_->coordinate_vector(formulation_, j);
    const double norm_sq = problem_->coordinate_squared_norm(formulation_, j);
    if (formulation_ == Formulation::kPrimal) {
      const double dot =
          block_.strided_reduce(vec.nnz(), [&](std::size_t k) {
            const auto i = vec.indices[k];
            return (labels[i] - as_float(shared[i])) * vec.values[k];
          });
      return (dot - n * lambda * state_.weights[j]) / (norm_sq + n * lambda);
    }
    const double dot = block_.strided_reduce(vec.nnz(), [&](std::size_t k) {
      return as_float(shared[vec.indices[k]]) * vec.values[k];
    });
    return (lambda * labels[j] - dot - lambda * n * state_.weights[j]) /
           (lambda * n + norm_sq);
  };
  const AsyncEngine::ComputeFn compute = block_delta;
  const AsyncEngine::ComputeHalfFn compute_half = block_delta;
  const AsyncEngine::VectorFn vec_of = [this](sparse::Index j) {
    return problem_->coordinate_vector(formulation_, j);
  };
  const AsyncEngine::WeightFn apply_weight = [this](sparse::Index j,
                                                    double delta) {
    state_.weights[j] = static_cast<float>(state_.weights[j] + delta);
  };
  if (options_.merge_every > 0) {
    // Batched write-back: resident blocks scatter into per-lane replicas and
    // the device folds them every merge_every updates per lane — the same
    // delta-merge primitive the CPU replicated solvers use.  With hundreds
    // of resident blocks the concurrent staleness is large even at
    // merge_every=1, so the damping factor matters here more than on the
    // CPU paths.
    const auto coords = problem_->num_coordinates(formulation_);
    engine_.run_epoch_replicated(
        order, compute, compute_half, vec_of, apply_weight, state_.shared,
        replicas_, options_.merge_every,
        replica_damping(coords, static_cast<int>(engine_.window()),
                        options_.merge_every));
  } else {
    engine_.run_epoch(order, compute, vec_of, apply_weight, state_.shared);
  }

  // The bandwidth model prices the shared-vector traffic at the storage
  // width the epoch actually ran with: the replicated pipeline honours the
  // process-wide precision mode; the atomic-commit path is always fp32
  // (float atomics have no 16-bit form).
  workload_.shared_value_bytes =
      options_.merge_every > 0
          ? static_cast<std::uint32_t>(
                linalg::shared_value_bytes(linalg::shared_precision()))
          : 4U;

  EpochReport report;
  report.coordinate_updates = order.size();
  report.sim_seconds = timing_.epoch_seconds(workload_);
  report.wall_seconds = timer.seconds();
  return report;
}

}  // namespace tpa::core
