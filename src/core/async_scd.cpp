#include "core/async_scd.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tpa::core {

AsyncScdSolver::AsyncScdSolver(const RidgeProblem& problem, Formulation f,
                               int threads, CommitPolicy policy,
                               std::uint64_t seed, CpuCostModel cost_model)
    : problem_(&problem),
      formulation_(f),
      threads_(threads),
      policy_(policy),
      state_(ModelState::zeros(problem, f)),
      permutation_(problem.num_coordinates(f), util::Rng(seed)),
      engine_(static_cast<std::size_t>(threads), policy),
      cost_model_(cost_model),
      workload_(TimingWorkload::for_dataset(problem.dataset(), f)) {
  if (threads <= 0) {
    throw std::invalid_argument("AsyncScdSolver: threads must be positive");
  }
  const char* base = policy == CommitPolicy::kAtomicAdd ? "A-SCD"
                     : policy == CommitPolicy::kLastWriterWins
                         ? "PASSCoDe-Wild"
                         : "Replicated-SCD";
  name_ = std::string(base) + " (" + std::to_string(threads) + " threads)";
}

EpochReport AsyncScdSolver::run_epoch() {
  const util::WallTimer timer;
  const auto order = [this] {
    obs::TraceSpan shuffle("async_scd/shuffle");
    return permutation_.next();
  }();
  const auto stats = [&] {
    obs::TraceSpan sweep("async_scd/sweep");
    // One coordinate formula for both storage widths (DESIGN.md §16).
    const auto delta = [this](sparse::Index j, auto shared) {
      return problem_->coordinate_delta(formulation_, j, shared,
                                        state_.weights[j]);
    };
    const AsyncEngine::ComputeFn compute = delta;
    const AsyncEngine::ComputeHalfFn compute_half = delta;
    const auto vec_of = [this](sparse::Index j) {
      return problem_->coordinate_vector(formulation_, j);
    };
    const auto apply_weight = [this](sparse::Index j, double delta) {
      state_.weights[j] = static_cast<float>(state_.weights[j] + delta);
    };
    if (policy_ == CommitPolicy::kReplicated) {
      const auto coords = problem_->num_coordinates(formulation_);
      const int interval =
          merge_every_ > 0
              ? merge_every_
              : replica_auto_interval(problem_->dataset().nnz(), coords,
                                      state_.shared.size(), threads_);
      return engine_.run_epoch_replicated(
          order, compute, compute_half, vec_of, apply_weight, state_.shared,
          replicas_, interval, replica_damping(coords, threads_, interval));
    }
    return engine_.run_epoch(order, compute, vec_of, apply_weight,
                             state_.shared);
  }();
  lost_updates_ += stats.lost_entries;
  ++epochs_run_;

  EpochReport report;
  report.coordinate_updates = order.size();
  const double speedup = policy_ == CommitPolicy::kAtomicAdd
                             ? cost_model_.atomic_speedup(threads_)
                         : policy_ == CommitPolicy::kLastWriterWins
                             ? cost_model_.wild_speedup(threads_)
                             : cost_model_.replicated_speedup(threads_);
  report.sim_seconds =
      cost_model_.epoch_seconds_sequential(workload_) / speedup;

  if (recompute_interval_ > 0 && epochs_run_ % recompute_interval_ == 0) {
    // Drift remedy [13]: one exact matrix pass restores w == A·weights;
    // charged at the sequential per-entry rate (it is a plain SpMV).
    obs::TraceSpan recompute("async_scd/recompute");
    state_.recompute_shared(*problem_);
    report.sim_seconds += cost_model_.epoch_seconds_sequential(workload_) /
                          cost_model_.wild_speedup(threads_);
  }
  report.wall_seconds = timer.seconds();
  return report;
}

}  // namespace tpa::core
