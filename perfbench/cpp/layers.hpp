// Layer probes run from outside the program: the linalg kernels replayed
// over a workload's own coordinate vectors, and an empty parallel_for round
// trip on util::ThreadPool.
#pragma once

#include "core/ridge_problem.hpp"

namespace perfbench {

struct KernelCosts {
  double sparse_dot_ns_per_nnz = 0.0;
  double sparse_axpy_ns_per_nnz = 0.0;
  double add_diff_ns_per_entry = 0.0;
};

/// Replays linalg::sparse_dot / sparse_axpy over every dual coordinate
/// vector (row) of `problem` against a shared-dimension vector, and
/// linalg::add_diff over one shared vector; medians of repeated passes.
KernelCosts probe_kernels(const tpa::core::RidgeProblem& problem);

/// Median wall time of an empty-body ThreadPool::parallel_for over
/// `threads` indices on a pool of `threads` workers, in microseconds.
double probe_pool_dispatch_us(int threads);

}  // namespace perfbench
