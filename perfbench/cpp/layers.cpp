#include "layers.hpp"

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using tpa::core::Formulation;

constexpr int kPasses = 7;

}  // namespace

KernelCosts probe_kernels(const tpa::core::RidgeProblem& problem) {
  const auto f = Formulation::kDual;
  const auto coords = problem.num_coordinates(f);
  std::vector<float> dense(problem.shared_dim(f), 0.5F);
  double nnz = 0.0;
  for (tpa::data::Index j = 0; j < coords; ++j) {
    nnz += static_cast<double>(problem.coordinate_vector_unpadded(f, j).nnz());
  }
  KernelCosts costs;
  std::vector<double> dot_s;
  std::vector<double> axpy_s;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      const tpa::obs::TraceSpan span("bench/linalg.sparse_dot");
      const double t0 = now_s();
      for (tpa::data::Index j = 0; j < coords; ++j) {
        (void)tpa::linalg::sparse_dot(problem.coordinate_vector(f, j),
                                      dense);
      }
      dot_s.push_back(now_s() - t0);
    }
    {
      const tpa::obs::TraceSpan span("bench/linalg.sparse_axpy");
      const double t0 = now_s();
      for (tpa::data::Index j = 0; j < coords; ++j) {
        tpa::linalg::sparse_axpy(1e-9, problem.coordinate_vector(f, j), dense);
      }
      axpy_s.push_back(now_s() - t0);
    }
  }
  costs.sparse_dot_ns_per_nnz = 1e9 * median(dot_s) / nnz;
  costs.sparse_axpy_ns_per_nnz = 1e9 * median(axpy_s) / nnz;

  // add_diff is the replica-merge kernel: w += replica − base over the
  // whole shared vector.  Repeat until ~64M entries so a pass is not lost
  // in timer noise.
  std::vector<float> w(dense.size(), 0.0F);
  std::vector<float> replica(dense.size(), 1e-7F);
  const std::vector<float> base(dense.size(), 0.0F);
  const int reps = std::max<int>(
      1, static_cast<int>((std::size_t{64} << 20) / std::max<std::size_t>(
                                                        dense.size(), 1)));
  std::vector<double> diff_s;
  for (int pass = 0; pass < kPasses; ++pass) {
    const tpa::obs::TraceSpan span("bench/linalg.add_diff");
    const double t0 = now_s();
    for (int r = 0; r < reps; ++r) tpa::linalg::add_diff(w, replica, base);
    diff_s.push_back(now_s() - t0);
  }
  costs.add_diff_ns_per_entry =
      1e9 * median(diff_s) /
      (static_cast<double>(reps) * static_cast<double>(dense.size()));
  return costs;
}

double probe_pool_dispatch_us(int threads) {
  tpa::util::ThreadPool pool(static_cast<std::size_t>(std::max(1, threads)));
  const auto n = static_cast<std::size_t>(std::max(1, threads));
  const auto empty = [](std::size_t) {};
  for (int i = 0; i < 200; ++i) pool.parallel_for(n, empty);  // warm
  std::vector<double> round_trip_us;
  round_trip_us.reserve(2000);
  const tpa::obs::TraceSpan span("bench/pool_dispatch");
  for (int i = 0; i < 2000; ++i) {
    const double t0 = now_s();
    pool.parallel_for(n, empty);
    round_trip_us.push_back(1e6 * (now_s() - t0));
  }
  return median(round_trip_us);
}

}  // namespace perfbench
