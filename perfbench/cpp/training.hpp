// The time-to-gap loop and its checker, shared by every training workload.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/solver.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// One run from a fresh solver to the target duality gap (or the cap).
struct TrainRun {
  bool finite = true;
  bool reached = false;
  int epochs = 0;
  /// Epoch at which log(gap) crossed the target, interpolated linearly
  /// between the last two evaluations (statistical efficiency).
  double epochs_to_gap = 0.0;
  double wall_s = 0.0;  // epochs + the gap evaluations that decide the stop
  std::vector<double> epoch_s;
  std::vector<double> gap_s;
  std::uint64_t updates = 0;
  double sim_s = 0.0;  // sum of the solver-reported simulated epoch times
  std::vector<double> sim_epoch_s;
  double cpu_s = 0.0;  // process CPU time over the run
  double final_gap = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t seed = 0;  // the solver seed, when a workload varies it

  double epoch_total_s() const;
  /// Simulated time at which the gap crossed the target: the epochs before
  /// the crossing one, plus the interpolated share of that epoch.
  double sim_to_gap_s() const;
};

struct TrainSpec {
  double target_gap = 1e-6;
  int max_epochs = 100;
  double initial_gap = 1.0;  // gap of the all-zero start, for interpolation
  /// Drained after every epoch when set (traced runs of workloads whose
  /// threads are quiescent between epochs).
  TraceLedger* drain_each_epoch = nullptr;
};

/// Runs epoch() then gap() until the gap reaches the target, turns
/// non-finite, or the cap is hit.  Each call is wrapped in a bench span.
template <class EpochFn, class GapFn>
TrainRun train_to_gap(const TrainSpec& spec, EpochFn&& epoch, GapFn&& gap) {
  TrainRun run;
  double previous = spec.initial_gap;
  const double cpu0 = cpu_seconds();
  for (int e = 1; e <= spec.max_epochs; ++e) {
    const double t0 = now_s();
    tpa::core::EpochReport report;
    {
      const tpa::obs::TraceSpan span("bench/epoch");
      report = epoch();
    }
    const double t1 = now_s();
    double g = 0.0;
    {
      const tpa::obs::TraceSpan span("bench/gap_eval");
      g = gap();
    }
    const double t2 = now_s();
    run.epoch_s.push_back(t1 - t0);
    run.gap_s.push_back(t2 - t1);
    run.wall_s += t2 - t0;
    run.updates += report.coordinate_updates;
    run.sim_s += report.sim_seconds;
    run.sim_epoch_s.push_back(report.sim_seconds);
    run.epochs = e;
    run.final_gap = g;
    if (spec.drain_each_epoch != nullptr) spec.drain_each_epoch->drain();
    if (!std::isfinite(g)) {
      run.finite = false;
      break;
    }
    if (g <= spec.target_gap) {
      run.reached = true;
      run.epochs_to_gap = static_cast<double>(e);
      if (previous > spec.target_gap && previous > g) {
        run.epochs_to_gap = static_cast<double>(e - 1) +
                            std::log(previous / spec.target_gap) /
                                std::log(previous / g);
      }
      break;
    }
    previous = g;
  }
  run.cpu_s = cpu_seconds() - cpu0;
  return run;
}

/// Relative slack allowed between the solver's stopping gap and the
/// recomputed one: reassociated double reductions, nothing more.
inline constexpr double kGapRecheckSlack = 1e-3;

struct Verdict {
  bool ok = false;
  std::string why;
};

/// Scores a run: it fails when its gap went non-finite, when it hit the
/// epoch cap above target, or when the final gap recomputed by the
/// benchmark (RidgeProblem::duality_gap on the assembled model) is
/// non-finite or above target.
Verdict check_training(const TrainRun& run, double recomputed_gap,
                       double target_gap);

}  // namespace perfbench
