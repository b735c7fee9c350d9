// The benchmark's workloads.  Each builds its inputs from the workload
// seed, times its set-up, trains to a target duality gap and/or serves
// open-loop traffic, checks the outputs, and adds its metrics to a Report:
// end-to-end metrics on an untraced run, per-layer metrics on a traced one.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "training.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  // the measured phase's length
  bool trace = false;
  std::string work_dir = ".";  // scratch files (shard store, model file)
};

void run_webspam_rep(const Options& options, Report& report);
void run_fleet_hetero(const Options& options, Report& report);
void run_criteo_stream(const Options& options, Report& report);
void run_serve_open(const Options& options, Report& report);

/// The open replicated-SCD defect: dual ridge at λ=1e-4 with 4 lanes on
/// 32768 x 65536 webspam-like rows, 30 epochs, target gap 1e-6.  Returns
/// the checker's verdict for `solver_kind` ("rep" or "rep-threads"); a
/// larger `lambda` is the healthy control.
Verdict probe_replicated_defect(const std::string& solver_kind,
                                std::uint64_t seed, double lambda);

}  // namespace perfbench
