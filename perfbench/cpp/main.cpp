// tpa_perfbench — one workload of the benchmark per invocation.
//
//   tpa_perfbench --workload webspam-rep --seed 3 --seconds 20 --trace 0
//   tpa_perfbench --probe-defect rep-threads --seed 42 [--lambda 1e-4]
//
// Prints a provenance line, the metrics (name, value, unit, clock) and, as
// the last line, one JSON object {correct, attempted, failed, metrics}.
// Exits 1 when a correctness check fails.  perfbench/run.py builds this
// binary and is the benchmark's entry point.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "linalg/half.hpp"
#include "linalg/kernels.hpp"
#include "obs/build_info.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void print_meta(const Options& options) {
  const auto build = tpa::obs::build_info();
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"hardware_concurrency\": %u, \"git_sha\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"kernel_backend\": "
      "\"%s\", \"native_kernels\": %s, \"shared_precision\": \"%s\"}\n",
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, std::thread::hardware_concurrency(),
      build.git_sha, build.compiler, build.build_type,
      tpa::linalg::kernel_backend_name(tpa::linalg::kernel_backend()),
      tpa::linalg::kernel_native_build() ? "true" : "false",
      tpa::linalg::shared_precision_name(tpa::linalg::shared_precision()));
}

int usage() {
  std::fprintf(stderr,
               "usage: tpa_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       tpa_perfbench --probe-defect rep|rep-threads "
               "[--seed N] [--lambda L]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string probe;
  double probe_lambda = 1e-4;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--probe-defect") {
      probe = value;
    } else if (flag == "--lambda") {
      probe_lambda = std::strtod(value.c_str(), nullptr);
    } else {
      return usage();
    }
  }
  tpa::obs::set_trace_enabled(false);
  // A fixed mmap threshold: every buffer of 128 KiB or more is mapped and
  // returned to the OS when freed, so freed buffers cannot fragment the
  // heap.  With glibc's default, which adapts to the sizes freed so far,
  // identical real-thread replicated runs on webspam-like 65536 x 131072
  // peaked at 185 or 232 MB; with 1 MiB,
  // fleet-hetero's peak moved between 76 and 88 MB with the length of a
  // path string.
  mallopt(M_MMAP_THRESHOLD, 1 << 17);
  try {
    if (!probe.empty()) {
      const auto verdict =
          probe_replicated_defect(probe, options.seed, probe_lambda);
      std::printf("{\"probe\": \"%s\", \"failed\": %s, \"why\": \"%s\"}\n",
                  probe.c_str(), verdict.ok ? "false" : "true",
                  verdict.why.c_str());
      return 0;
    }
    if (options.seconds <= 0.0) return usage();
    std::filesystem::create_directories(options.work_dir);
    Report report;
    if (options.workload == "webspam-rep") {
      print_meta(options);
      run_webspam_rep(options, report);
    } else if (options.workload == "fleet-hetero") {
      print_meta(options);
      run_fleet_hetero(options, report);
    } else if (options.workload == "criteo-stream") {
      print_meta(options);
      run_criteo_stream(options, report);
    } else if (options.workload == "serve-open") {
      print_meta(options);
      run_serve_open(options, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return usage();
    }
    report.print();
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
