#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "cluster/dist_solver.hpp"
#include "cluster/placement/annealer.hpp"
#include "cluster/placement/fleet.hpp"
#include "core/cost_model.hpp"
#include "core/model_io.hpp"
#include "core/solver_factory.hpp"
#include "data/generators.hpp"
#include "layers.hpp"
#include "serve_load.hpp"
#include "store/format.hpp"
#include "store/shard_reader.hpp"
#include "store/streaming_dataset.hpp"
#include "store/streaming_solver.hpp"

namespace perfbench {

namespace {

using tpa::core::Formulation;
using tpa::core::RidgeProblem;
using tpa::core::SolverKind;
using tpa::data::Dataset;

constexpr int kSetupReps = 5;
// Every workload trains on one fixed dataset, as the paper's figures do on
// webspam and criteo: the generator seed is the trainer's default.  The
// benchmark seed drives the solvers' coordinate orders and the serving
// traffic.  (Drawing the dataset from the benchmark seed too moved
// fleet-hetero's rounds-to-gap between 23 and 45 — partition luck — which
// would leave every time-to-gap comparison unresolved.)
constexpr std::uint64_t kDataSeed = 42;
constexpr int kMinTrainingRuns = 3;
constexpr double kLambda = 1e-3;

int worker_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

std::unique_ptr<Dataset> webspam(tpa::data::Index examples,
                                 tpa::data::Index features) {
  tpa::data::WebspamLikeConfig config;
  config.num_examples = examples;
  config.num_features = features;
  config.seed = kDataSeed;
  return std::make_unique<Dataset>(tpa::data::make_webspam_like(config));
}

double zero_state_gap(const RidgeProblem& problem) {
  const auto zeros = tpa::core::ModelState::zeros(problem, Formulation::kDual);
  return problem.duality_gap(Formulation::kDual, zeros.weights, zeros.shared);
}

tpa::core::SavedModel dual_model(double lambda, std::span<const float> alpha,
                                 std::span<const float> shared) {
  tpa::core::SavedModel model;
  model.formulation = Formulation::kDual;
  model.lambda = lambda;
  model.weights.assign(alpha.begin(), alpha.end());
  model.shared.assign(shared.begin(), shared.end());
  return model;
}

/// Wall time of each set-up phase over the set-up repetitions.
struct SetupTimes {
  std::vector<double> total, data, problem, solver, store_write;

  void record(double data_s, double problem_s, double solver_s,
              double store_write_s = 0.0) {
    data.push_back(data_s);
    problem.push_back(problem_s);
    solver.push_back(solver_s);
    store_write.push_back(store_write_s);
    total.push_back(data_s + problem_s + solver_s + store_write_s);
  }

  void report_to(Report& report, bool traced) const {
    if (!traced) {
      report.add("setup_s", median(total), "s", Clock::kWall);
      return;
    }
    report.add("setup.data_s", median(data), "s", Clock::kWall);
    report.add("setup.problem_s", median(problem), "s", Clock::kWall);
    report.add("setup.solver_s", median(solver), "s", Clock::kWall);
  }
};

/// What the workloads keep of each successful time-to-gap run.
struct RunSet {
  std::vector<TrainRun> runs;
  std::vector<double> merge_s;    // replica/merge span total (traced runs)
  std::vector<double> merges;     // solver.merges counter delta

  bool empty() const noexcept { return runs.empty(); }
  template <class F>
  std::vector<double> each(F&& f) const {
    std::vector<double> out;
    for (const auto& r : runs) out.push_back(f(r));
    return out;
  }
  double median_wall() const {
    return median(each([](const TrainRun& r) { return r.wall_s; }));
  }
  std::vector<double> pooled_epochs() const {
    std::vector<double> out;
    for (const auto& r : runs) {
      out.insert(out.end(), r.epoch_s.begin(), r.epoch_s.end());
    }
    return out;
  }
  std::vector<double> pooled_gap_evals() const {
    std::vector<double> out;
    for (const auto& r : runs) out.insert(out.end(), r.gap_s.begin(), r.gap_s.end());
    return out;
  }
};

/// Scores one run, counts it as attempted, and keeps it when it passed.
bool accept_run(Report& report, const std::string& arm, const TrainRun& run,
                double recomputed_gap, double target) {
  const auto verdict = check_training(run, recomputed_gap, target);
  report.attempt(verdict.ok);
  if (!verdict.ok) {
    report.note(arm + " run failed (not timed): " + verdict.why);
  }
  return verdict.ok;
}

/// Bit-exactness of seeded, deterministic runs: every run must repeat the
/// epoch count, simulated time and final-weight hash of the first run with
/// the same solver seed.
class Replay {
 public:
  void check(Report& report, const std::string& arm, const TrainRun& run,
             std::uint64_t hash) {
    const auto [it, first] = seen_.try_emplace(
        run.seed, Fingerprint{run.epochs, run.sim_s, hash});
    const Fingerprint& f = it->second;
    if (first) {
      report.note(arm + " replay fingerprint: " + std::to_string(f.epochs) +
                  " epochs, weights hash " + std::to_string(f.hash));
      return;
    }
    if (run.epochs != f.epochs || run.sim_s != f.sim_s || hash != f.hash) {
      report.check_failed(arm + " is seeded but did not replay: epochs " +
                          std::to_string(run.epochs) + " vs " +
                          std::to_string(f.epochs) + ", weights hash " +
                          std::to_string(hash) + " vs " +
                          std::to_string(f.hash));
    }
  }

 private:
  struct Fingerprint {
    int epochs;
    double sim_s;
    std::uint64_t hash;
  };
  std::map<std::uint64_t, Fingerprint> seen_;
};

/// The solver seed of run i on a workload whose runs are deterministic:
/// there a seed fixes the run's statistical efficiency, so the runs cycle
/// through `seeds` seeds derived from the workload seed (each seen twice
/// makes the replay check; a traced run pairs each seed's untraced and
/// traced run).
std::uint64_t cycled_seed(const Options& options, int i, int seeds) {
  const int slot = (options.trace ? i / 2 : i) % seeds;
  return options.seed * static_cast<std::uint64_t>(seeds) +
         static_cast<std::uint64_t>(slot);
}

/// End-to-end training metrics from the untraced runs of the main arm.
/// A solver seed fixes a deterministic run's statistical efficiency, so the
/// runs are reduced per seed first and the seeds then averaged (a single
/// seed is the common case).  Wall time takes the better quartile of a
/// seed's runs, not their median: contention from other tenants of the
/// host only ever adds time.  On a shared 4-vCPU host the median of the
/// 4-thread runs spread 0.46 across ten invocations in a busy hour; the
/// quartile spread 0.11 in the next.
void report_training(Report& report, const RunSet& set) {
  std::map<std::uint64_t, std::vector<const TrainRun*>> by_seed;
  for (const auto& r : set.runs) by_seed[r.seed].push_back(&r);
  double time_to_gap = 0.0;
  double epochs_to_gap = 0.0;
  for (const auto& [seed, runs] : by_seed) {
    std::vector<double> wall, epochs;
    for (const auto* r : runs) {
      wall.push_back(r->wall_s);
      epochs.push_back(r->epochs_to_gap);
    }
    time_to_gap += quantile(wall, 0.25) / static_cast<double>(by_seed.size());
    epochs_to_gap += median(epochs) / static_cast<double>(by_seed.size());
  }
  report.add("time_to_gap_s", time_to_gap, "s", Clock::kWall);
  report.add("epochs_to_gap", epochs_to_gap, "count", Clock::kCount);
  report.add("updates_per_s", quantile(set.each([](const TrainRun& r) {
               return static_cast<double>(r.updates) / r.epoch_total_s();
             }), 0.75),
             "1/s", Clock::kWall);
}

/// Simulated seconds to the target gap, for the solvers that report
/// simulated time (a per-layer metric: the streaming solver has no clock).
void report_sim_time(Report& report, const RunSet& set) {
  report.add("sim.time_to_gap_s",
             median(set.each([](const TrainRun& r) { return r.sim_to_gap_s(); })),
             "sim_s", Clock::kSim);
}

/// The core.* / obs.* per-layer metrics every training workload shares.
/// `plain` are untraced runs, `traced` traced ones.
void report_core_layers(Report& report, const RunSet& plain,
                        const RunSet& traced) {
  report.add("core.epoch_s", median(plain.pooled_epochs()), "s", Clock::kWall);
  report.add("core.gap_eval_s", median(plain.pooled_gap_evals()), "s",
             Clock::kWall);
  report.add("core.gap_evals",
             median(plain.each([](const TrainRun& r) {
               return static_cast<double>(r.epochs);
             })),
             "count", Clock::kCount);
  report.add("core.replica_merge_s", median(traced.merge_s), "s",
             Clock::kWall);
  report.add("core.replica_merges", median(plain.merges), "count",
             Clock::kCount);
  report.add("obs.trace_overhead_frac",
             traced.median_wall() / plain.median_wall() - 1.0, "frac",
             Clock::kWall);
}

/// threads.cpu_per_wall: process CPU time over wall time of `set`'s runs.
void report_cpu_per_wall(Report& report, const RunSet& set) {
  report.add("threads.cpu_per_wall",
             median(set.each([](const TrainRun& r) {
               return r.cpu_s / r.wall_s;
             })),
             "frac", Clock::kWall);
}

/// The layer probes of a traced run, traced themselves (their bench spans
/// land in the ledger); the figures come from their own timers.
void report_probes(Report& report, const RidgeProblem& problem,
                   int pool_threads, TraceLedger& ledger) {
  tpa::obs::set_trace_enabled(true);
  const double dispatch_us = probe_pool_dispatch_us(pool_threads);
  const auto kernels = probe_kernels(problem);
  tpa::obs::set_trace_enabled(false);
  ledger.drain();
  report.add("util.pool_dispatch_us", dispatch_us, "us", Clock::kWall);
  report.add("linalg.sparse_dot_ns_per_nnz", kernels.sparse_dot_ns_per_nnz,
             "ns", Clock::kWall);
  report.add("linalg.sparse_axpy_ns_per_nnz", kernels.sparse_axpy_ns_per_nnz,
             "ns", Clock::kWall);
  report.add("linalg.add_diff_ns_per_entry", kernels.add_diff_ns_per_entry,
             "ns", Clock::kWall);
}

/// The run's last metric: untraced, the peak RSS of the whole workload;
/// traced, the trace's dropped-event count.  A traced run that dropped
/// events is refused, since its per-layer sums would be short.
void finish(Report& report, const Options& options,
            const TraceLedger& ledger) {
  if (!options.trace) {
    report.add("peak_rss_mb", peak_rss_mb(), "MB", Clock::kWall);
    return;
  }
  report.add("obs.dropped_events", static_cast<double>(ledger.dropped()),
             "count", Clock::kCount);
  if (ledger.dropped() > 0) {
    report.check_failed("the trace dropped " +
                        std::to_string(ledger.dropped()) +
                        " events; per-layer sums would be short");
  }
}

/// Calls `one_run(i)` for i = 0, 1, ... until `budget_fraction` of the
/// run's seconds is spent, at least `min_runs` times.
template <class OneRun>
void repeat_for(const Options& options, double budget_fraction, int min_runs,
                OneRun&& one_run) {
  const double end = now_s() + budget_fraction * options.seconds;
  for (int i = 0; i < min_runs || now_s() < end; ++i) one_run(i);
}

}  // namespace

double TrainRun::epoch_total_s() const {
  double total = 0.0;
  for (const double s : epoch_s) total += s;
  return total;
}

double TrainRun::sim_to_gap_s() const {
  double total = 0.0;
  for (int e = 0; e < epochs; ++e) {
    const double share = std::clamp(epochs_to_gap - e, 0.0, 1.0);
    total += share * sim_epoch_s[static_cast<std::size_t>(e)];
  }
  return total;
}

Verdict check_training(const TrainRun& run, double recomputed_gap,
                       double target_gap) {
  if (!run.finite || !std::isfinite(recomputed_gap)) {
    return {false, "the duality gap is not finite after " +
                       std::to_string(run.epochs) + " epochs"};
  }
  if (!run.reached) {
    return {false, "gap " + std::to_string(run.final_gap) +
                       " above target at the epoch cap (" +
                       std::to_string(run.epochs) + ")"};
  }
  if (recomputed_gap > target_gap * (1.0 + kGapRecheckSlack)) {
    return {false, "recomputed gap " + std::to_string(recomputed_gap) +
                       " above target " + std::to_string(target_gap)};
  }
  return {true, ""};
}

// webspam-rep: replicated SCD with 4 lanes on the deterministic round
// model (one thread) is the gated arm; traced runs add the same solver on
// real threads (rep-threads) and a plain sequential arm as its baseline.
void run_webspam_rep(const Options& options, Report& report) {
  constexpr double kTarget = 1e-6;
  const int threads = worker_threads();
  const auto config = [&](SolverKind kind) {
    tpa::core::SolverConfig c;
    c.kind = kind;
    c.formulation = Formulation::kDual;
    c.threads = threads;
    c.seed = options.seed;
    return c;
  };

  SetupTimes setup;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<RidgeProblem> problem;
  for (int i = 0; i < kSetupReps; ++i) {
    problem.reset();
    dataset.reset();
    const double t0 = now_s();
    dataset = webspam(65536, 131072);
    const double t1 = now_s();
    problem = std::make_unique<RidgeProblem>(*dataset, kLambda);
    const double t2 = now_s();
    const auto solver =
        tpa::core::make_solver(*problem, config(SolverKind::kAsyncReplicated));
    setup.record(t1 - t0, t2 - t1, now_s() - t2);
  }
  TrainSpec spec;
  spec.target_gap = kTarget;
  spec.max_epochs = 100;
  spec.initial_gap = zero_state_gap(*problem);

  TraceLedger ledger;
  RunSet plain, traced, threaded, seq;
  Replay rep_replay, seq_replay;
  // Traced runs cycle untraced rep / traced rep / rep-threads / seq.
  repeat_for(options, 0.8, options.trace ? 4 : kMinTrainingRuns, [&](int i) {
    const int arm = options.trace ? i % 4 : 0;
    const bool trace_on = arm == 1;
    const SolverKind kind = arm == 2   ? SolverKind::kThreadedReplicated
                            : arm == 3 ? SolverKind::kSequential
                                       : SolverKind::kAsyncReplicated;
    const std::string name = tpa::core::solver_kind_name(kind);
    const auto solver = tpa::core::make_solver(*problem, config(kind));
    ledger.drain();
    ledger.clear();
    const auto merges0 = obs_counter("solver.merges");
    spec.drain_each_epoch = trace_on ? &ledger : nullptr;
    tpa::obs::set_trace_enabled(trace_on);
    const auto run = train_to_gap(
        spec, [&] { return solver->run_epoch(); },
        [&] { return solver->duality_gap(*problem); });
    tpa::obs::set_trace_enabled(false);
    ledger.drain();
    const auto& state = solver->state();
    const double recomputed =
        problem->duality_gap(Formulation::kDual, state.weights, state.shared);
    if (!accept_run(report, name, run, recomputed, kTarget)) return;
    if (arm == 2) {
      threaded.runs.push_back(run);
      return;
    }
    auto& replay = arm == 3 ? seq_replay : rep_replay;
    replay.check(report, name, run, hash_floats(state.weights));
    if (arm == 3) {
      seq.runs.push_back(run);
      return;
    }
    auto& set = trace_on ? traced : plain;
    set.runs.push_back(run);
    set.merges.push_back(
        static_cast<double>(obs_counter("solver.merges") - merges0));
    set.merge_s.push_back(ledger.total_s("replica/merge"));
  });
  if (plain.empty() ||
      (options.trace && (traced.empty() || threaded.empty() || seq.empty()))) {
    report.check_failed("no successful training run to report");
    return;
  }

  setup.report_to(report, options.trace);
  if (!options.trace) {
    report_training(report, plain);
  } else {
    report_core_layers(report, plain, traced);
    report_cpu_per_wall(report, threaded);
    report_sim_time(report, plain);
    report.add("core.seq_epoch_s", median(seq.pooled_epochs()), "s",
               Clock::kWall);
    report.add("threads.speedup_vs_seq",
               seq.median_wall() / threaded.median_wall(), "x", Clock::kWall);
    report_probes(report, *problem, threads, ledger);
  }
  finish(report, options, ledger);
}

namespace {

tpa::cluster::DistConfig fleet_config(std::uint64_t seed) {
  // tpascd_train --fleet 4xtitanx,4xcpu:4 --adaptive (placement optimize,
  // overlap on, 10 GbE), dual at λ=1e-3.
  tpa::cluster::DistConfig dist;
  dist.formulation = Formulation::kDual;
  dist.fleet = tpa::cluster::placement::parse_fleet_spec("4xtitanx,4xcpu:4");
  dist.num_workers = static_cast<int>(dist.fleet.size());
  dist.aggregation = tpa::cluster::AggregationMode::kAdaptive;
  dist.local_solver.kind = SolverKind::kTpaTitanX;
  dist.local_solver.formulation = Formulation::kDual;
  dist.local_solver.seed = seed;
  dist.lambda = kLambda;
  dist.network = tpa::cluster::NetworkModel::ethernet_10g();
  dist.placement = tpa::cluster::placement::PlacementMode::kOptimize;
  dist.placement_seed = 7;
  dist.comm_overlap = true;
  return dist;
}

}  // namespace

// fleet-hetero: the synchronous DistributedSolver over a heterogeneous
// 4 GPU + 4 CPU-pool fleet; deterministic, on both clocks.
void run_fleet_hetero(const Options& options, Report& report) {
  constexpr double kTarget = 1e-5;
  // One local-solver seed per invocation spread rounds to gap from 37 to
  // 55 across invocations; six seeds, each run twice, average that out.
  constexpr int kSeeds = 6;
  const auto dist = fleet_config(cycled_seed(options, 0, kSeeds));

  SetupTimes setup;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<RidgeProblem> problem;
  for (int i = 0; i < kSetupReps; ++i) {
    problem.reset();
    dataset.reset();
    const double t0 = now_s();
    dataset = webspam(16384, 32768);
    const double t1 = now_s();
    problem = std::make_unique<RidgeProblem>(*dataset, kLambda);
    const double t2 = now_s();
    const tpa::cluster::DistributedSolver solver(*dataset, dist);
    setup.record(t1 - t0, t2 - t1, now_s() - t2);
  }
  TrainSpec spec;
  spec.target_gap = kTarget;
  spec.max_epochs = 300;
  spec.initial_gap = zero_state_gap(*problem);

  TraceLedger ledger;
  RunSet plain, traced;
  Replay replay;
  std::vector<double> local_solve_s, master_s, sweep_s;
  tpa::obs::RoundAttribution attr;
  double attr_rounds = 1.0;
  double wire_bytes_per_round = 0.0;
  repeat_for(options, 0.8, 2 * kSeeds, [&](int i) {
    const bool trace_on = options.trace && i % 2 == 1;
    auto run_dist = dist;
    run_dist.local_solver.seed = cycled_seed(options, i, kSeeds);
    tpa::cluster::DistributedSolver solver(*dataset, run_dist);
    ledger.drain();
    ledger.clear();
    const auto merges0 = obs_counter("solver.merges");
    spec.drain_each_epoch = trace_on ? &ledger : nullptr;
    tpa::obs::set_trace_enabled(trace_on);
    auto run = train_to_gap(
        spec, [&] { return solver.run_epoch(); },
        [&] { return solver.duality_gap(); });
    run.seed = run_dist.local_solver.seed;
    tpa::obs::set_trace_enabled(false);
    ledger.drain();
    const auto weights = solver.global_weights();
    const double recomputed = problem->duality_gap(
        Formulation::kDual, weights, solver.global_shared());
    if (!accept_run(report, "fleet", run, recomputed, kTarget)) return;
    replay.check(report, "fleet", run, hash_floats(weights));
    auto& set = trace_on ? traced : plain;
    set.runs.push_back(run);
    set.merges.push_back(
        static_cast<double>(obs_counter("solver.merges") - merges0));
    set.merge_s.push_back(ledger.total_s("replica/merge"));
    if (trace_on) {
      const double rounds = run.epochs;
      const double local = ledger.total_s("dist/local_solve");
      local_solve_s.push_back(local / rounds);
      master_s.push_back((run.epoch_total_s() - local) / rounds);
      sweep_s.push_back(ledger.total_s("tpa_scd/sweep"));
    }
    attr = solver.attribution_totals();
    attr_rounds = std::max<double>(1.0, solver.attribution_rounds());
    wire_bytes_per_round =
        static_cast<double>(solver.delta_bytes_on_wire()) / run.epochs;
  });
  if (plain.empty() || (options.trace && traced.empty())) {
    report.check_failed("no successful training run to report");
    return;
  }

  setup.report_to(report, options.trace);
  if (!options.trace) {
    report_training(report, plain);
  } else {
    report_core_layers(report, plain, traced);
    report_cpu_per_wall(report, plain);
    report_sim_time(report, plain);
    report.add("gpusim.sweep_wall_s", median(sweep_s), "s", Clock::kWall);
    report.add("cluster.round_s", median(plain.pooled_epochs()), "s",
               Clock::kWall);
    report.add("cluster.local_solve_s", median(local_solve_s), "s",
               Clock::kWall);
    report.add("cluster.master_s", median(master_s), "s", Clock::kWall);
    const auto& first = plain.runs.front();
    report.add("cluster.round_sim_s", first.sim_s / first.epochs, "sim_s",
               Clock::kSim);
    report.add("cluster.attr.compute_s", attr.compute_seconds / attr_rounds,
               "sim_s", Clock::kSim);
    report.add("cluster.attr.host_s", attr.host_seconds / attr_rounds,
               "sim_s", Clock::kSim);
    report.add("cluster.attr.pcie_s", attr.pcie_seconds / attr_rounds,
               "sim_s", Clock::kSim);
    report.add("cluster.attr.network_s", attr.network_seconds / attr_rounds,
               "sim_s", Clock::kSim);
    report.add("cluster.attr.straggler_s",
               attr.straggler_wait_seconds / attr_rounds, "sim_s",
               Clock::kSim);
    report.add("cluster.wire_bytes_per_round", wire_bytes_per_round, "B",
               Clock::kCount);

    // The annealer, replayed with the inputs DistributedSolver gives it.
    tpa::cluster::placement::CostOptions cost;
    cost.local_passes = dist.local_epochs_per_round;
    cost.comm_overlap = dist.comm_overlap;
    cost.seconds_per_vector_element =
        dist.local_solver.cpu_cost.seconds_per_vector_element;
    const tpa::cluster::placement::PlacementCostModel cost_model(
        dist.fleet, problem->num_coordinates(Formulation::kDual),
        tpa::core::TimingWorkload::for_dataset(*dataset, Formulation::kDual),
        dist.network, cost);
    tpa::cluster::placement::AnnealConfig anneal;
    anneal.seed = dist.placement_seed;
    std::vector<double> anneal_s;
    int iterations = 0;
    for (int r = 0; r < 5; ++r) {
      const tpa::obs::TraceSpan span("bench/placement.plan");
      const double t0 = now_s();
      const auto plan = tpa::cluster::placement::plan_placement(
          cost_model, dist.placement, anneal);
      anneal_s.push_back(now_s() - t0);
      iterations = plan.sa_iterations;
    }
    report.add("placement.anneal_s", median(anneal_s), "s", Clock::kWall);
    report.add("placement.sa_iterations", iterations, "count", Clock::kCount);
    report_probes(report, *problem, 4, ledger);
  }
  finish(report, options, ledger);
}

// criteo-stream: a one-hot criteo-like store written in set-up, trained
// out-of-core by StreamingScdSolver (mmap reads, double-buffered prefetch).
void run_criteo_stream(const Options& options, Report& report) {
  constexpr double kTarget = 1e-5;
  constexpr std::uint64_t kShards = 8;
  const auto store_dir =
      std::filesystem::path(options.work_dir) / "criteo-store";
  const auto manifest = (store_dir / "criteo.manifest").string();
  // Three runs fit the budget; two solver seeds (a, b, a) halve the seed's
  // share of the spread in epochs to gap and keep a replay check.
  constexpr int kSeeds = 2;
  tpa::store::StreamingConfig config;
  config.lambda = kLambda;
  config.seed = cycled_seed(options, 0, kSeeds);
  config.threads = 1;
  config.resident_shards = 2;
  config.async_prefetch = true;

  SetupTimes setup;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<RidgeProblem> problem;
  std::unique_ptr<tpa::store::StoreStreamingDataset> source;
  for (int i = 0; i < kSetupReps; ++i) {
    source.reset();
    problem.reset();
    dataset.reset();
    std::filesystem::remove_all(store_dir);
    const double t0 = now_s();
    tpa::data::CriteoLikeConfig generator;
    generator.num_examples = 131072;
    generator.seed = kDataSeed;
    dataset = std::make_unique<Dataset>(tpa::data::make_criteo_like(generator));
    const double t1 = now_s();
    {
      const tpa::obs::TraceSpan span("bench/write_store");
      std::filesystem::create_directories(store_dir);
      const tpa::sparse::LabeledMatrix rows{
          dataset->by_row(), std::vector<float>(dataset->labels().begin(),
                                                dataset->labels().end())};
      tpa::store::write_store(store_dir.string(), "criteo", rows, kShards);
    }
    const double t2 = now_s();
    problem = std::make_unique<RidgeProblem>(*dataset, kLambda);
    source = std::make_unique<tpa::store::StoreStreamingDataset>(
        tpa::store::ShardReader::open(manifest, tpa::store::ReadMode::kMmap));
    const double t3 = now_s();
    const tpa::store::StreamingScdSolver solver(*source, config);
    setup.record(t1 - t0, t3 - t2, now_s() - t3, t2 - t1);
  }
  TrainSpec spec;
  spec.target_gap = kTarget;
  spec.max_epochs = 200;
  spec.initial_gap = zero_state_gap(*problem);

  TraceLedger ledger;
  RunSet plain, traced;
  Replay replay;
  std::vector<double> load_s, decode_s, wait_s, sweep_s, overlap, stalls,
      bytes;
  repeat_for(options, 0.8, kMinTrainingRuns, [&](int i) {
    const bool trace_on = options.trace && i % 2 == 1;
    const auto merges0 = obs_counter("solver.merges");
    const auto stalls0 = obs_counter("store.prefetch_stalls");
    const auto bytes0 = obs_counter("store.bytes_read");
    ledger.drain();
    ledger.clear();
    TrainRun run;
    double recomputed = 0.0;
    double overlap_frac = 0.0;
    std::uint64_t hash = 0;
    auto run_config = config;
    run_config.seed = cycled_seed(options, i, kSeeds);
    {
      // The solver owns the prefetch thread: the ledger drains only after
      // it is destroyed (a run records a few thousand events).
      tpa::store::StreamingScdSolver solver(*source, run_config);
      tpa::obs::set_trace_enabled(trace_on);
      run = train_to_gap(
          spec, [&] { return solver.run_epoch(); },
          [&] { return solver.duality_gap(); });
      tpa::obs::set_trace_enabled(false);
      recomputed = problem->duality_gap(Formulation::kDual, solver.alpha(),
                                        solver.shared());
      overlap_frac = solver.prefetch_stats().overlap_fraction();
      hash = hash_floats(solver.alpha());
    }
    run.seed = run_config.seed;
    ledger.drain();
    if (!accept_run(report, "criteo-stream", run, recomputed, kTarget)) {
      return;
    }
    replay.check(report, "criteo-stream", run, hash);
    auto& set = trace_on ? traced : plain;
    set.runs.push_back(run);
    set.merges.push_back(
        static_cast<double>(obs_counter("solver.merges") - merges0));
    set.merge_s.push_back(ledger.total_s("replica/merge"));
    overlap.push_back(overlap_frac);
    stalls.push_back(
        static_cast<double>(obs_counter("store.prefetch_stalls") - stalls0));
    bytes.push_back(
        static_cast<double>(obs_counter("store.bytes_read") - bytes0));
    if (trace_on) {
      load_s.push_back(ledger.total_s("store/load"));
      decode_s.push_back(ledger.total_s("store/decode"));
      wait_s.push_back(ledger.total_s("store/wait"));
      sweep_s.push_back(ledger.total_s("streaming_scd/sweep"));
    }
  });
  if (plain.empty() || (options.trace && traced.empty())) {
    report.check_failed("no successful training run to report");
    return;
  }

  setup.report_to(report, options.trace);
  if (!options.trace) {
    report_training(report, plain);
  } else {
    report_core_layers(report, plain, traced);
    report_cpu_per_wall(report, plain);
    report.add("store.write_s", median(setup.store_write), "s", Clock::kWall);
    report.add("store.load_s", median(load_s), "s", Clock::kWall);
    report.add("store.decode_s", median(decode_s), "s", Clock::kWall);
    report.add("store.wait_s", median(wait_s), "s", Clock::kWall);
    report.add("store.sweep_s", median(sweep_s), "s", Clock::kWall);
    report.add("store.overlap_frac", median(overlap), "frac", Clock::kWall);
    report.add("store.stalls", median(stalls), "count", Clock::kCount);
    report.add("store.bytes_read", median(bytes), "B", Clock::kCount);
    report_probes(report, *problem, config.threads, ledger);
  }
  source.reset();
  std::filesystem::remove_all(store_dir);
  finish(report, options, ledger);
}

// serve-open: open-loop Poisson traffic against serve::Server; two models
// are trained in set-up and the second is hot-reloaded mid-run.
void run_serve_open(const Options& options, Report& report) {
  constexpr double kTarget = 1e-5;
  constexpr double kLambdaB = 1e-2;
  const auto model_b_path =
      (std::filesystem::path(options.work_dir) / "serve-model-b.tpam")
          .string();
  const auto seq_config = [&] {
    tpa::core::SolverConfig c;
    c.kind = SolverKind::kSequential;
    c.formulation = Formulation::kDual;
    c.seed = options.seed;
    return c;
  }();

  SetupTimes setup;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<RidgeProblem> problem_a, problem_b;
  std::unique_ptr<tpa::serve::Server> server;
  tpa::core::SavedModel model_a, model_b;
  TraceLedger ledger;
  RunSet plain;
  Replay replay;
  // Trains one model to the target gap with the sequential solver.
  const auto train = [&](const RidgeProblem& problem,
                         tpa::core::SavedModel& out) {
    TrainSpec spec;
    spec.target_gap = kTarget;
    spec.max_epochs = 100;
    spec.initial_gap = zero_state_gap(problem);
    const auto solver = tpa::core::make_solver(problem, seq_config);
    auto run = train_to_gap(
        spec, [&] { return solver->run_epoch(); },
        [&] { return solver->duality_gap(problem); });
    const auto& state = solver->state();
    const double recomputed =
        problem.duality_gap(Formulation::kDual, state.weights, state.shared);
    out = dual_model(problem.lambda(), state.weights, state.shared);
    const bool ok = accept_run(report, "serve-open training", run,
                               recomputed, kTarget);
    return std::make_pair(ok, run);
  };
  // The serving figures are per-layer metrics, so every gated metric of
  // this workload comes from its set-up, which is therefore repeated for
  // half the budget.  Model A's training inside each set-up gives the
  // training metrics; nothing is trained outside set-up.
  bool trained = true;
  repeat_for(options, 0.5, kSetupReps, [&](int) {
    if (!trained) return;
    server.reset();
    problem_b.reset();
    problem_a.reset();
    dataset.reset();
    const double t0 = now_s();
    dataset = webspam(32768, 65536);
    const double t1 = now_s();
    problem_a = std::make_unique<RidgeProblem>(*dataset, kLambda);
    problem_b = std::make_unique<RidgeProblem>(*dataset, kLambdaB);
    const double t2 = now_s();
    const auto [ok_a, run_a] = train(*problem_a, model_a);
    const auto [ok_b, run_b] = train(*problem_b, model_b);
    if (!ok_a || !ok_b) {
      trained = false;
      return;
    }
    tpa::core::write_model_file(model_b_path, model_b);
    server = std::make_unique<tpa::serve::Server>(bench_server_config());
    {
      const tpa::obs::TraceSpan span("bench/publish");
      server->publish(model_a);
    }
    setup.record(t1 - t0, t2 - t1, now_s() - t2);
    replay.check(report, "serve-open model A", run_a,
                 hash_floats(model_a.weights));
    plain.runs.push_back(run_a);
  });
  if (!trained) {
    report.check_failed("a served model did not reach its target gap");
    return;
  }
  setup.report_to(report, options.trace);
  if (!options.trace) {
    report_training(report, plain);
  } else {
    report.add("core.epoch_s", median(plain.pooled_epochs()), "s",
               Clock::kWall);
    report.add("core.seq_epoch_s", median(plain.pooled_epochs()), "s",
               Clock::kWall);
    report.add("core.gap_eval_s", median(plain.pooled_gap_evals()), "s",
               Clock::kWall);
    report.add("core.gap_evals", median(plain.each([](const TrainRun& r) {
                 return static_cast<double>(r.epochs);
               })),
               "count", Clock::kCount);
    report_sim_time(report, plain);
    report_probes(report, *problem_a,
                  static_cast<int>(bench_server_config().threads), ledger);
  }

  const auto reference = bulk_scores(dataset->by_row(), model_a, model_b);
  const double overhead =
      serve_phase(report, dataset->by_row(), *server, reference, model_b_path,
                  options.seed, options.trace, ledger);
  if (options.trace) {
    report.add("obs.trace_overhead_frac", overhead, "frac", Clock::kWall);
  }
  server.reset();
  std::filesystem::remove(model_b_path);
  finish(report, options, ledger);
}

Verdict probe_replicated_defect(const std::string& solver_kind,
                                std::uint64_t seed, double lambda) {
  constexpr double kTarget = 1e-6;
  tpa::data::WebspamLikeConfig generator;
  generator.num_examples = 32768;
  generator.num_features = 65536;
  generator.seed = seed;
  const auto dataset =
      std::make_unique<Dataset>(tpa::data::make_webspam_like(generator));
  const RidgeProblem problem(*dataset, lambda);
  tpa::core::SolverConfig config;
  config.kind = tpa::core::parse_solver_kind(solver_kind);
  config.formulation = Formulation::kDual;
  config.threads = 4;
  config.seed = seed;
  const auto solver = tpa::core::make_solver(problem, config);
  TrainSpec spec;
  spec.target_gap = kTarget;
  spec.max_epochs = 30;
  spec.initial_gap = zero_state_gap(problem);
  const auto run = train_to_gap(
      spec, [&] { return solver->run_epoch(); },
      [&] { return solver->duality_gap(problem); });
  const auto& state = solver->state();
  return check_training(
      run,
      problem.duality_gap(Formulation::kDual, state.weights, state.shared),
      kTarget);
}

}  // namespace perfbench
