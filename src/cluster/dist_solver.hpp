// Distributed synchronous SCD (paper Algorithms 3 and 4, Section V) with a
// fault layer.
//
// K simulated workers each own a shard of the data (by feature for the
// primal, by example for the dual) and a local solver — any core::Solver,
// from sequential SCD to TPA-SCD on a simulated GPU.  Every epoch:
//   1. the master's shared vector is broadcast to the workers;
//   2. each worker runs one local epoch against its own copy — the workers
//      concurrently on host threads when that is predicted to pay, with
//      bit-identical results either way (DESIGN.md §8);
//   3. shared-vector deltas (plus, for adaptive aggregation, a few scalars)
//      are reduced to the master;
//   4. the master scales the summed update by γ (1/contributors for
//      averaging, the closed-form optimum of Algorithm 4 for adaptive) and
//      applies it;
//   5. workers rescale their local weight updates by the same γ, keeping the
//      global invariant  shared == A·(assembled weights)  exact.
// Per-epoch simulated time is broken down into local-solver compute, host
// vector arithmetic, PCIe transfers (GPU workers only) and network
// reduce/broadcast — exactly the four bars of the paper's Fig. 9.
//
// Failure handling (DESIGN.md §8): the paper's algorithms assume all K
// workers complete every epoch; here the master instead enforces a
// straggler deadline derived from the timing breakdown and aggregates only
// the deltas that arrive in time, rescaling γ to the contributing count.
// A straggler keeps computing and its stale delta is incorporated the round
// it finishes (the PASSCoDe observation: coordinate descent tolerates
// delayed updates, and the invariant above is linear so a late Δ preserves
// it exactly).  A crashed worker loses its in-progress epoch, backs off
// exponentially, and cold-restarts from the master's state; after
// `max_restarts` crashes it is evicted and its coordinates freeze.  All of
// it is driven by a deterministic, seeded FaultInjector so every failure
// scenario is reproducible — including across checkpoint/resume.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/aggregation.hpp"
#include "cluster/common.hpp"
#include "cluster/fault_injector.hpp"
#include "cluster/network_model.hpp"
#include "cluster/partition.hpp"
#include "cluster/placement/annealer.hpp"
#include "cluster/placement/fleet.hpp"
#include "core/convergence.hpp"
#include "core/model_io.hpp"
#include "core/solver_factory.hpp"
#include "obs/attribution.hpp"

namespace tpa::cluster {

struct DistConfig {
  core::Formulation formulation = core::Formulation::kDual;
  int num_workers = 4;
  AggregationMode aggregation = AggregationMode::kAveraging;
  /// γ used when aggregation == kFixed (Smith et al. [25] treat it as a
  /// free hyper-parameter; the ablation bench sweeps it against Algorithm
  /// 4's computed optimum).
  double fixed_gamma = 1.0;
  /// Local passes per communication round (H ≥ 1).  The paper (Sect. IV.A,
  /// citing [23]) notes an infrastructure-dependent trade-off between
  /// computation and communication: more local work per round amortises the
  /// network cost but each pass uses a staler shared vector, slowing
  /// convergence per update.  H = 1 is Algorithm 3 exactly.
  int local_epochs_per_round = 1;
  /// Local solver configuration; its formulation field is overridden by
  /// `formulation` above.
  core::SolverConfig local_solver{};
  NetworkModel network = NetworkModel::ethernet_10g();
  double lambda = 1e-3;
  std::uint64_t seed = 99;

  // ---- Fault layer ----
  /// Deterministic fault schedule; defaults to no faults.
  FaultConfig faults{};
  /// Straggler deadline multiplier: the master waits
  /// grace × (slowest healthy compute + network round) before aggregating
  /// without the laggards.  Must be > 1.
  double straggler_grace = 1.5;
  /// Crashes a worker survives before permanent eviction; backoff between
  /// restart attempts doubles each time (1, 2, 4, ... epochs).
  int max_restarts = 3;

  // ---- Heterogeneous placement (DESIGN.md §14) ----
  /// Per-worker device specs.  Empty = homogeneous cluster: every worker
  /// runs `local_solver` and the placement layer is bypassed entirely, so
  /// pre-placement runs reproduce bit-for-bit.  When set, the size must
  /// equal num_workers; worker k runs fleet[k]'s solver on a partition
  /// sized by the placement plan.
  placement::FleetSpec fleet{};
  /// kUniform reproduces the legacy equal split (bit-exact: same single
  /// permutation draw from `seed`); kOptimize runs the seeded annealer over
  /// partition sizes against the placement cost model.
  placement::PlacementMode placement = placement::PlacementMode::kUniform;
  /// Seed of the annealer's proposal stream (independent of `seed`, which
  /// keeps drawing the coordinate permutation).
  std::uint64_t placement_seed = 7;
  /// Overlap each worker's delta reduce with the remaining workers' compute
  /// in the event model: the master ingests deltas as they arrive, so only
  /// the post-overlap exposed network time is charged.  For homogeneous
  /// arrival times the binomial tree is never beaten and the round time is
  /// unchanged — overlap pays off exactly when placements are imbalanced.
  bool comm_overlap = false;

  // ---- Compressed delta exchange (DESIGN.md §16) ----
  /// Quantize worker → master deltas on the reduce leg: fp16 payload with
  /// one fp32 scale per 256-entry block, FNV-checksummed in encoded form
  /// (cluster/delta_codec.hpp).  The broadcast leg stays the dense fp32
  /// model — the workers must start each round from the master's exact
  /// state.  Off by default; the uncompressed path is bit-identical to the
  /// historical exchange.
  bool compress_deltas = false;
  /// Relative sparsification threshold forwarded to the codec: entries with
  /// |Δ_i| <= threshold · max|Δ| are dropped from the payload.  0 keeps the
  /// deterministic dense-quantized layout the placement cost model prices.
  double delta_threshold = 0.0;
};

struct EpochBreakdown {
  double compute_solver = 0.0;  // slowest worker's local epoch (GPU or CPU)
  double compute_host = 0.0;    // delta/rescale vector arithmetic on hosts
  double pcie = 0.0;            // shared vector on/off the GPU (GPU workers)
  double network = 0.0;         // tree reduce + broadcast

  double total() const noexcept {
    return compute_solver + compute_host + pcie + network;
  }
};

enum class WorkerStatus {
  kActive,    // participating normally
  kInFlight,  // missed the deadline; its stale epoch is still running
  kBackoff,   // crashed; sitting out its exponential backoff
  kEvicted,   // exceeded max_restarts; coordinates frozen for good
};

const char* worker_status_name(WorkerStatus status);

class DistributedSolver {
 public:
  /// Partitions `global` across the workers and builds their local solvers.
  /// The dataset must outlive the solver.  Throws std::invalid_argument on
  /// non-positive num_workers / local_epochs_per_round, num_workers larger
  /// than the partitionable dimension, or straggler_grace <= 1.
  DistributedSolver(const data::Dataset& global, const DistConfig& config);

  int num_workers() const noexcept { return config_.num_workers; }
  core::Formulation formulation() const noexcept {
    return config_.formulation;
  }
  const core::RidgeProblem& global_problem() const noexcept {
    return global_problem_;
  }

  /// One outer (communication) epoch; report times include all four
  /// breakdown components.
  core::EpochReport run_epoch();

  /// Duality gap of the assembled global model.  A non-null pool
  /// parallelises the evaluation (see core::RidgeProblem::duality_gap).
  double duality_gap(util::ThreadPool* pool = nullptr) const;

  /// Forwards a replica-merge interval to every worker's local solver
  /// (core::Solver::set_merge_every; no-op for non-replicated locals).
  void set_merge_every(int merge_every);

  /// γ used by the most recent epoch (1/contributors under averaging; 0 for
  /// an epoch in which no worker's delta landed).
  double last_gamma() const noexcept { return last_gamma_; }
  const EpochBreakdown& last_breakdown() const noexcept {
    return last_breakdown_;
  }

  /// Round attribution (DESIGN.md §15): the most recent round's breakdown,
  /// the cumulative breakdown, and the round count behind it.  Components sum
  /// to the corresponding sim_seconds by construction — compute_solver is
  /// split into the critical worker's nominal compute plus straggler wait.
  const obs::RoundAttribution& last_attribution() const noexcept {
    return last_attr_;
  }
  const obs::RoundAttribution& attribution_totals() const noexcept {
    return attr_totals_;
  }
  std::uint64_t attribution_rounds() const noexcept { return attr_rounds_; }

  /// One-time setup: slowest worker's dataset upload (GPU locals only).
  double setup_sim_seconds() const;

  /// The coordinate partition in force (placement-sized when a fleet is
  /// configured; the legacy equal split otherwise).
  const Partition& partition() const noexcept { return partition_; }

  /// The placement plan (chosen sizes, uniform baseline, predictions, SA
  /// trajectory); nullptr when no fleet is configured.
  const placement::PlacementResult* placement_result() const noexcept {
    return placement_result_ ? &*placement_result_ : nullptr;
  }

  /// Assembles the global weight vector (β or α) from the workers' local
  /// pieces via the partition.
  std::vector<float> global_weights() const;
  const std::vector<float>& global_shared() const noexcept {
    return shared_;
  }

  // ---- Fault-layer observability ----
  /// Outer epochs completed (monotone; restore() fast-forwards it).
  int current_epoch() const noexcept { return epoch_; }
  /// Workers whose delta landed in the most recent epoch.
  int last_contributors() const noexcept { return last_contributors_; }
  /// Straggler deadline applied in the most recent epoch (seconds).
  double last_deadline_seconds() const noexcept {
    return last_deadline_seconds_;
  }
  WorkerStatus worker_status(int worker) const;
  /// Every fault / recovery / eviction event since construction.
  const std::vector<core::ClusterEvent>& events() const noexcept {
    return events_;
  }

  /// Cumulative bytes of delta payload that crossed the wire (encoded form
  /// when compression is on; the raw fp64 vector otherwise) and the raw
  /// fp64 baseline for the same deltas — the ≥2x reduction the precision
  /// ablation gates on is wire/dense.
  std::uint64_t delta_bytes_on_wire() const noexcept {
    return delta_bytes_on_wire_;
  }
  std::uint64_t delta_bytes_dense() const noexcept {
    return delta_bytes_dense_;
  }

  // ---- Checkpoint / resume ----
  /// Snapshot of the committed global state (assembled weights + shared
  /// vector + epoch counter), suitable for core::write_model_file.
  core::SavedModel checkpoint() const;

  /// Restores a checkpoint into a freshly constructed solver (same dataset
  /// and config): scatters the weights back to the workers, fast-forwards
  /// every local solver's permutation stream to the checkpoint epoch (each
  /// worker consumes exactly local_epochs_per_round permutations per outer
  /// epoch, run or skipped, so the streams realign bit-exactly), and
  /// resumes at checkpoint.epoch + 1.  A resume is a cluster-wide cold
  /// restart: all workers come back healthy and any delta that was in
  /// flight when the checkpoint was written is dropped.  Throws
  /// std::invalid_argument on formulation/dimension mismatch and
  /// std::logic_error if epochs have already run.
  void restore(const core::SavedModel& saved);

  /// Writes checkpoint() atomically to `path` (run_cluster_loop hook).
  void write_checkpoint_file(const std::string& path) const;

 private:
  /// A delta that missed its round: buffered on the "network" until the
  /// straggler finishes, then incorporated with that round's γ.
  struct PendingDelta {
    std::vector<double> dshared;   // Δ(shared) vs the broadcast it started from
    std::vector<float> dweights;   // matching local weight deltas
    int rounds_needed = 1;
    int rounds_done = 0;
    int epoch_started = 0;  // the epoch whose flow/delta arrow this closes
    std::size_t wire_bytes = 0;  // payload size, charged when it lands
  };

  struct Worker {
    WorkerCore core;
    std::vector<float> weights_start;  // per-epoch scratch
    WorkerStatus status = WorkerStatus::kActive;
    int crash_count = 0;
    int backoff_remaining = 0;
    std::optional<PendingDelta> pending;
  };

  void record_event(int worker, core::ClusterEventKind kind);
  /// One runner's local solve: the broadcast copy into the worker's own
  /// state, the weights_start snapshot and local_epochs_per_round local
  /// epochs.  Reads only shared_ and writes only `worker`, so runners may
  /// solve concurrently.  Returns the simulated seconds of the local epochs.
  double solve_locally(Worker& worker, int index);
  /// Runs every runner's solve_locally and stores its seconds in
  /// run_seconds[k]: on the round pool, longest first, when
  /// core::pool_dispatch() predicts a win and no local owns host threads;
  /// inline in worker order otherwise.  Rethrows the lowest-indexed
  /// worker's exception.  Returns the round's host concurrency (1 inline).
  int solve_runners(const std::vector<std::size_t>& runners,
                    std::vector<double>& run_seconds);
  /// Crash bookkeeping: drops in-flight work, schedules the restart backoff
  /// or evicts after too many failures.
  void handle_crash(Worker& worker, int index);

  const data::Dataset* global_;
  DistConfig config_;
  core::RidgeProblem global_problem_;
  Partition partition_;
  std::optional<placement::PlacementResult> placement_result_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool threaded_locals_ = false;  // some local solver owns host threads
  std::unique_ptr<util::ThreadPool> round_pool_;  // built on first use
  std::vector<float> shared_;  // the master's (global) shared vector
  EpochBreakdown last_breakdown_{};
  obs::RoundAttribution last_attr_{};
  obs::RoundAttribution attr_totals_{};
  std::uint64_t attr_rounds_ = 0;
  double attr_clock_seconds_ = 0.0;  // monotone sim clock for attr spans
  double last_gamma_ = 1.0;
  bool gpu_local_ = false;
  core::TimingWorkload global_workload_;  // paper-scale dims for host/net
  int epoch_ = 0;
  int last_contributors_ = 0;
  double last_deadline_seconds_ = 0.0;
  std::uint64_t delta_bytes_on_wire_ = 0;
  std::uint64_t delta_bytes_dense_ = 0;
  std::vector<core::ClusterEvent> events_;
};

/// Drives a DistributedSolver like core::run_solver, recording γ, the
/// contributor count and all fault events per epoch (CheckpointConfig and
/// the loop itself live in cluster/common.hpp, shared with run_async).
/// Resumes from the solver's current epoch (nonzero after restore()).
core::ConvergenceTrace run_distributed(DistributedSolver& solver,
                                       const core::RunOptions& options,
                                       const CheckpointConfig& ckpt = {});

}  // namespace tpa::cluster
