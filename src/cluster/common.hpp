// Plumbing shared by the synchronous (dist_solver) and asynchronous
// (async_solver) cluster drivers: worker construction, transit
// checksum/corruption simulation, adaptive-γ term accumulation, trace
// tracks, event recording, and the common run loop (gap cadence,
// checkpoint cadence, event forwarding).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/aggregation.hpp"
#include "cluster/partition.hpp"
#include "core/convergence.hpp"
#include "core/cost_model.hpp"
#include "core/solver_factory.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace tpa::cluster {

// Virtual trace tracks: whichever host threads run the simulation, the
// exported timeline should read as a cluster — one track for the
// master's aggregation phases and one per simulated worker.  The sync and
// async solvers use disjoint bases so a process that runs both (the
// ablation bench) exports distinguishable timelines.
inline constexpr std::int32_t kMasterTrack = 1000;       // dist/*
inline constexpr std::int32_t kAsyncMasterTrack = 2000;  // async/*

constexpr std::int32_t worker_track(std::int32_t master_track, int worker) {
  return worker < 0 ? master_track : master_track + 1 + worker;
}

/// Virtual track for the simulated-time attribution spans (attr/round and
/// its component tiles) of the driver rooted at `master_track`.  Offset 500
/// keeps it clear of any realistic worker count while staying between the
/// sync (1000) and async (2000) bases.
inline constexpr std::int32_t kAttrTrackOffset = 500;

constexpr std::int32_t attribution_track(std::int32_t master_track) {
  return master_track + kAttrTrackOffset;
}

// Flow ids for the causal delta/model arrows.  The id only has to be unique
// per begin/end pair within one trace: pack (track base, epoch, worker) so
// sync and async drivers — and different epochs — can never collide.  Bit 39
// distinguishes the master→worker model-broadcast flows from the
// worker→master delta flows of the same (epoch, worker).
constexpr std::uint64_t delta_flow_id(std::int32_t master_track, int epoch,
                                      int worker) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(master_track))
          << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(epoch) &
                                     0x7FFFFFu)
          << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(worker) &
                                    0xFFFFu);
}

constexpr std::uint64_t model_flow_id(std::int32_t master_track, int epoch,
                                      int worker) {
  return delta_flow_id(master_track, epoch, worker) |
         (std::uint64_t{1} << 39);
}

bool is_gpu_solver_kind(core::SolverKind kind);
/// True for the `*-threads` kinds, whose epochs run on their own host pool.
bool is_threaded_solver_kind(core::SolverKind kind);

/// Simulated transit corruption: flip one mantissa bit of the first entry.
/// Any single-bit change defeats FNV-1a, which is the point — the master
/// must notice without trusting the payload.
void corrupt_in_transit(std::vector<double>& delta);

std::uint64_t delta_checksum(const std::vector<double>& delta);

/// The data-plane third of a simulated worker: its shard, the local view of
/// the ridge problem (carrying the *global* example count so the λN terms
/// match the global objective, Section IV.A), and the local solver seeded
/// per-slot.  The control-plane state differs between the sync and async
/// drivers and lives in their own Worker structs.
struct WorkerCore {
  data::Dataset shard;
  std::unique_ptr<core::RidgeProblem> problem;
  std::unique_ptr<core::Solver> solver;
};

/// Fills `core` in place (the problem holds a reference to the shard, so
/// the WorkerCore must already sit at its final address — returning by
/// value would relocate the shard out from under it).
void init_worker_core(WorkerCore& core, const data::Dataset& global,
                      const Partition& partition, int slot,
                      core::Formulation formulation, double lambda,
                      const core::SolverConfig& local_solver);

/// Shared constructor-time validation; `who` names the throwing class.
void validate_cluster_config(const char* who, int num_workers,
                             data::Index partitionable_dim,
                             core::Formulation formulation,
                             int local_epochs_per_round, int max_restarts);

/// Accumulates the per-worker scalars of the adaptive line search
/// (Algorithm 4) for a local weight move start → end; ownership is disjoint
/// across workers so the terms sum.
void accumulate_gamma_terms(core::Formulation formulation,
                            std::span<const float> labels,
                            std::span<const float> start,
                            std::span<const float> end,
                            PrimalGammaTerms& pterms, DualGammaTerms& dterms);

/// Records a cluster event as (a) a trace-level ClusterEvent, (b) a
/// cluster.event.* counter so the --metrics-out report matches
/// ConvergenceTrace::count_events exactly, and (c) a trace instant on the
/// affected worker's track.
void record_cluster_event(std::vector<core::ClusterEvent>& events, int epoch,
                          int worker, core::ClusterEventKind kind,
                          std::int32_t master_track);

/// Periodic checkpointing for the cluster run loops: every `every_epochs`
/// outer epochs (and after the final one) the solver's checkpoint is written
/// atomically to `path`.
struct CheckpointConfig {
  std::string path;
  int every_epochs = 0;  // 0 disables

  bool enabled() const noexcept { return every_epochs > 0 && !path.empty(); }
};

/// The run loop shared by run_distributed and run_async: drives the solver
/// like core::run_solver, recording γ, the contributor count and all fault
/// events per epoch, checkpointing on the configured cadence (plus a final
/// checkpoint so a later --resume continues from exactly where the run
/// stopped), and evaluating the duality gap on the gap_every stride with a
/// cost-model-dispatched pool.  Resumes from the solver's current epoch
/// (nonzero after restore()).
template <typename SolverT>
core::ConvergenceTrace run_cluster_loop(SolverT& solver,
                                        const core::RunOptions& options,
                                        const CheckpointConfig& ckpt,
                                        std::int32_t master_track) {
  core::ConvergenceTrace trace;
  double sim_total =
      options.include_setup_time ? solver.setup_sim_seconds() : 0.0;
  double wall_total = 0.0;
  const int start_epoch = solver.current_epoch();
  std::size_t seen_events = solver.events().size();
  int last_checkpointed = start_epoch;
  const int interval = core::effective_gap_interval(options);
  if (options.merge_every != 0) {
    solver.set_merge_every(options.merge_every);
  }
  const auto write_checkpoint = [&](int epoch) {
    obs::TraceSpan span("train/checkpoint", master_track, epoch);
    solver.write_checkpoint_file(ckpt.path);
    trace.add_event({epoch, -1, core::ClusterEventKind::kCheckpoint});
    obs::metrics().counter("cluster.event.checkpoint").add();
    obs::trace_instant("checkpoint", master_track, epoch);
  };
  // Same crossover as run_solver: only pay for a pool when the global gap
  // evaluation is predicted to beat the serial pass on this host.
  const int gap_threads = core::pool_dispatch().dispatch_threads(
      solver.global_problem().dataset().nnz(), options.gap_threads);
  std::unique_ptr<util::ThreadPool> gap_pool;
  if (gap_threads > 1) {
    gap_pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(gap_threads));
  }
  for (int epoch = start_epoch + 1; epoch <= options.max_epochs; ++epoch) {
    const auto report = solver.run_epoch();
    sim_total += report.sim_seconds;
    wall_total += report.wall_seconds;
    const auto& events = solver.events();
    for (; seen_events < events.size(); ++seen_events) {
      trace.add_event(events[seen_events]);
    }
    if (ckpt.enabled() && epoch % ckpt.every_epochs == 0) {
      write_checkpoint(epoch);
      last_checkpointed = epoch;
    }
    if (epoch % interval == 0 || epoch == options.max_epochs) {
      core::TracePoint point;
      point.epoch = epoch;
      {
        obs::TraceSpan span("train/gap_eval", master_track, epoch);
        point.gap = solver.duality_gap(gap_pool.get());
      }
      obs::metrics().counter("train.gap_evals").add();
      point.sim_seconds = sim_total;
      point.wall_seconds = wall_total;
      point.gamma = solver.last_gamma();
      point.contributors = solver.last_contributors();
      trace.add(point);
      if (options.target_gap > 0.0 && point.gap <= options.target_gap) break;
    }
  }
  if (ckpt.enabled() && solver.current_epoch() > last_checkpointed) {
    write_checkpoint(solver.current_epoch());
  }
  return trace;
}

}  // namespace tpa::cluster
