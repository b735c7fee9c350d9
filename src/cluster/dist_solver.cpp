#include "cluster/dist_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/delta_codec.hpp"

#include "gpusim/device.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sparse/io_binary.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tpa::cluster {

const char* worker_status_name(WorkerStatus status) {
  switch (status) {
    case WorkerStatus::kActive:
      return "active";
    case WorkerStatus::kInFlight:
      return "in-flight";
    case WorkerStatus::kBackoff:
      return "backoff";
    case WorkerStatus::kEvicted:
      return "evicted";
  }
  return "?";
}

DistributedSolver::DistributedSolver(const data::Dataset& global,
                                     const DistConfig& config)
    : global_(&global),
      config_(config),
      global_problem_(global, config.lambda),
      injector_(config.faults),
      global_workload_(core::TimingWorkload::for_dataset(
          global, config.formulation)) {
  const auto dim = global_problem_.num_coordinates(config.formulation);
  validate_cluster_config("DistributedSolver", config.num_workers, dim,
                          config.formulation, config.local_epochs_per_round,
                          config.max_restarts);
  if (config.straggler_grace <= 1.0) {
    throw std::invalid_argument(
        "DistributedSolver: straggler_grace must be > 1 (the deadline must "
        "allow at least a full healthy epoch)");
  }
  if (config.delta_threshold < 0.0) {
    throw std::invalid_argument(
        "DistributedSolver: delta_threshold must be >= 0");
  }
  config.network.validate();
  const bool heterogeneous = !config.fleet.empty();
  if (heterogeneous &&
      static_cast<int>(config.fleet.size()) != config.num_workers) {
    throw std::invalid_argument(
        "DistributedSolver: fleet has " +
        std::to_string(config.fleet.size()) + " devices but num_workers is " +
        std::to_string(config.num_workers));
  }
  gpu_local_ = heterogeneous
                   ? placement::fleet_has_gpu(config.fleet)
                   : is_gpu_solver_kind(config.local_solver.kind);

  util::Rng rng(config.seed);
  if (heterogeneous) {
    // Plan the partition sizes against the placement cost model, then deal
    // the same permutation draw the legacy path uses.  With a homogeneous
    // fleet the planned sizes equal the uniform split and random_weighted
    // reproduces Partition::random bit-for-bit.
    placement::CostOptions cost_options;
    cost_options.local_passes = config.local_epochs_per_round;
    cost_options.comm_overlap = config.comm_overlap;
    cost_options.seconds_per_vector_element =
        config.local_solver.cpu_cost.seconds_per_vector_element;
    if (config.compress_deltas) {
      cost_options.delta_wire_bytes = quantized_delta_wire_bytes(
          static_cast<std::size_t>(global_workload_.shared_dim));
    }
    placement::PlacementCostModel cost_model(config.fleet, dim,
                                             global_workload_, config.network,
                                             cost_options);
    placement::AnnealConfig anneal;
    anneal.seed = config.placement_seed;
    placement_result_ =
        placement::plan_placement(cost_model, config.placement, anneal);
    partition_ = Partition::random_weighted(dim, placement_result_->sizes,
                                            rng);
  } else {
    partition_ = Partition::random(dim, config.num_workers, rng);
  }
  shared_.assign(global_problem_.shared_dim(config.formulation), 0.0F);

  workers_.reserve(static_cast<std::size_t>(config.num_workers));
  for (int k = 0; k < config.num_workers; ++k) {
    auto worker = std::make_unique<Worker>();
    const core::SolverConfig local =
        heterogeneous ? config.fleet[static_cast<std::size_t>(k)]
                            .solver_config(config.local_solver)
                      : config.local_solver;
    init_worker_core(worker->core, global, partition_, k, config.formulation,
                     config.lambda, local);
    threaded_locals_ = threaded_locals_ || is_threaded_solver_kind(local.kind);
    workers_.push_back(std::move(worker));
  }

  obs::set_track_name(kMasterTrack, "dist/master");
  obs::set_track_name(attribution_track(kMasterTrack),
                      "dist/attribution (sim)");
  for (int k = 0; k < config.num_workers; ++k) {
    obs::set_track_name(worker_track(kMasterTrack, k),
                        "dist/worker " + std::to_string(k));
  }
}

void DistributedSolver::record_event(int worker,
                                     core::ClusterEventKind kind) {
  record_cluster_event(events_, epoch_, worker, kind, kMasterTrack);
}

void DistributedSolver::handle_crash(Worker& worker, int index) {
  // The in-progress epoch (buffered or not) is lost; the worker's committed
  // weights survive because the master re-seeds the replacement shard from
  // its own assembled state on restart (DESIGN.md §8).
  worker.pending.reset();
  ++worker.crash_count;
  record_event(index, core::ClusterEventKind::kCrash);
  if (worker.crash_count > config_.max_restarts) {
    worker.status = WorkerStatus::kEvicted;
    record_event(index, core::ClusterEventKind::kEvict);
  } else {
    worker.status = WorkerStatus::kBackoff;
    worker.backoff_remaining = 1 << (worker.crash_count - 1);
  }
}

double DistributedSolver::solve_locally(Worker& worker, int index) {
  // Broadcast: the worker starts its epoch from the master's shared vector
  // (its local copy then diverges as it applies local updates).
  const std::int32_t track = worker_track(kMasterTrack, index);
  const obs::TraceSpan solve_span("dist/local_solve", track, epoch_);
  if (epoch_ > 1) {
    // Close the arrow from last round's broadcast: this solve consumes the
    // γ-scaled model the master published then.
    obs::trace_flow_end("flow/model",
                        model_flow_id(kMasterTrack, epoch_ - 1, index), track);
  }
  auto& state = worker.core.solver->mutable_state();
  state.shared.assign(shared_.begin(), shared_.end());
  worker.weights_start = state.weights;
  double local_seconds = 0.0;
  for (int pass = 0; pass < config_.local_epochs_per_round; ++pass) {
    local_seconds += worker.core.solver->run_epoch().sim_seconds;
  }
  // Open the delta arrow inside the solve span: the push to the master.
  obs::trace_flow_begin("flow/delta",
                        delta_flow_id(kMasterTrack, epoch_, index), track);
  return local_seconds;
}

int DistributedSolver::solve_runners(const std::vector<std::size_t>& runners,
                                     std::vector<double>& run_seconds) {
  const auto passes =
      static_cast<std::uint64_t>(config_.local_epochs_per_round);
  const auto work = [&](std::size_t k) {
    return static_cast<std::uint64_t>(workers_[k]->core.shard.nnz()) * passes;
  };
  std::uint64_t total_work = 0;
  for (const std::size_t k : runners) total_work += work(k);
  const auto& dispatch = core::pool_dispatch();
  const int width =
      dispatch.effective_threads(static_cast<int>(runners.size()));
  // Both paths give the same bits: each solve reads only shared_ and writes
  // only its own worker.  Locals that own host threads stay inline so they
  // never oversubscribe the host.
  if (threaded_locals_ || !dispatch.use_pool(total_work, width)) {
    for (const std::size_t k : runners) {
      run_seconds[k] = solve_locally(*workers_[k], static_cast<int>(k));
    }
    return 1;
  }

  if (!round_pool_ || round_pool_->size() < static_cast<std::size_t>(width)) {
    round_pool_ =
        std::make_unique<util::ThreadPool>(static_cast<std::size_t>(width));
  }
  // Longest first, so the slowest solve never starts last.
  std::vector<std::size_t> order = runners;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return work(a) > work(b);
                   });
  std::vector<std::exception_ptr> errors(workers_.size());
  for (const std::size_t k : order) {
    round_pool_->submit([this, k, &run_seconds, &errors] {
      try {
        run_seconds[k] = solve_locally(*workers_[k], static_cast<int>(k));
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  round_pool_->wait_idle();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return width;
}

core::EpochReport DistributedSolver::run_epoch() {
  const util::WallTimer timer;
  ++epoch_;
  obs::TraceSpan epoch_span("dist/epoch", kMasterTrack);
  obs::metrics().counter("cluster.epochs").add();
  const auto f = config_.formulation;
  const auto n = static_cast<double>(global_problem_.num_examples());
  const double lambda = config_.lambda;
  const int local_passes = config_.local_epochs_per_round;
  const auto num_workers = workers_.size();

  enum class Outcome { kIdle, kFresh, kLate };
  std::vector<Outcome> outcome(num_workers, Outcome::kIdle);
  std::vector<double> run_seconds(num_workers, 0.0);
  std::vector<FaultEvent> fault(num_workers);
  std::vector<bool> ran(num_workers, false);
  std::uint64_t updates = 0;

  // ---- Phase 1a (plan): advance every worker's state machine, in worker
  // order, and collect this round's runners.  Every worker consumes exactly
  // `local_passes` permutations per outer epoch — run, buffered, or skipped
  // — so that stream positions stay the pure function of the epoch counter
  // that restore() relies on.
  std::vector<std::size_t> runners;
  for (std::size_t k = 0; k < num_workers; ++k) {
    auto& worker = *workers_[k];
    const int index = static_cast<int>(k);

    if (worker.status == WorkerStatus::kEvicted) {
      worker.core.solver->skip_epoch_randomness(local_passes);
      continue;
    }
    if (worker.status == WorkerStatus::kBackoff) {
      worker.core.solver->skip_epoch_randomness(local_passes);
      if (--worker.backoff_remaining <= 0) {
        worker.status = WorkerStatus::kActive;
        record_event(index, core::ClusterEventKind::kRestart);
      }
      continue;
    }

    fault[k] = injector_.query(epoch_, index);

    if (worker.status == WorkerStatus::kInFlight) {
      worker.core.solver->skip_epoch_randomness(local_passes);
      if (fault[k].kind == FaultKind::kCrash) {
        handle_crash(worker, index);
        continue;
      }
      auto& pending = *worker.pending;
      if (++pending.rounds_done >= pending.rounds_needed) {
        outcome[k] = Outcome::kLate;  // incorporated below
      }
      continue;
    }

    // Active worker.  A crash costs the whole local epoch; nothing to run.
    if (fault[k].kind == FaultKind::kCrash) {
      worker.core.solver->skip_epoch_randomness(local_passes);
      handle_crash(worker, index);
      continue;
    }
    runners.push_back(k);
  }

  // ---- Phase 1b (solve): the runners' local solves, concurrently on the
  // round pool when that is predicted to pay.  The round's host
  // concurrency rides on the epoch span and the run report.
  const int round_threads = solve_runners(runners, run_seconds);
  epoch_span.set_arg(round_threads);
  obs::metrics().gauge("cluster.round_threads").set(round_threads);

  // ---- Phase 1c (book): in worker order, so Phases 2–4 see the same
  // inputs whichever way the solves ran.
  for (const std::size_t k : runners) {
    ran[k] = true;
    updates += workers_[k]->core.solver->state().weights.size();
  }

  // Phases 2–4 compute values consumed across phase boundaries, so their
  // spans use explicit begin timestamps instead of nested RAII scopes.
  const bool tracing = obs::trace_enabled();

  // ---- Phase 2: the straggler deadline, from the timing breakdown: the
  // master waits grace x (slowest healthy compute + network round) before
  // aggregating without the laggards.
  const double wait_begin_us = tracing ? obs::trace_now_us() : 0.0;
  const std::size_t shared_bytes =
      static_cast<std::size_t>(global_workload_.shared_dim) * sizeof(float);
  // Reduce-leg payload per delta: the dense-quantized wire size under
  // compression (deterministic — what the placement cost model prices), the
  // legacy dense fp32 image otherwise.  The broadcast leg is always dense.
  const DeltaCodecConfig codec{config_.delta_threshold, 256};
  const std::size_t delta_leg_bytes =
      config_.compress_deltas
          ? quantized_delta_wire_bytes(
                static_cast<std::size_t>(global_workload_.shared_dim))
          : shared_bytes;
  const double net_round =
      config_.network.reduce_seconds(delta_leg_bytes, config_.num_workers) +
      config_.network.broadcast_seconds(shared_bytes, config_.num_workers);
  // Bytes-on-wire accounting for every delta that reaches the master: the
  // encoded image when compression is on, the raw fp64 vector otherwise —
  // with the raw fp64 size always recorded as the baseline the precision
  // ablation's ≥2x reduction gate divides by.
  const auto charge_wire = [&](std::size_t wire) {
    const std::size_t dense = dense_delta_wire_bytes(shared_.size());
    delta_bytes_on_wire_ += wire;
    delta_bytes_dense_ += dense;
    obs::metrics().counter("cluster.delta.wire_bytes").add(wire);
    obs::metrics().counter("cluster.delta.dense_bytes").add(dense);
  };
  double healthy_max = 0.0;
  double runner_max = 0.0;
  for (std::size_t k = 0; k < num_workers; ++k) {
    if (!ran[k]) continue;
    runner_max = std::max(runner_max, run_seconds[k]);
    if (fault[k].kind != FaultKind::kStall) {
      healthy_max = std::max(healthy_max, run_seconds[k]);
    }
  }
  if (healthy_max == 0.0) healthy_max = runner_max;  // every runner stalled
  last_deadline_seconds_ =
      config_.straggler_grace * (healthy_max + net_round);
  if (tracing) {
    obs::trace_complete("dist/straggler_wait", wait_begin_us,
                        obs::trace_now_us() - wait_begin_us, kMasterTrack,
                        epoch_);
  }

  // ---- Phase 3: transit outcomes for this round's runners.
  const double reduce_begin_us = tracing ? obs::trace_now_us() : 0.0;
  double compute_max = 0.0;  // slowest delta that the master waited for
  double crit_compute = 0.0;  // its *nominal* compute (stall inflation is
                              // charged to straggler wait, not compute)
  bool any_deadline_miss = false;
  std::vector<double> fresh_arrivals;  // delta-on-the-wire times (overlap)
  for (std::size_t k = 0; k < num_workers; ++k) {
    if (!ran[k]) continue;
    auto& worker = *workers_[k];
    auto& state = worker.core.solver->mutable_state();
    const int index = static_cast<int>(k);
    const double effective =
        fault[k].kind == FaultKind::kStall
            ? run_seconds[k] * std::max(1.0, fault[k].stall_factor)
            : run_seconds[k];

    if (fault[k].kind == FaultKind::kStall &&
        effective > last_deadline_seconds_) {
      // Missed the deadline: buffer the stale delta and keep computing.
      // Rolling the visible weights back to the epoch start keeps the
      // assembled global state consistent until the delta finally lands.
      PendingDelta pending;
      pending.dshared.resize(shared_.size());
      for (std::size_t i = 0; i < shared_.size(); ++i) {
        pending.dshared[i] =
            static_cast<double>(state.shared[i]) - shared_[i];
      }
      pending.dweights.resize(state.weights.size());
      for (std::size_t j = 0; j < state.weights.size(); ++j) {
        pending.dweights[j] = static_cast<float>(
            static_cast<double>(state.weights[j]) - worker.weights_start[j]);
      }
      pending.rounds_needed = std::max(
          2, static_cast<int>(std::ceil(effective / last_deadline_seconds_)));
      pending.rounds_done = 1;
      pending.epoch_started = epoch_;
      if (config_.compress_deltas) {
        // The master will eventually receive the dequantized image; buffer
        // exactly that so the late landing matches what the wire carries.
        const CompressedDelta encoded = encode_delta(pending.dshared, codec);
        pending.wire_bytes = encoded.wire_bytes();
        decode_delta(encoded, pending.dshared);
      } else {
        pending.wire_bytes = dense_delta_wire_bytes(shared_.size());
      }
      state.weights = worker.weights_start;
      worker.pending = std::move(pending);
      worker.status = WorkerStatus::kInFlight;
      any_deadline_miss = true;
      record_event(index, core::ClusterEventKind::kDeadlineMiss);
      continue;
    }

    if (fault[k].kind == FaultKind::kDropDelta) {
      state.weights = worker.weights_start;
      record_event(index, core::ClusterEventKind::kDeltaDropped);
      continue;
    }

    if (fault[k].kind == FaultKind::kCorruptDelta) {
      // The worker checksums its delta before the reduce; the master
      // recomputes on receipt.  Corruption in transit fails the check and
      // the delta is discarded — never silently aggregated.  Under
      // compression the flip lands in the quantized payload and the FNV
      // stream over the encoded image must still catch it.
      std::vector<double> received(shared_.size());
      for (std::size_t i = 0; i < shared_.size(); ++i) {
        received[i] = static_cast<double>(state.shared[i]) - shared_[i];
      }
      bool verified = false;
      if (config_.compress_deltas) {
        CompressedDelta encoded = encode_delta(received, codec);
        charge_wire(encoded.wire_bytes());
        const std::uint64_t sent = encoded.checksum;
        corrupt_compressed_in_transit(encoded);
        verified = compressed_delta_checksum(encoded) == sent;
      } else {
        charge_wire(dense_delta_wire_bytes(received.size()));
        const std::uint64_t sent = delta_checksum(received);
        corrupt_in_transit(received);
        verified = delta_checksum(received) == sent;
      }
      if (!verified) {
        state.weights = worker.weights_start;
        record_event(index, core::ClusterEventKind::kDeltaCorrupted);
        continue;
      }
      // Unreachable (a bit flip always changes the FNV stream), but if the
      // check ever passed the delta is byte-identical and safe to use.
    }

    outcome[k] = Outcome::kFresh;
    if (effective > compute_max) {
      compute_max = effective;
      crit_compute = run_seconds[k];
    }
    fresh_arrivals.push_back(effective);
  }

  // ---- Phase 4: Reduce the surviving deltas on the master.
  std::vector<double> dshared(shared_.size(), 0.0);
  PrimalGammaTerms pterms;
  DualGammaTerms dterms;
  int contributors = 0;
  for (std::size_t k = 0; k < num_workers; ++k) {
    if (outcome[k] == Outcome::kIdle) continue;
    auto& worker = *workers_[k];
    const auto& state = worker.core.solver->state();
    const auto labels = worker.core.shard.labels();
    ++contributors;
    // Close this delta's arrow inside the master's reduce span.  A late
    // delta closes the arrow opened the round it was computed.
    obs::trace_flow_end(
        "flow/delta",
        delta_flow_id(kMasterTrack,
                      outcome[k] == Outcome::kFresh
                          ? epoch_
                          : worker.pending->epoch_started,
                      static_cast<int>(k)),
        kMasterTrack);
    if (outcome[k] == Outcome::kFresh) {
      if (config_.compress_deltas) {
        // Δw^(t,k) travels quantized: the master accumulates the decoded
        // image, so the shared == A·weights invariant holds up to the fp16
        // quantization error of the delta (DESIGN.md §16) — the exchange of
        // the scalar γ terms below stays exact.
        std::vector<double> received(shared_.size());
        for (std::size_t i = 0; i < shared_.size(); ++i) {
          received[i] = static_cast<double>(state.shared[i]) - shared_[i];
        }
        const CompressedDelta encoded = encode_delta(received, codec);
        charge_wire(encoded.wire_bytes());
        decode_delta(encoded, received);
        for (std::size_t i = 0; i < shared_.size(); ++i) {
          dshared[i] += received[i];
        }
      } else {
        // Δw^(t,k), summed straight into the master's accumulator (Reduce).
        charge_wire(dense_delta_wire_bytes(shared_.size()));
        for (std::size_t i = 0; i < shared_.size(); ++i) {
          dshared[i] += static_cast<double>(state.shared[i]) - shared_[i];
        }
      }
      // Local scalar terms for adaptive aggregation (Algorithm 4):
      // computable on each worker because coordinate ownership is disjoint.
      accumulate_gamma_terms(f, labels, worker.weights_start, state.weights,
                             pterms, dterms);
    } else {
      // A straggler's stale delta, finally off the wire.  The invariant is
      // linear in the delta, so incorporating it late is exact; only the
      // descent quality pays for the staleness (PASSCoDe).
      const auto& pending = *worker.pending;
      charge_wire(pending.wire_bytes);
      for (std::size_t i = 0; i < shared_.size(); ++i) {
        dshared[i] += pending.dshared[i];
      }
      for (std::size_t j = 0; j < pending.dweights.size(); ++j) {
        const double start = state.weights[j];  // rolled back at buffering
        const double delta = pending.dweights[j];
        if (f == core::Formulation::kPrimal) {
          pterms.beta_dot_dbeta += start * delta;
          pterms.dbeta_sq += delta * delta;
        } else {
          dterms.dalpha_dot_y += delta * labels[j];
          dterms.dalpha_dot_alpha += start * delta;
          dterms.dalpha_sq += delta * delta;
        }
      }
    }
  }
  last_contributors_ = contributors;
  if (tracing) {
    obs::trace_complete("dist/reduce", reduce_begin_us,
                        obs::trace_now_us() - reduce_begin_us, kMasterTrack,
                        contributors);
  }

  // ---- Master-side terms and the aggregation parameter, rescaled to the
  // workers that actually delivered (degraded-mode aggregation).
  const double fallback_gamma =
      contributors > 0 ? 1.0 / contributors : 0.0;
  if (contributors == 0) {
    last_gamma_ = 0.0;  // nothing landed; the model is untouched this round
  } else if (config_.aggregation == AggregationMode::kAveraging) {
    last_gamma_ = fallback_gamma;
  } else if (config_.aggregation == AggregationMode::kFixed) {
    last_gamma_ = config_.fixed_gamma;
  } else {
    double shared_sq = 0.0;
    double dshared_sq = 0.0;
    double shared_dot_dshared = 0.0;
    for (std::size_t i = 0; i < shared_.size(); ++i) {
      shared_sq += static_cast<double>(shared_[i]) * shared_[i];
      dshared_sq += dshared[i] * dshared[i];
      shared_dot_dshared += static_cast<double>(shared_[i]) * dshared[i];
    }
    // Once the model has converged to 32-bit precision the epoch's update
    // direction is rounding noise and the exact line search is
    // ill-conditioned; fall back to averaging there (it no longer matters).
    const bool direction_is_noise =
        dshared_sq <= 1e-10 * std::max(1.0, shared_sq);
    if (direction_is_noise) {
      last_gamma_ = fallback_gamma;
    } else if (f == core::Formulation::kPrimal) {
      const auto labels = global_->labels();
      pterms.dw_sq = dshared_sq;
      for (std::size_t i = 0; i < shared_.size(); ++i) {
        pterms.y_minus_w_dot_dw +=
            (static_cast<double>(labels[i]) - shared_[i]) * dshared[i];
      }
      last_gamma_ =
          optimal_gamma_primal(pterms, n, lambda, fallback_gamma);
    } else {
      dterms.dwbar_sq = dshared_sq;
      dterms.wbar_dot_dwbar = shared_dot_dshared;
      last_gamma_ = optimal_gamma_dual(dterms, n, lambda, fallback_gamma);
    }
  }

  // ---- Apply the scaled update on the master and rescale the contributing
  // workers' weight updates by the same γ so shared == A·weights stays
  // exact.  Excluded workers were rolled back to their epoch start, so they
  // contribute (exactly) nothing to either side.  This is the broadcast leg:
  // the γ-scaled model every worker starts from next round.
  const double bcast_begin_us = tracing ? obs::trace_now_us() : 0.0;
  if (contributors > 0) {
    for (std::size_t i = 0; i < shared_.size(); ++i) {
      shared_[i] =
          static_cast<float>(shared_[i] + last_gamma_ * dshared[i]);
    }
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (outcome[k] == Outcome::kIdle) continue;
      auto& worker = *workers_[k];
      auto& state = worker.core.solver->mutable_state();
      if (outcome[k] == Outcome::kFresh) {
        for (std::size_t j = 0; j < state.weights.size(); ++j) {
          const double start = worker.weights_start[j];
          const double delta =
              static_cast<double>(state.weights[j]) - start;
          state.weights[j] = static_cast<float>(start + last_gamma_ * delta);
        }
      } else {
        const auto& pending = *worker.pending;
        for (std::size_t j = 0; j < state.weights.size(); ++j) {
          state.weights[j] = static_cast<float>(
              state.weights[j] + last_gamma_ * pending.dweights[j]);
        }
        worker.pending.reset();
        worker.status = WorkerStatus::kActive;
        record_event(static_cast<int>(k),
                     core::ClusterEventKind::kLateDelta);
      }
    }
  }

  if (tracing) {
    // Open one model arrow per live worker inside the broadcast span; each
    // closes at the start of that worker's next solve.
    for (std::size_t k = 0; k < num_workers; ++k) {
      if (workers_[k]->status == WorkerStatus::kEvicted) continue;
      obs::trace_flow_begin(
          "flow/model",
          model_flow_id(kMasterTrack, epoch_, static_cast<int>(k)),
          kMasterTrack);
    }
    obs::trace_complete("dist/broadcast", bcast_begin_us,
                        obs::trace_now_us() - bcast_begin_us, kMasterTrack,
                        epoch_);
  }

  // ---- Simulated time accounting (paper-scale dimensions). ----
  const auto shared_elems = static_cast<double>(global_workload_.shared_dim);
  // Host passes scale with the largest local weight vector.  Without a
  // fleet the partition is the equal split and the legacy mean keeps the
  // pre-placement numbers bit-identical; with one, the placement may be
  // non-uniform, so charge the slowest (largest) worker's paper-scale
  // coordinate count.
  double host_coords = static_cast<double>(global_workload_.num_coordinates) /
                       config_.num_workers;
  if (!config_.fleet.empty()) {
    std::size_t max_owned = 0;
    for (const auto& owned : partition_.owned) {
      max_owned = std::max(max_owned, owned.size());
    }
    const auto dim =
        global_problem_.num_coordinates(config_.formulation);
    host_coords = static_cast<double>(global_workload_.num_coordinates) *
                  static_cast<double>(max_owned) / static_cast<double>(dim);
  }

  EpochBreakdown breakdown;
  // The master waits for the slowest delta it aggregated — or, when a
  // straggler blew the deadline, for the full grace window before giving
  // up on it.
  breakdown.compute_solver =
      any_deadline_miss
          ? std::max(compute_max, config_.straggler_grace * healthy_max)
          : compute_max;
  // Host arithmetic: forming Δw and applying γΔw (2 passes over the shared
  // vector on each host, in parallel across workers => counted once), plus
  // forming / rescaling the local weight deltas (3 passes over the local
  // coordinates).
  breakdown.compute_host =
      config_.local_solver.cpu_cost.seconds_per_vector_element *
      (3.0 * shared_elems + 3.0 * host_coords);
  if (gpu_local_) {
    // Shared vector off the device after the local epoch and the new one
    // back on, through pinned buffers (Section V.A).
    gpusim::PcieLink pcie;
    breakdown.pcie = pcie.transfer_seconds(shared_bytes, /*pinned=*/true) +
                     pcie.transfer_seconds(shared_bytes, /*pinned=*/true);
  }
  if (config_.comm_overlap && fresh_arrivals.size() > 1) {
    // Comm/compute overlap: the master ingests each delta as it lands, so
    // only the reduce time still exposed past the compute wait is charged
    // — by construction never more than the tree reduce, and exactly the
    // quantity the placement cost model prices.
    const double reduce_done = placement::overlapped_reduce_seconds(
        fresh_arrivals, delta_leg_bytes, config_.network);
    const double exposed =
        std::max(0.0, reduce_done - breakdown.compute_solver);
    breakdown.network =
        exposed +
        config_.network.broadcast_seconds(shared_bytes, config_.num_workers);
  } else {
    breakdown.network = net_round;
  }
  if (config_.aggregation == AggregationMode::kAdaptive) {
    // A few scalars ride along with the reduce/broadcast: one extra
    // latency-bound message each way.
    breakdown.network += config_.network.reduce_seconds(
                             4 * sizeof(double), config_.num_workers) +
                         config_.network.broadcast_seconds(
                             sizeof(double), config_.num_workers);
  }
  last_breakdown_ = breakdown;

  // ---- Round attribution (DESIGN.md §15).  compute_solver decomposes into
  // the critical worker's nominal compute plus everything the master spent
  // waiting past it (stall inflation and the grace window on a deadline
  // miss) — so the components sum to breakdown.total() exactly.
  obs::RoundAttribution attr;
  attr.compute_seconds = crit_compute;
  attr.host_seconds = breakdown.compute_host;
  attr.pcie_seconds = breakdown.pcie;
  attr.network_seconds = breakdown.network;
  attr.straggler_wait_seconds = breakdown.compute_solver - crit_compute;
  last_attr_ = attr;
  attr_totals_ += attr;
  ++attr_rounds_;
  obs::record_round_attribution(attr, attr_totals_, breakdown.total(),
                                attr_clock_seconds_, epoch_,
                                attribution_track(kMasterTrack));
  attr_clock_seconds_ += breakdown.total();

  core::EpochReport report;
  report.coordinate_updates = updates;
  report.sim_seconds = breakdown.total();
  report.wall_seconds = timer.seconds();
  return report;
}

double DistributedSolver::duality_gap(util::ThreadPool* pool) const {
  const auto weights = global_weights();
  return global_problem_.duality_gap(config_.formulation, weights, shared_,
                                     pool);
}

void DistributedSolver::set_merge_every(int merge_every) {
  for (auto& worker : workers_) {
    worker->core.solver->set_merge_every(merge_every);
  }
}

double DistributedSolver::setup_sim_seconds() const {
  double slowest = 0.0;
  for (const auto& worker : workers_) {
    slowest = std::max(slowest, worker->core.solver->setup_sim_seconds());
  }
  return slowest;
}

std::vector<float> DistributedSolver::global_weights() const {
  std::vector<float> weights(
      global_problem_.num_coordinates(config_.formulation), 0.0F);
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    const auto& local = workers_[k]->core.solver->state().weights;
    const auto& owned = partition_.owned[k];
    for (std::size_t j = 0; j < owned.size(); ++j) {
      weights[owned[j]] = local[j];
    }
  }
  return weights;
}

WorkerStatus DistributedSolver::worker_status(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker))->status;
}

core::SavedModel DistributedSolver::checkpoint() const {
  core::SavedModel saved;
  saved.formulation = config_.formulation;
  saved.lambda = config_.lambda;
  saved.epoch = static_cast<std::uint32_t>(epoch_);
  saved.weights = global_weights();
  saved.shared = shared_;
  return saved;
}

void DistributedSolver::restore(const core::SavedModel& saved) {
  if (epoch_ != 0) {
    throw std::logic_error(
        "DistributedSolver::restore: must be called on a fresh solver "
        "(epochs have already run)");
  }
  if (saved.formulation != config_.formulation) {
    throw std::invalid_argument(
        "DistributedSolver::restore: checkpoint formulation mismatch");
  }
  if (saved.weights.size() !=
          static_cast<std::size_t>(
              global_problem_.num_coordinates(config_.formulation)) ||
      saved.shared.size() != shared_.size()) {
    throw std::invalid_argument(
        "DistributedSolver::restore: checkpoint dimensions do not match "
        "the dataset/partition");
  }
  if (saved.lambda != config_.lambda) {
    throw std::invalid_argument(
        "DistributedSolver::restore: checkpoint lambda " +
        std::to_string(saved.lambda) + " != configured " +
        std::to_string(config_.lambda));
  }

  shared_.assign(saved.shared.begin(), saved.shared.end());
  const int skip =
      static_cast<int>(saved.epoch) * config_.local_epochs_per_round;
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    auto& worker = *workers_[k];
    auto& state = worker.core.solver->mutable_state();
    const auto& owned = partition_.owned[k];
    for (std::size_t j = 0; j < owned.size(); ++j) {
      state.weights[j] = saved.weights[owned[j]];
    }
    state.shared.assign(shared_.begin(), shared_.end());
    worker.weights_start = state.weights;
    // Realign the permutation stream: every worker consumes exactly
    // local_epochs_per_round shuffles per outer epoch no matter what
    // happened to it, so position == epoch is an invariant and a resumed
    // fault-free run replays the original bit-for-bit.
    worker.core.solver->skip_epoch_randomness(skip);
    // A resume is a cluster-wide cold restart: everyone comes back.
    worker.status = WorkerStatus::kActive;
    worker.crash_count = 0;
    worker.backoff_remaining = 0;
    worker.pending.reset();
  }
  epoch_ = static_cast<int>(saved.epoch);
}

void DistributedSolver::write_checkpoint_file(const std::string& path) const {
  core::write_model_file(path, checkpoint());
}

core::ConvergenceTrace run_distributed(DistributedSolver& solver,
                                       const core::RunOptions& options,
                                       const CheckpointConfig& ckpt) {
  return run_cluster_loop(solver, options, ckpt, kMasterTrack);
}

}  // namespace tpa::cluster
