#include "cluster/common.hpp"

#include <cstring>
#include <stdexcept>

#include "sparse/io_binary.hpp"

namespace tpa::cluster {

bool is_gpu_solver_kind(core::SolverKind kind) {
  return kind == core::SolverKind::kTpaM4000 ||
         kind == core::SolverKind::kTpaTitanX;
}

bool is_threaded_solver_kind(core::SolverKind kind) {
  return kind == core::SolverKind::kThreadedAtomic ||
         kind == core::SolverKind::kThreadedWild ||
         kind == core::SolverKind::kThreadedReplicated;
}

void corrupt_in_transit(std::vector<double>& delta) {
  if (delta.empty()) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, delta.data(), sizeof(bits));
  bits ^= 0x1ULL;
  std::memcpy(delta.data(), &bits, sizeof(bits));
}

std::uint64_t delta_checksum(const std::vector<double>& delta) {
  return sparse::fnv1a(delta.data(), delta.size() * sizeof(double));
}

void init_worker_core(WorkerCore& core, const data::Dataset& global,
                      const Partition& partition, int slot,
                      core::Formulation formulation, double lambda,
                      const core::SolverConfig& local_solver) {
  core.shard = make_shard(global, formulation, partition.owned[slot]);
  core.problem = std::make_unique<core::RidgeProblem>(
      core.shard, lambda, global.num_examples());
  core::SolverConfig local = local_solver;
  local.formulation = formulation;
  local.seed = local_solver.seed + static_cast<std::uint64_t>(slot);
  core.solver = core::make_solver(*core.problem, local);
}

void validate_cluster_config(const char* who, int num_workers,
                             data::Index partitionable_dim,
                             core::Formulation formulation,
                             int local_epochs_per_round, int max_restarts) {
  const std::string name(who);
  if (num_workers <= 0) {
    throw std::invalid_argument(name + ": num_workers must be positive, got " +
                                std::to_string(num_workers));
  }
  if (static_cast<data::Index>(num_workers) > partitionable_dim) {
    throw std::invalid_argument(
        name + ": num_workers (" + std::to_string(num_workers) +
        ") exceeds the partitionable dimension (" +
        std::to_string(partitionable_dim) + " " +
        (formulation == core::Formulation::kPrimal ? "features" : "examples") +
        " for the " + std::string(formulation_name(formulation)) +
        " form); some workers would own no coordinates");
  }
  if (local_epochs_per_round <= 0) {
    throw std::invalid_argument(
        name + ": local_epochs_per_round must be >= 1, got " +
        std::to_string(local_epochs_per_round));
  }
  if (max_restarts < 0) {
    throw std::invalid_argument(name + ": max_restarts must be non-negative");
  }
}

void accumulate_gamma_terms(core::Formulation formulation,
                            std::span<const float> labels,
                            std::span<const float> start,
                            std::span<const float> end,
                            PrimalGammaTerms& pterms, DualGammaTerms& dterms) {
  for (std::size_t j = 0; j < end.size(); ++j) {
    const double from = start[j];
    const double delta = static_cast<double>(end[j]) - from;
    if (formulation == core::Formulation::kPrimal) {
      pterms.beta_dot_dbeta += from * delta;
      pterms.dbeta_sq += delta * delta;
    } else {
      dterms.dalpha_dot_y += delta * labels[j];
      dterms.dalpha_dot_alpha += from * delta;
      dterms.dalpha_sq += delta * delta;
    }
  }
}

void record_cluster_event(std::vector<core::ClusterEvent>& events, int epoch,
                          int worker, core::ClusterEventKind kind,
                          std::int32_t master_track) {
  core::ClusterEvent event;
  event.epoch = epoch;
  event.worker = worker;
  event.kind = kind;
  events.push_back(event);
  obs::metrics()
      .counter(std::string("cluster.event.") + core::cluster_event_name(kind))
      .add();
  obs::trace_instant(core::cluster_event_name(kind),
                     worker_track(master_track, worker), epoch);
}

}  // namespace tpa::cluster
