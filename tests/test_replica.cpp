// Shared-vector replication (DESIGN.md §11): ReplicaSet layout and merge
// semantics, bit-exactness of the merge_every=1 single-worker path against
// the sequential solver, tolerance-bounded convergence equivalence of the
// multi-worker paths, schedule independence under forced pool dispatch, and
// the factory/engine plumbing for the replicated solver kinds.
#include "core/replica_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/async_scd.hpp"
#include "core/cost_model.hpp"
#include "core/round_engine.hpp"
#include "core/seq_scd.hpp"
#include "core/solver_factory.hpp"
#include "core/threaded_scd.hpp"
#include "core/tpa_scd.hpp"
#include "data/generators.hpp"
#include "linalg/half.hpp"
#include "obs/metrics_registry.hpp"
#include "util/aligned.hpp"
#include "util/permutation.hpp"
#include "util/rng.hpp"

namespace tpa::core {
namespace {

const data::Dataset& webspam_small() {
  static const data::Dataset dataset = [] {
    data::WebspamLikeConfig config;
    config.num_examples = 2048;
    config.num_features = 4096;
    return data::make_webspam_like(config);
  }();
  return dataset;
}

/// Restores the process-wide dispatch model on scope exit so a test that
/// forces pooled or serial execution cannot leak into its neighbours.
struct DispatchGuard {
  PoolDispatchModel saved = pool_dispatch();
  ~DispatchGuard() { set_pool_dispatch(saved); }
};

TEST(ReplicaSet, SlotsAreCacheLineAlignedAndDisjoint) {
  ReplicaSet replicas;
  // 100 floats is deliberately not a multiple of a cache line.
  replicas.configure(100, 3);
  EXPECT_EQ(replicas.dim(), 100u);
  EXPECT_EQ(replicas.count(), 3);
  // Stride rounds the slot up to whole 64-byte lines.
  EXPECT_GE(replicas.stride(), replicas.dim());
  EXPECT_EQ(replicas.stride() % (util::kCacheLineBytes / sizeof(float)), 0u);
  const auto base = replicas.base();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base.data()) %
                util::kCacheLineBytes,
            0u);
  for (int r = 0; r < replicas.count(); ++r) {
    const auto rep = replicas.replica(r);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rep.data()) %
                  util::kCacheLineBytes,
              0u);
    // No slot overlaps the previous one, even through a shared tail line.
    const auto* prev_end =
        (r == 0 ? base.data() : replicas.replica(r - 1).data()) +
        replicas.dim();
    EXPECT_GE(rep.data(), prev_end);
  }
}

TEST(ReplicaSet, ConfigureIsIdempotentForUnchangedShape) {
  ReplicaSet replicas;
  replicas.configure(64, 2);
  std::vector<float> global(64, 1.0F);
  replicas.reset_from(global);
  replicas.replica(0)[5] = 7.0F;
  replicas.configure(64, 2);  // must not wipe the replicas
  EXPECT_EQ(replicas.replica(0)[5], 7.0F);
  replicas.configure(64, 3);  // shape change reallocates
  EXPECT_EQ(replicas.count(), 3);
}

TEST(ReplicaSet, SingleReplicaMergeIsAVerbatimCopy) {
  ReplicaSet replicas;
  replicas.configure(33, 1);
  std::vector<float> global(33, 0.25F);
  replicas.reset_from(global);
  auto rep = replicas.replica(0);
  for (std::size_t i = 0; i < rep.size(); ++i) {
    rep[i] = 0.1F * static_cast<float>(i) + 1e-7F;
  }
  const std::vector<float> expected(rep.begin(), rep.end());
  replicas.merge_into(global);
  // Bit-exact: the single-replica path must bypass the float diff-add,
  // whose w + (r - w) round trip is not the identity.
  EXPECT_EQ(0, std::memcmp(global.data(), expected.data(),
                           expected.size() * sizeof(float)));
}

TEST(ReplicaSet, MergeFoldsDisjointDeltasAndReseeds) {
  ReplicaSet replicas;
  replicas.configure(8, 2);
  std::vector<float> global = {1, 2, 3, 4, 5, 6, 7, 8};
  replicas.reset_from(global);
  // Each replica touches its own half — the contract the solvers maintain
  // between merges.
  replicas.replica(0)[0] += 10.0F;
  replicas.replica(0)[3] += 20.0F;
  replicas.replica(1)[4] += 1.0F;
  replicas.replica(1)[7] -= 2.0F;
  replicas.merge_into(global);
  const std::vector<float> expected = {11, 2, 3, 24, 6, 6, 7, 6};
  EXPECT_EQ(global, expected);
  // Base and replicas are reseeded from the merged vector.
  for (int r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(replicas.replica(r)[i], global[i]);
    }
  }
  EXPECT_EQ(replicas.base()[0], 11.0F);
}

// --- Dirty-line merge against the dense merge it replaced -----------------

using linalg::Half;

template <typename T>
constexpr linalg::SharedPrecision kPrecisionOf =
    std::is_same_v<T, Half> ? linalg::SharedPrecision::kFp16
                            : linalg::SharedPrecision::kFp32;

template <typename T>
float widened(T x) {
  if constexpr (std::is_same_v<T, Half>) {
    return linalg::half_to_float(x);
  } else {
    return x;
  }
}

template <typename T>
T stored(float x) {
  if constexpr (std::is_same_v<T, Half>) {
    return linalg::float_to_half(x);
  } else {
    return x;
  }
}

template <typename T>
std::vector<T> base_copy(const ReplicaSet& replicas) {
  if constexpr (std::is_same_v<T, Half>) {
    return {replicas.base_half().begin(), replicas.base_half().end()};
  } else {
    return {replicas.base().begin(), replicas.base().end()};
  }
}

/// base and every replica slot, copied out of a ReplicaSet.
template <typename T>
struct Slots {
  std::vector<T> base;
  std::vector<std::vector<T>> replicas;

  static Slots of(const ReplicaSet& set) {
    Slots s{base_copy<T>(set), {}};
    for (int r = 0; r < set.count(); ++r) {
      const auto view = set.view<T>(r);
      s.replicas.emplace_back(view.begin(), view.end());
    }
    return s;
  }
};

/// The dense merge the dirty-line merge replaced, kept as the reference:
/// fold every replica over every entry in replica order (a lone replica is
/// copied, widened under fp16), then reseed base and every replica over
/// every entry from the merged vector, narrowing once under fp16.
template <typename T>
void dense_reference_merge(std::vector<float>& global, Slots<T>& slots) {
  const std::size_t count = slots.replicas.size();
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t i = 0; i < global.size(); ++i) {
      const double rep = widened(slots.replicas[r][i]);
      global[i] = count == 1
                      ? static_cast<float>(rep)
                      : static_cast<float>(
                            global[i] +
                            (rep - static_cast<double>(widened(slots.base[i]))));
    }
  }
  for (std::size_t i = 0; i < global.size(); ++i) {
    slots.base[i] = stored<T>(global[i]);
  }
  for (auto& rep : slots.replicas) rep = slots.base;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Merges `replicas` into `global` and the dense reference into a copy of
/// the pre-merge state, then byte-compares global, base and every slot.
template <typename T>
void expect_merge_matches_dense(ReplicaSet& replicas,
                                std::vector<float>& global,
                                const std::string& where) {
  std::vector<float> expected_global = global;
  Slots<T> expected = Slots<T>::of(replicas);
  dense_reference_merge(expected_global, expected);
  replicas.merge_into(global);
  const Slots<T> actual = Slots<T>::of(replicas);
  EXPECT_TRUE(same_bytes(global, expected_global)) << where << ": global";
  EXPECT_TRUE(same_bytes(actual.base, expected.base)) << where << ": base";
  for (std::size_t r = 0; r < actual.replicas.size(); ++r) {
    EXPECT_TRUE(same_bytes(actual.replicas[r], expected.replicas[r]))
        << where << ": replica " << r;
  }
}

/// A sorted, duplicate-free random index set of 1–5 entries below `dim`,
/// with values away from zero (so no scatter can produce a −0.0).
struct RandomRow {
  std::vector<sparse::Index> indices;
  std::vector<sparse::Value> values;

  RandomRow(util::Rng& rng, std::size_t dim) {
    const auto nnz = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t k = 0; k < nnz; ++k) {
      indices.push_back(static_cast<sparse::Index>(rng.uniform_index(dim)));
    }
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      values.push_back(static_cast<sparse::Value>(rng.uniform(0.5, 1.5)));
    }
  }
  RandomRow(std::vector<sparse::Index> idx, float value)
      : indices(std::move(idx)), values(indices.size(), value) {}

  sparse::SparseVectorView view() const { return {indices, values}; }
};

template <typename T>
void check_sparse_merge_equals_dense(int count, std::uint64_t seed) {
  // 117 entries: 7.3 fp32 lines, 3.7 fp16 lines — the last line is partial.
  constexpr std::size_t kDim = 117;
  util::Rng rng(seed);
  ReplicaSet replicas;
  replicas.configure(kDim, count, kPrecisionOf<T>);
  std::vector<float> global(kDim);
  for (auto& x : global) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  replicas.reset_from(global);
  const auto step = [&] { return rng.uniform(-0.5, 0.5); };

  // Consecutive merges without a reset_from in between.
  for (int round = 0; round < 6; ++round) {
    const std::string where = "count " + std::to_string(count) + " round " +
                              std::to_string(round);
    // The last lane scatters nothing in odd rounds (a lone lane then
    // writes only the last entry, below).
    const int writers = round % 2 == 1 ? count - 1 : count;
    for (int r = 0; r < writers; ++r) {
      for (int k = 0; k < 3; ++k) {
        replicas.scatter(r, step(), RandomRow(rng, kDim).view());
      }
    }
    // Lane 0 writes the last entry, in the partial last line.
    replicas.scatter(0, step(), RandomRow({kDim - 1}, 1.0F).view());
    if (count > 1) {
      // Two lanes write different entries of one line, then the same entry.
      replicas.scatter(0, step(), RandomRow({33}, 1.0F).view());
      replicas.scatter(1, step(), RandomRow({34}, 1.0F).view());
      replicas.scatter(0, step(), RandomRow({70}, 1.0F).view());
      replicas.scatter(count - 1, step(), RandomRow({70}, 1.0F).view());
    }
    expect_merge_matches_dense<T>(replicas, global, where);
  }

  // Writes through the mutable accessor are untracked: the whole slot is
  // marked, so they still merge.
  for (int r = 0; r < count; ++r) {
    const std::size_t i = rng.uniform_index(kDim);
    if constexpr (std::is_same_v<T, Half>) {
      replicas.replica_half(r)[i] = linalg::float_to_half(
          linalg::half_to_float(replicas.replica_half(r)[i]) + 0.25F);
    } else {
      replicas.replica(r)[i] += 0.25F;
    }
  }
  expect_merge_matches_dense<T>(replicas, global, "mutable accessor");

  // reset_from clears stale marks: lines marked before the reset must not
  // fold again — a −0.0 there would come out +0.0, and the merge would
  // count their entries.  (A lone fp16 replica is marked whole on purpose.)
  replicas.scatter(0, step(), RandomRow({0, 50, kDim - 1}, 1.0F).view());
  std::vector<float> fresh(kDim, 1.0F);
  fresh[50] = -0.0F;
  replicas.reset_from(fresh);
  if (count > 1 || !std::is_same_v<T, Half>) {
    const obs::Counter& entries =
        obs::metrics().counter("solver.merge_entries");
    const std::uint64_t before = entries.value();
    replicas.merge_into(fresh);
    EXPECT_TRUE(std::signbit(fresh[50])) << "count " << count;
    EXPECT_EQ(entries.value(), before) << "count " << count;
  }
  for (auto& x : global) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  replicas.reset_from(global);
  replicas.scatter(count - 1, step(), RandomRow({3}, 1.0F).view());
  expect_merge_matches_dense<T>(replicas, global, "after reset");
}

TEST(ReplicaSet, SparseMergeEqualsDenseReferenceFp32) {
  for (int count = 1; count <= 5; ++count) {
    check_sparse_merge_equals_dense<float>(count, 100 + count);
  }
}

TEST(ReplicaSet, SparseMergeEqualsDenseReferenceFp16) {
  for (int count = 1; count <= 5; ++count) {
    check_sparse_merge_equals_dense<Half>(count, 200 + count);
  }
}

// Entries in lines no replica wrote are never touched by the merge, so a
// −0.0 there survives; the dense merge turned it into +0.0 (−0.0 + (r − b)
// with r − b = +0.0).  Inside a written line the fold still adds +0.0.
TEST(ReplicaSet, MergeLeavesNegativeZeroInCleanLines) {
  for (const auto precision :
       {linalg::SharedPrecision::kFp32, linalg::SharedPrecision::kFp16}) {
    ReplicaSet replicas;
    replicas.configure(128, 2, precision);
    std::vector<float> global(128, 1.0F);
    global[5] = -0.0F;    // line 0, which replica 0 writes
    global[100] = -0.0F;  // a line nobody writes
    replicas.reset_from(global);
    replicas.scatter(0, 0.5, RandomRow({1}, 1.0F).view());
    replicas.merge_into(global);
    EXPECT_EQ(global[1], 1.5F);
    EXPECT_FALSE(std::signbit(global[5]));
    EXPECT_TRUE(std::signbit(global[100]));
    EXPECT_EQ(global[100], 0.0F);
  }
}

// solver.merge_entries counts the entries a merge rewrites: the union of the
// lines the replicas wrote, not count × dim.
TEST(ReplicaSet, MergeEntriesCountsOnlyTheDirtyLines) {
  constexpr std::size_t kDim = 32768;
  constexpr std::size_t kLine = util::kCacheLineBytes / sizeof(float);
  constexpr int kCount = 4;
  ReplicaSet replicas;
  replicas.configure(kDim, kCount);
  std::vector<float> global(kDim, 1.0F);
  replicas.reset_from(global);
  obs::Counter& entries = obs::metrics().counter("solver.merge_entries");
  util::Rng rng(9);
  std::vector<bool> touched(kDim, false);
  for (int r = 0; r < kCount; ++r) {
    for (int k = 0; k < 5; ++k) {  // k sparse scatters per lane
      const RandomRow row(rng, kDim);
      for (const auto i : row.indices) touched[i] = true;
      replicas.scatter(r, 0.5, row.view());
    }
  }
  std::size_t touched_entries = 0;
  std::size_t touched_lines = 0;
  for (std::size_t line = 0; line < kDim / kLine; ++line) {
    bool dirty = false;
    for (std::size_t i = line * kLine; i < (line + 1) * kLine; ++i) {
      touched_entries += touched[i] ? 1 : 0;
      dirty = dirty || touched[i];
    }
    touched_lines += dirty ? 1 : 0;
  }
  const std::uint64_t before = entries.value();
  replicas.merge_into(global);
  const std::uint64_t counted = entries.value() - before;
  EXPECT_LE(counted, touched_lines * kLine);
  EXPECT_GE(counted, touched_entries);
  EXPECT_LT(counted, kCount * kDim / 16);
  // A merge with nothing written rewrites nothing.
  const std::uint64_t idle_before = entries.value();
  replicas.merge_into(global);
  EXPECT_EQ(entries.value(), idle_before);
}

TEST(AsyncEngine, RunEpochRejectsReplicatedPolicy) {
  AsyncEngine engine(4, CommitPolicy::kReplicated);
  std::vector<sparse::Index> order = {0};
  std::vector<float> shared(4, 0.0F);
  EXPECT_THROW(
      engine.run_epoch(
          order, [](sparse::Index, std::span<const float>) { return 0.0; },
          [&](sparse::Index) {
            return sparse::SparseVectorView{};
          },
          [](sparse::Index, double) {}, shared),
      std::logic_error);
}

TEST(AsyncEngine, RunEpochReplicatedRejectsNonPositiveMergeEvery) {
  AsyncEngine engine(2, CommitPolicy::kReplicated);
  std::vector<sparse::Index> order = {0};
  std::vector<float> shared(4, 0.0F);
  ReplicaSet replicas;
  EXPECT_THROW(
      engine.run_epoch_replicated(
          order, [](sparse::Index, std::span<const float>) { return 0.0; },
          [&](sparse::Index) {
            return sparse::SparseVectorView{};
          },
          [](sparse::Index, double) {}, shared, replicas, 0),
      std::invalid_argument);
}

// merge_every=1 with a single worker reproduces the sequential solver
// *bit-exactly*: one replica, verbatim-copy merges, and the identical
// kernel calls in between (the ISSUE's equivalence gate).
TEST(ReplicatedScd, SingleThreadMergeEveryOneIsBitExactVsSequential) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver seq(problem, Formulation::kDual, 7);
  ThreadedScdSolver threaded(problem, Formulation::kDual, 1,
                             CommitPolicy::kReplicated, 7);
  threaded.set_merge_every(1);
  ReplicatedScdSolver async(problem, Formulation::kDual, 1, 7);
  async.set_merge_every(1);
  for (int epoch = 0; epoch < 3; ++epoch) {
    seq.run_epoch();
    threaded.run_epoch();
    async.run_epoch();
  }
  EXPECT_EQ(seq.state().weights, threaded.state().weights);
  EXPECT_EQ(seq.state().shared, threaded.state().shared);
  EXPECT_EQ(seq.state().weights, async.state().weights);
  EXPECT_EQ(seq.state().shared, async.state().shared);
}

// The automatic merge interval (merge_every=0) changes staleness, not
// correctness: a single worker still owns every coordinate, so the
// trajectory stays bit-exact sequential regardless of the interval.
TEST(ReplicatedScd, SingleThreadAutoIntervalStaysBitExact) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver seq(problem, Formulation::kDual, 7);
  ThreadedScdSolver threaded(problem, Formulation::kDual, 1,
                             CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 2; ++epoch) {
    seq.run_epoch();
    threaded.run_epoch();
  }
  EXPECT_EQ(seq.state().weights, threaded.state().weights);
  EXPECT_EQ(seq.state().shared, threaded.state().shared);
}

// Multi-worker replicated training reads stale replicas between merges, so
// it cannot be bit-exact — but it must stay convergence-equivalent to the
// sequential solver: same order of magnitude gap at every evaluated epoch,
// and well-converged at the end (tolerance documented in DESIGN.md §11).
// Both arms are deterministic (replicated rounds are schedule-independent),
// so the band cannot flake with the thread schedule the way a comparison
// against the atomic arm did.
TEST(ReplicatedScd, MultiThreadGapTraceMatchesSequentialWithinTolerance) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  SeqScdSolver sequential(problem, Formulation::kDual, 7);
  ThreadedScdSolver replicated(problem, Formulation::kDual, 4,
                               CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 8; ++epoch) {
    sequential.run_epoch();
    replicated.run_epoch();
    const double sequential_gap = sequential.duality_gap(problem);
    const double replicated_gap = replicated.duality_gap(problem);
    EXPECT_LT(replicated_gap, sequential_gap * 10.0) << "epoch " << epoch;
    EXPECT_GT(replicated_gap, sequential_gap / 10.0) << "epoch " << epoch;
  }
  EXPECT_LT(replicated.duality_gap(problem), 1e-4);
}

TEST(ReplicatedScd, AsyncLaneVariantConverges) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  ReplicatedScdSolver solver(problem, Formulation::kDual, 16, 7);
  for (int epoch = 0; epoch < 10; ++epoch) solver.run_epoch();
  EXPECT_LT(solver.duality_gap(problem), 1e-4);
  EXPECT_EQ(solver.total_lost_updates(), 0u);  // merges never lose updates
}

// Replicated execution is schedule-independent: coordinates are partitioned
// disjointly and reads see only merge-boundary state, so running the rounds
// on the pool or inline on the caller must give identical bits.  This is
// what lets the cost model pick the execution mode freely.
TEST(ReplicatedScd, PooledAndInlineExecutionAreBitIdentical) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  const DispatchGuard guard;

  PoolDispatchModel serial_model;
  serial_model.hardware_threads = 1;  // pool can never win: inline rounds
  set_pool_dispatch(serial_model);
  ThreadedScdSolver inline_solver(problem, Formulation::kDual, 4,
                                  CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 3; ++epoch) inline_solver.run_epoch();

  PoolDispatchModel pooled_model;
  pooled_model.hardware_threads = 8;  // pool always wins: pooled rounds
  pooled_model.dispatch_seconds = 0.0;
  pooled_model.per_chunk_seconds = 0.0;
  set_pool_dispatch(pooled_model);
  ThreadedScdSolver pooled_solver(problem, Formulation::kDual, 4,
                                  CommitPolicy::kReplicated, 7);
  for (int epoch = 0; epoch < 3; ++epoch) pooled_solver.run_epoch();

  EXPECT_EQ(inline_solver.state().weights, pooled_solver.state().weights);
  EXPECT_EQ(inline_solver.state().shared, pooled_solver.state().shared);
}

TEST(ReplicatedScd, DeterministicAcrossIdenticalRuns) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  ThreadedScdSolver a(problem, Formulation::kDual, 4,
                      CommitPolicy::kReplicated, 42);
  ThreadedScdSolver b(problem, Formulation::kDual, 4,
                      CommitPolicy::kReplicated, 42);
  for (int epoch = 0; epoch < 3; ++epoch) {
    a.run_epoch();
    b.run_epoch();
  }
  EXPECT_EQ(a.state().weights, b.state().weights);
}

// The TPA-SCD gpusim path batches its block write-backs through the same
// delta-merge primitive when merge_every > 0.  With a small lane window and
// merge_every=1 the concurrent staleness stays within the budget (damping
// θ = 1), so convergence must stay in the same regime as the per-update
// atomic write-back at the same window.
TEST(TpaScd, BatchedWriteBackMatchesAtomicConvergence) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  TpaScdOptions atomic_options;
  atomic_options.device = gpusim::DeviceSpec::quadro_m4000();
  atomic_options.async_window_override = 4;
  TpaScdSolver atomic(problem, Formulation::kDual, 7, atomic_options);
  TpaScdOptions batched_options = atomic_options;
  batched_options.merge_every = 1;
  TpaScdSolver batched(problem, Formulation::kDual, 7, batched_options);
  for (int epoch = 0; epoch < 6; ++epoch) {
    atomic.run_epoch();
    batched.run_epoch();
  }
  const double atomic_gap = atomic.duality_gap(problem);
  const double batched_gap = batched.duality_gap(problem);
  EXPECT_LT(batched_gap, atomic_gap * 10.0);
  EXPECT_GT(batched_gap, atomic_gap / 10.0);
}

// At the M4000's native window (2×13 lanes) with a coarse merge interval the
// concurrent staleness blows past the budget; replica_damping must keep the
// batched path stable (bounded, still making progress) instead of diverging.
TEST(TpaScd, BatchedWriteBackStaysStableAtNativeWindow) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  TpaScdOptions options;
  options.device = gpusim::DeviceSpec::quadro_m4000();
  options.merge_every = 64;
  TpaScdSolver batched(problem, Formulation::kDual, 7, options);
  const double initial_gap = batched.duality_gap(problem);
  for (int epoch = 0; epoch < 6; ++epoch) batched.run_epoch();
  const double final_gap = batched.duality_gap(problem);
  EXPECT_TRUE(std::isfinite(final_gap));
  EXPECT_LT(final_gap, initial_gap);
}

TEST(SolverFactory, BuildsReplicatedKindsWithMergeEvery) {
  const RidgeProblem problem(webspam_small(), 1e-3);
  for (const auto kind :
       {SolverKind::kAsyncReplicated, SolverKind::kThreadedReplicated}) {
    SolverConfig config;
    config.kind = kind;
    config.threads = 4;
    config.merge_every = 16;
    const auto solver = make_solver(problem, config);
    ASSERT_NE(solver, nullptr);
    EXPECT_NE(solver->name().find("Replicated"), std::string::npos);
    solver->run_epoch();  // must run with the configured interval
  }
  EXPECT_EQ(parse_solver_kind("rep"), SolverKind::kAsyncReplicated);
  EXPECT_EQ(parse_solver_kind("rep-threads"),
            SolverKind::kThreadedReplicated);
}

}  // namespace
}  // namespace tpa::core
