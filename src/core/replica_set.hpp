// Per-thread replicas of the shared vector (SySCD-style).
//
// The atomic write-back in the threaded/async solvers serialises the hot
// loop on the shared vector's cache lines: every fetch_add bounces the line
// between cores.  ReplicaSet removes that contention by giving each worker
// a private, cache-line-aligned copy of the shared vector — the inner loop
// reads its own replica with plain loads and writes it through scatter(),
// exactly like the sequential solver — and folding the replicas' deltas back
// into the global vector at a configurable interval (the merge).  Staleness
// is bounded by the merge interval; DESIGN.md §11 documents the model.
//
// Layout: one backing AlignedVector holds [base | replica 0 | ... |
// replica n-1], each slot starting on a fresh 64-byte line (stride rounded
// up to 16 floats), so no two replicas — and no replica and the base — ever
// share a cache line (false sharing would reintroduce the very contention
// replication removes).  Each replica also has a dirty bitmap, one bit per
// 64-byte line of its slot (16 fp32 or 32 fp16 entries), on cache lines of
// its own: scatter() sets the bits of the lines it wrote, and any access
// through the mutable replica()/replica_half() spans marks the whole slot,
// so a write the set cannot see is still merged.
//
// Merge semantics (deterministic): for each replica r in index order, and
// only over the runs of lines r marked dirty,
//   w[i] = float(w[i] + (double(r[i]) − double(base[i])))     (linalg::add_diff)
// then base and every replica are reseeded from the merged w on the union of
// the dirty lines, and the marks are cleared.  A replica is folded only
// where it marked a line, and an entry in a line no replica marked is never
// written.  Such an entry still equals base in every replica, so a dense
// fold would only have added +0.0 to it: exact, except that −0.0 + (+0.0)
// turned a −0.0 in w into +0.0.  The sparse merge deliberately leaves that
// −0.0 as it is (inside a dirty line it still becomes +0.0, as before).  A
// single-replica merge is special-cased to a verbatim copy of the dirty
// lines — float w + (r − w) is not exactly r in general, and the copy makes
// the merge_every=1 single-thread path bit-exact against the sequential
// solver.  Under fp16 that copy widens the half image, which rounds w to
// half precision; reset_from() therefore marks the lone replica whole, so
// the first merge after it widens every line, as the dense merge did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/half.hpp"
#include "sparse/csr.hpp"
#include "util/aligned.hpp"

namespace tpa::core {

class ReplicaSet {
 public:
  ReplicaSet() = default;

  /// Allocates `count` replicas of a `dim`-entry vector plus the base
  /// snapshot slot, stored at `precision` (fp32 by default; fp16 halves the
  /// bytes every replica sweep touches, DESIGN.md §16).  Idempotent for an
  /// unchanged (dim, count, precision); reallocation otherwise.  Contents
  /// are unspecified until reset_from().
  void configure(std::size_t dim, int count,
                 linalg::SharedPrecision precision =
                     linalg::SharedPrecision::kFp32);

  int count() const noexcept { return count_; }
  std::size_t dim() const noexcept { return dim_; }
  /// Elements between consecutive slots — dim rounded up to a full cache
  /// line of the storage type.
  std::size_t stride() const noexcept { return stride_; }
  linalg::SharedPrecision precision() const noexcept { return precision_; }

  /// Worker r's private copy of the shared vector (fp32 storage only).  The
  /// whole slot is marked dirty, since writes through the span are not
  /// tracked; solvers read through view() and write through scatter().
  std::span<float> replica(int r) noexcept {
    mark_all(r);
    return {slot<float>(r + 1), dim_};
  }
  /// Snapshot of the global vector at the last merge/reseed (fp32 storage).
  std::span<const float> base() const noexcept { return {slot<float>(0), dim_}; }

  /// fp16-storage accessors (valid only after configure(..., kFp16));
  /// replica_half() marks the whole slot dirty, like replica().
  std::span<linalg::Half> replica_half(int r) noexcept {
    mark_all(r);
    return {slot<linalg::Half>(r + 1), dim_};
  }
  std::span<const linalg::Half> base_half() const noexcept {
    return {slot<linalg::Half>(0), dim_};
  }

  /// Read-only view of replica r in storage type T (float or linalg::Half)
  /// — what a sweep templated over the storage precision reads.
  template <typename T>
  std::span<const T> view(int r) const noexcept {
    return {slot<T>(r + 1), dim_};
  }

  /// replica r += alpha · a (linalg::sparse_axpy at the storage precision),
  /// then marks the lines it wrote dirty.  Distinct replicas may scatter
  /// concurrently: each bitmap sits on cache lines of its own.
  void scatter(int r, double alpha, const sparse::SparseVectorView& a);

  /// Reseeds base and every replica from `global` (global.size() == dim),
  /// over the whole slot, and clears every dirty mark (a lone fp16 replica
  /// is marked whole instead; see the header comment).  Under fp16 storage
  /// the global is narrowed once (RNE) and the same half image is copied
  /// into every slot.
  void reset_from(std::span<const float> global);

  /// Folds every replica's delta against base into `global` in replica
  /// order, then reseeds base and replicas from the merged result — all on
  /// dirty lines only (see the header comment).  Records a "replica/merge"
  /// trace span, bumps the solver.merges counter and adds the entries of
  /// `global` it rewrote (the union of the dirty lines) to
  /// solver.merge_entries.
  void merge_into(std::span<float> global);

 private:
  // Slot s of the backing storage: 0 is base, r + 1 is replica r.
  template <typename T>
  const T* slot(int s) const noexcept {
    const auto offset = stride_ * static_cast<std::size_t>(s);
    if constexpr (std::is_same_v<T, linalg::Half>) {
      return half_storage_.data() + offset;
    } else {
      return storage_.data() + offset;
    }
  }
  template <typename T>
  T* slot(int s) noexcept {
    return const_cast<T*>(std::as_const(*this).slot<T>(s));
  }
  std::uint64_t* dirty(int r) noexcept {
    return dirty_.data() + dirty_stride_ * static_cast<std::size_t>(r);
  }
  void mark_all(int r) noexcept;
  template <typename T>
  std::size_t merge_dirty(std::span<float> global);

  util::AlignedVector<float> storage_;  // [base | replica 0 | replica 1 | ...]
  util::AlignedVector<linalg::Half> half_storage_;  // same layout, fp16 mode
  // Per-replica line bitmaps, dirty_stride_ words apart (whole cache lines).
  util::AlignedVector<std::uint64_t> dirty_;
  std::vector<std::uint64_t> union_;  // merge scratch: OR of the bitmaps
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;
  std::size_t lines_ = 0;         // 64-byte lines per slot
  std::size_t dirty_stride_ = 0;  // bitmap words between replicas
  unsigned line_shift_ = 0;       // log2(entries per line)
  int count_ = 0;
  linalg::SharedPrecision precision_ = linalg::SharedPrecision::kFp32;
};

}  // namespace tpa::core
