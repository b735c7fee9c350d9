// Bucketed coordinate layout (the SySCD bucket idea, Ioannou et al. 2019).
//
// CSR/CSC give each coordinate a tightly-packed slice, but the slices of
// consecutive coordinates start at arbitrary byte offsets and arbitrary
// lengths, so the unrolled kernels spend a remainder loop on almost every
// coordinate and short coordinates thrash the strided reduce of the TPA-SCD
// block body.  This layout re-materialises the per-coordinate slices:
//
//   - coordinates are grouped into *buckets* by nnz class (the next power of
//     two of their nnz, minimum 8), so same-shaped work is contiguous;
//   - each coordinate's slice is padded to a multiple of 8 entries — padding
//     repeats the coordinate's last index with value 0, which contributes
//     exactly 0.0 to every dot/residual kernel and adds ±0.0 in scatter —
//     so the 4/8-way unrolled kernels never execute a remainder iteration;
//   - bucket starts are rounded to 64-byte boundaries in both the index and
//     value arrays (AlignedVector backing), keeping packed loads inside
//     cache lines.
//
// `padded(j)` is what the solvers feed the kernels; `unpadded(j)` recovers
// the exact CSR/CSC view for code that must see true nnz.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "util/aligned.hpp"

namespace tpa::sparse {

class BucketedLayout {
 public:
  // User-provided, so from_rows can default its argument to {} inside
  // the class (a defaulted one would need the member initializers first).
  BucketedLayout() noexcept {}

  /// Buckets the rows of a CSR matrix (dual-formulation coordinates), in
  /// `reuse`'s storage when given one (a retired layout of similar shape
  /// lends its capacity); byte-identical to a fresh build.
  static BucketedLayout from_rows(const CsrMatrix& m,
                                  BucketedLayout reuse = {});
  /// Buckets the columns of a CSC matrix (primal-formulation coordinates).
  static BucketedLayout from_cols(const CscMatrix& m);

  /// Empties the layout, keeping its capacity for a later `reuse`.
  void clear() noexcept;

  /// Number of coordinates (rows resp. columns of the source matrix).
  Index count() const noexcept { return static_cast<Index>(slots_.size()); }
  /// Dimension of the dense vector the coordinates index into.
  Index dim() const noexcept { return dim_; }
  bool empty() const noexcept { return slots_.empty(); }

  /// Zero-padded view of coordinate j: width_of(j) entries, the first
  /// nnz_of(j) of which are the source slice.  Safe for every kernel.
  SparseVectorView padded(Index j) const {
    const Slot& s = slots_[j];
    return SparseVectorView{
        std::span<const Index>(indices_).subspan(s.offset, s.width),
        std::span<const Value>(values_).subspan(s.offset, s.width)};
  }

  /// Exact source slice of coordinate j (no padding).
  SparseVectorView unpadded(Index j) const {
    const Slot& s = slots_[j];
    return SparseVectorView{
        std::span<const Index>(indices_).subspan(s.offset, s.nnz),
        std::span<const Value>(values_).subspan(s.offset, s.nnz)};
  }

  std::size_t nnz_of(Index j) const { return slots_[j].nnz; }
  std::size_t width_of(Index j) const { return slots_[j].width; }

  /// Buckets, ordered by ascending nnz class.
  int num_buckets() const noexcept { return static_cast<int>(buckets_.size()); }
  /// The nnz class (power-of-two upper bound) of bucket b.
  std::size_t bucket_class(int b) const { return buckets_[b].nnz_class; }
  /// Coordinate ids stored in bucket b, in storage order — iterating these
  /// walks the index/value arrays sequentially.
  std::span<const Index> bucket_coords(int b) const {
    const Bucket& bucket = buckets_[b];
    return std::span<const Index>(order_).subspan(bucket.begin,
                                                  bucket.count);
  }

  /// Total padded entries (>= source nnz; the padding overhead).
  std::size_t padded_nnz() const noexcept { return indices_.size(); }

  /// The whole bucket-major storage, alignment gaps included (index 0,
  /// value 0 in a gap).  padded(j) is a window into these.  No kernel
  /// reads the gaps; these views exist so a build into reused storage can
  /// be checked byte for byte against a fresh one.
  std::span<const Index> storage_indices() const noexcept { return indices_; }
  std::span<const Value> storage_values() const noexcept { return values_; }

  std::size_t memory_bytes() const noexcept {
    return indices_.size() * sizeof(Index) + values_.size() * sizeof(Value) +
           slots_.size() * sizeof(Slot) + order_.size() * sizeof(Index);
  }

 private:
  struct Slot {
    std::size_t offset = 0;   // into indices_/values_
    std::uint32_t nnz = 0;    // true entries
    std::uint32_t width = 0;  // padded entries (multiple of 8, 0 if nnz == 0)
  };
  struct Bucket {
    std::size_t nnz_class = 0;  // coordinates with nnz in (class/2, class]
    std::size_t begin = 0;      // into order_
    std::size_t count = 0;
  };

  /// Shared builder: `slice(j)` yields coordinate j's source view; the
  /// result is built in `layout`'s storage.
  template <typename SliceFn>
  static BucketedLayout build(Index count, Index dim, const SliceFn& slice,
                              BucketedLayout layout);

  std::vector<Slot> slots_;
  std::vector<Bucket> buckets_;
  std::vector<Index> order_;  // coordinate ids in bucket-major storage order
  util::AlignedVector<Index> indices_;
  util::AlignedVector<Value> values_;
  Index dim_ = 0;
};

}  // namespace tpa::sparse
