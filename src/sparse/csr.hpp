// Compressed sparse row matrix.
//
// CSR gives O(1) access to a training example's feature vector (a row ā_n of
// A) and is the layout the paper uses on the GPU when solving the dual
// formulation of ridge regression.
#pragma once

#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace tpa::util {
class ThreadPool;
}

namespace tpa::sparse {

/// Immutable view of one sparse vector: parallel index / value spans.
struct SparseVectorView {
  std::span<const Index> indices;
  std::span<const Value> values;

  std::size_t nnz() const noexcept { return indices.size(); }
};

/// The three raw CSR arrays, as release() hands them back.  Decoders that
/// rebuild a matrix of similar shape (the out-of-core shard loads) refill
/// these in place, so a steady-state load reuses their capacity.
struct CsrArrays {
  std::vector<Offset> row_offsets;
  std::vector<Index> col_indices;
  std::vector<Value> values;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of raw CSR arrays.  `row_offsets` has rows+1 entries,
  /// monotonically non-decreasing, with row_offsets.back() == nnz.  Column
  /// indices within a row must be strictly increasing and < cols.
  /// Violations throw std::invalid_argument.
  CsrMatrix(Index rows, Index cols, std::vector<Offset> row_offsets,
            std::vector<Index> col_indices, std::vector<Value> values);

  Index rows() const noexcept { return rows_; }
  Index cols() const noexcept { return cols_; }
  Offset nnz() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  std::span<const Offset> row_offsets() const noexcept { return row_offsets_; }
  std::span<const Index> col_indices() const noexcept { return col_indices_; }
  std::span<const Value> values() const noexcept { return values_; }

  /// Number of stored entries in row r.
  std::size_t row_nnz(Index r) const;

  /// View of row r's indices and values.
  SparseVectorView row(Index r) const;

  /// Squared L2 norm of every row, accumulated in double, into `out`
  /// (rows() entries, so a caller that rebuilds often reuses its buffer):
  /// ||ā_n||².  Rows are independent, so a non-null `pool` computes them in
  /// contiguous chunks — identical results, and the one-time precompute
  /// stops dominating small-epoch runs on wide datasets.
  void row_squared_norms(std::span<double> out,
                         util::ThreadPool* pool = nullptr) const;

  /// Dense value lookup (binary search within the row); 0 if absent.
  Value at(Index r, Index c) const;

  /// Estimated memory footprint in bytes (offsets + indices + values).
  std::size_t memory_bytes() const noexcept;

  /// Moves the arrays out, leaving an empty 0 x 0 matrix.
  CsrArrays release() &&;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Offset> row_offsets_{0};
  std::vector<Index> col_indices_;
  std::vector<Value> values_;
};

}  // namespace tpa::sparse
