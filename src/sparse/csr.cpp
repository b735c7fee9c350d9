#include "sparse/csr.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace tpa::sparse {
namespace {

void validate_csr(Index rows, Index cols,
                  const std::vector<Offset>& row_offsets,
                  const std::vector<Index>& col_indices,
                  const std::vector<Value>& values) {
  if (row_offsets.size() != static_cast<std::size_t>(rows) + 1) {
    throw std::invalid_argument("CsrMatrix: row_offsets must have rows+1 entries");
  }
  if (col_indices.size() != values.size()) {
    throw std::invalid_argument("CsrMatrix: index/value length mismatch");
  }
  if (row_offsets.front() != 0 || row_offsets.back() != values.size()) {
    throw std::invalid_argument("CsrMatrix: offset range does not match nnz");
  }
  // All offsets first: once they are non-decreasing from 0 to nnz, every
  // row range below lies inside the index array.
  for (Index r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      throw std::invalid_argument("CsrMatrix: row_offsets must be non-decreasing");
    }
  }
  // Strictly increasing within a row plus the last index < cols bounds
  // every index.  Accumulating violations without branching keeps this
  // pass cheap on every shard load.
  bool out_of_range = false;
  bool unordered = false;
  for (Index r = 0; r < rows; ++r) {
    const Offset begin = row_offsets[r];
    const Offset end = row_offsets[r + 1];
    if (begin == end) continue;
    out_of_range |= col_indices[end - 1] >= cols;
    for (Offset k = begin + 1; k < end; ++k) {
      unordered |= col_indices[k] <= col_indices[k - 1];
    }
  }
  if (out_of_range) {
    throw std::invalid_argument("CsrMatrix: column index out of range");
  }
  if (unordered) {
    throw std::invalid_argument(
        "CsrMatrix: column indices within a row must strictly increase");
  }
}

}  // namespace

CsrMatrix::CsrMatrix(Index rows, Index cols, std::vector<Offset> row_offsets,
                     std::vector<Index> col_indices, std::vector<Value> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  validate_csr(rows_, cols_, row_offsets_, col_indices_, values_);
}

std::size_t CsrMatrix::row_nnz(Index r) const {
  return static_cast<std::size_t>(row_offsets_[r + 1] - row_offsets_[r]);
}

SparseVectorView CsrMatrix::row(Index r) const {
  const auto begin = static_cast<std::size_t>(row_offsets_[r]);
  const auto count = row_nnz(r);
  return SparseVectorView{
      std::span<const Index>(col_indices_).subspan(begin, count),
      std::span<const Value>(values_).subspan(begin, count)};
}

void CsrMatrix::row_squared_norms(std::span<double> norms,
                                  util::ThreadPool* pool) const {
  if (norms.size() != rows_) {
    throw std::invalid_argument("CsrMatrix: norms span must have rows entries");
  }
  const auto run_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double acc = 0.0;
      for (Offset k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
        const double v = values_[k];
        acc += v * v;
      }
      norms[r] = acc;
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for_chunks(norms.size(), run_rows);
  } else {
    run_rows(0, norms.size());
  }
}

Value CsrMatrix::at(Index r, Index c) const {
  const auto view = row(r);
  const auto it = std::lower_bound(view.indices.begin(), view.indices.end(), c);
  if (it == view.indices.end() || *it != c) return 0.0F;
  const auto pos = static_cast<std::size_t>(it - view.indices.begin());
  return view.values[pos];
}

std::size_t CsrMatrix::memory_bytes() const noexcept {
  return row_offsets_.size() * sizeof(Offset) +
         col_indices_.size() * sizeof(Index) + values_.size() * sizeof(Value);
}

CsrArrays CsrMatrix::release() && {
  CsrArrays arrays{std::move(row_offsets_), std::move(col_indices_),
                   std::move(values_)};
  rows_ = 0;
  cols_ = 0;
  row_offsets_.assign(1, 0);
  col_indices_.clear();
  values_.clear();
  return arrays;
}

}  // namespace tpa::sparse
