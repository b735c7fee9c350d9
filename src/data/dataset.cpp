#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "sparse/convert.hpp"
#include "util/thread_pool.hpp"

namespace tpa::data {
namespace {

// Below this the pool's spawn cost exceeds the precompute it would split.
constexpr sparse::Offset kParallelSetupNnz = 1u << 16;

}  // namespace

Dataset::Dataset(std::string name, sparse::CsrMatrix by_row,
                 std::vector<float> labels, DatasetLayout layout)
    : Dataset(std::move(name), std::move(by_row), std::move(labels), layout,
              RowBuffers{}) {}

Dataset::Dataset(std::string name, sparse::CsrMatrix by_row,
                 std::vector<float> labels, DatasetLayout layout,
                 RowBuffers reuse)
    : name_(std::move(name)),
      by_row_(std::move(by_row)),
      labels_(std::move(labels)),
      row_norms_(std::move(reuse.norms)),
      layout_(layout) {
  if (labels_.size() != by_row_.rows()) {
    throw std::invalid_argument("Dataset: labels count must equal rows");
  }
  if (layout_ == DatasetLayout::kCsrOnly) {
    // Keep the lent capacity for whichever build reuses this one next.
    bucketed_rows_ = std::move(reuse.bucketed);
    bucketed_rows_.clear();
    row_norms_.clear();
    return;
  }
  bucketed_rows_ =
      sparse::BucketedLayout::from_rows(by_row_, std::move(reuse.bucketed));
  row_norms_.resize(by_row_.rows());
  if (layout_ == DatasetLayout::kRowsOnly) {
    by_row_.row_squared_norms(row_norms_);
    return;
  }
  by_col_ = sparse::csr_to_csc(by_row_);
  bucketed_cols_ = sparse::BucketedLayout::from_cols(by_col_);
  if (by_row_.nnz() >= kParallelSetupNnz) {
    util::ThreadPool pool(std::min<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()), 8));
    by_row_.row_squared_norms(row_norms_, &pool);
    col_norms_ = by_col_.col_squared_norms(&pool);
  } else {
    by_row_.row_squared_norms(row_norms_);
    col_norms_ = by_col_.col_squared_norms();
  }
}

RowBuffers Dataset::release() && {
  RowBuffers buffers{
      sparse::LabeledMatrix{std::move(by_row_), std::move(labels_)},
      std::move(bucketed_rows_), std::move(row_norms_)};
  *this = Dataset();
  return buffers;
}

std::size_t Dataset::memory_bytes() const noexcept {
  return by_row_.memory_bytes() + labels_.size() * sizeof(float);
}

std::size_t Dataset::resident_bytes() const noexcept {
  return by_row_.memory_bytes() + by_col_.memory_bytes() +
         bucketed_rows_.memory_bytes() + bucketed_cols_.memory_bytes() +
         labels_.size() * sizeof(float) +
         (row_norms_.size() + col_norms_.size()) * sizeof(double);
}

}  // namespace tpa::data
