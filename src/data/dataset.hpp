// A training dataset as the solvers consume it: the same matrix in both
// compressed orientations (rows for dual / by-example access, columns for
// primal / by-feature access), the label vector, and cached squared norms.
//
// A Dataset also carries optional *paper-scale* statistics: the N, M and nnz
// of the real dataset a generator stands in for (webspam, criteo).  The
// timing models evaluate simulated runtimes at paper scale while convergence
// runs on the scaled matrix — see DESIGN.md §5.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sparse/bucketed.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/io_svmlight.hpp"

namespace tpa::data {

using sparse::Index;
using sparse::Offset;

/// Statistics of the full-size dataset that a scaled generator emulates.
struct PaperScale {
  std::string name;           // e.g. "webspam"
  std::uint64_t examples = 0;
  std::uint64_t features = 0;
  std::uint64_t nnz = 0;
};

/// Which derived orientations a Dataset materialises.  kFull builds both
/// orientations (every solver works).  kRowsOnly skips the column-oriented
/// copy, its bucketed layout and the column norms — the layout the
/// out-of-core store uses for its resident shards, where only dual
/// (by-example) access exists and the column copy would inflate the
/// per-shard memory budget ~2x.  kCsrOnly keeps just the CSR rows and the
/// labels (no bucketed layout, no norms): what the out-of-core gap pass
/// reads.  Paths that need a skipped part (by_col, bucketed_cols,
/// col_squared_norms on rows-only; bucketed_rows and row_squared_norms as
/// well on CSR-only) must not be used: they return empty views.
enum class DatasetLayout { kFull, kRowsOnly, kCsrOnly };

/// The heap arrays of a retired Dataset's row side, handed to the next
/// build so it reuses their capacity instead of faulting in fresh pages
/// (the out-of-core prefetch pipeline recycles shards this way).
struct RowBuffers {
  sparse::LabeledMatrix rows;  // CSR arrays and labels
  sparse::BucketedLayout bucketed;
  std::vector<double> norms;
};

class Dataset {
 public:
  Dataset() = default;

  /// Builds from a row-oriented matrix and labels (one per row); the
  /// column-oriented copy is derived only for kFull.  Throws
  /// std::invalid_argument on a label count mismatch.  Only kFull uses a
  /// thread pool for the norms: a rows-only build is one out-of-core
  /// shard, too small to pay for spawning a pool per load.
  Dataset(std::string name, sparse::CsrMatrix by_row,
          std::vector<float> labels,
          DatasetLayout layout = DatasetLayout::kFull);
  /// Same, building the row-side derived arrays (bucketed layout, norms)
  /// into `reuse`'s capacity; `reuse.rows` is not read (it is meant to
  /// have been spent on `by_row` and `labels` already).
  Dataset(std::string name, sparse::CsrMatrix by_row,
          std::vector<float> labels, DatasetLayout layout, RowBuffers reuse);

  /// Moves the row-side arrays out for reuse, leaving an empty Dataset.
  RowBuffers release() &&;

  const std::string& name() const noexcept { return name_; }

  Index num_examples() const noexcept { return by_row_.rows(); }
  Index num_features() const noexcept { return by_row_.cols(); }
  Offset nnz() const noexcept { return by_row_.nnz(); }

  const sparse::CsrMatrix& by_row() const noexcept { return by_row_; }
  const sparse::CscMatrix& by_col() const noexcept { return by_col_; }
  std::span<const float> labels() const noexcept { return labels_; }

  /// Bucketed (aligned, padded, nnz-class-grouped) copies of the two
  /// orientations — the layout the solver hot paths consume (DESIGN.md §9).
  const sparse::BucketedLayout& bucketed_rows() const noexcept {
    return bucketed_rows_;
  }
  const sparse::BucketedLayout& bucketed_cols() const noexcept {
    return bucketed_cols_;
  }

  /// ||ā_n||² for every example row (dual updates).
  std::span<const double> row_squared_norms() const noexcept {
    return row_norms_;
  }
  /// ||a_m||² for every feature column (primal updates).
  std::span<const double> col_squared_norms() const noexcept {
    return col_norms_;
  }

  const std::optional<PaperScale>& paper_scale() const noexcept {
    return paper_scale_;
  }
  void set_paper_scale(PaperScale scale) { paper_scale_ = std::move(scale); }

  DatasetLayout layout() const noexcept { return layout_; }

  /// Combined CSR+labels bytes (the footprint a GPU worker would hold).
  std::size_t memory_bytes() const noexcept;

  /// Bytes this Dataset actually holds resident: both orientations, the
  /// bucketed layouts, labels and norms.  The out-of-core budget accounting
  /// charges shards at this figure, not at raw CSR size.
  std::size_t resident_bytes() const noexcept;

 private:
  std::string name_;
  sparse::CsrMatrix by_row_;
  sparse::CscMatrix by_col_;
  sparse::BucketedLayout bucketed_rows_;
  sparse::BucketedLayout bucketed_cols_;
  std::vector<float> labels_;
  std::vector<double> row_norms_;
  std::vector<double> col_norms_;
  std::optional<PaperScale> paper_scale_;
  DatasetLayout layout_ = DatasetLayout::kFull;
};

}  // namespace tpa::data
