// Shard sources for out-of-core training.
//
// StreamingDataset is the one interface the prefetch pipeline and the
// streaming solver see: a dataset partitioned into contiguous row shards,
// loadable one shard at a time.  Two implementations:
//
//   StoreStreamingDataset  — shards come off disk through a ShardReader
//     (the real out-of-core path).
//   MemoryShardedDataset   — shards are row slices of an in-memory
//     LabeledMatrix, split with the same ceil rule the ShardWriter uses.
//     This is the comparison arm of the bit-exactness tests: both
//     implementations feed the identical solver code, so a streamed run
//     and its in-memory twin differ only in where the bytes come from.
//
// decode_shard turns a loaded slice into the solver-ready form: a
// rows-only data::Dataset (CSR + bucketed rows + row norms; no column
// orientation — dual-formulation streaming never needs one, and the
// column copy would double the resident budget per shard), or a CSR-only
// one for a pass that reads nothing else (the streamed gap).  Given a
// retired shard to recycle, the load and the decode fill its arrays in
// place, so a steady-state load touches no fresh pages.  Decode cost is
// recorded under a "store/decode" span; it is the work the prefetch
// pipeline hides behind the sweep of the previous shard.
#pragma once

#include <cstddef>
#include <string>

#include "data/dataset.hpp"
#include "store/shard_reader.hpp"

namespace tpa::store {

/// A shard resident in memory, ready to sweep: the decoded rows-only
/// Dataset plus its global row range.
struct ResidentShard {
  std::size_t shard = 0;        // shard index in the source
  std::uint64_t row_begin = 0;  // global row of the shard's first example
  data::Dataset dataset;        // rows [row_begin, row_begin + rows)
};

class StreamingDataset {
 public:
  virtual ~StreamingDataset() = default;

  virtual const std::string& name() const = 0;
  virtual std::size_t num_shards() const = 0;
  virtual std::uint64_t rows() const = 0;
  virtual std::uint64_t cols() const = 0;
  virtual std::uint64_t nnz() const = 0;
  virtual std::uint64_t shard_row_begin(std::size_t i) const = 0;
  virtual std::uint64_t shard_rows(std::size_t i) const = 0;

  /// Loads shard `i`'s raw slice into `recycle`'s arrays (their capacity
  /// is reused).  Must be thread-safe: the prefetch pipeline calls it from
  /// its worker while the solver sweeps.
  virtual sparse::LabeledMatrix load_shard(
      std::size_t i, sparse::LabeledMatrix recycle = {}) const = 0;
};

/// Loads and decodes shard `i` into sweep-ready form: a rows-only Dataset,
/// or CSR and labels only with `layout` kCsrOnly.  `recycle` is a retired
/// shard whose arrays the new one is built in.
ResidentShard decode_shard(
    const StreamingDataset& source, std::size_t i,
    data::DatasetLayout layout = data::DatasetLayout::kRowsOnly,
    ResidentShard recycle = {});

/// Disk-backed source: one shard per manifest entry via ShardReader.
class StoreStreamingDataset final : public StreamingDataset {
 public:
  explicit StoreStreamingDataset(ShardReader reader);

  const std::string& name() const override;
  std::size_t num_shards() const override;
  std::uint64_t rows() const override;
  std::uint64_t cols() const override;
  std::uint64_t nnz() const override;
  std::uint64_t shard_row_begin(std::size_t i) const override;
  std::uint64_t shard_rows(std::size_t i) const override;
  sparse::LabeledMatrix load_shard(
      std::size_t i, sparse::LabeledMatrix recycle = {}) const override;

  const ShardReader& reader() const noexcept { return reader_; }

 private:
  ShardReader reader_;
};

/// In-memory source: row slices of one LabeledMatrix, using the identical
/// ceil split rule as ShardWriter for `requested_shards` (so the shard
/// boundaries of a store written with write_store(..., k) and a
/// MemoryShardedDataset(..., k) always agree).  The caller keeps `data`
/// alive.
class MemoryShardedDataset final : public StreamingDataset {
 public:
  MemoryShardedDataset(std::string name, const sparse::LabeledMatrix& data,
                       std::uint64_t requested_shards);

  const std::string& name() const override { return name_; }
  std::size_t num_shards() const override { return num_shards_; }
  std::uint64_t rows() const override { return data_->matrix.rows(); }
  std::uint64_t cols() const override { return data_->matrix.cols(); }
  std::uint64_t nnz() const override { return data_->matrix.nnz(); }
  std::uint64_t shard_row_begin(std::size_t i) const override;
  std::uint64_t shard_rows(std::size_t i) const override;
  sparse::LabeledMatrix load_shard(
      std::size_t i, sparse::LabeledMatrix recycle = {}) const override;

 private:
  std::string name_;
  const sparse::LabeledMatrix* data_;
  std::uint64_t rows_per_shard_ = 1;
  std::size_t num_shards_ = 0;
};

}  // namespace tpa::store
