#include "store/streaming_dataset.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "store/format.hpp"

namespace tpa::store {

ResidentShard decode_shard(const StreamingDataset& source, std::size_t i,
                           data::DatasetLayout layout,
                           ResidentShard recycle) {
  data::RowBuffers buffers = std::move(recycle.dataset).release();
  sparse::LabeledMatrix slice =
      source.load_shard(i, std::move(buffers.rows));
  obs::TraceSpan decode("store/decode", obs::kCurrentThread,
                        static_cast<std::int64_t>(slice.matrix.nnz()));
  ResidentShard shard;
  shard.shard = i;
  shard.row_begin = source.shard_row_begin(i);
  // Rows-only: dual-formulation sweeps never touch the column orientation,
  // and skipping it roughly halves the resident bytes.
  shard.dataset = data::Dataset(
      source.name() + "/shard" + std::to_string(i), std::move(slice.matrix),
      std::move(slice.labels), layout, std::move(buffers));
  return shard;
}

StoreStreamingDataset::StoreStreamingDataset(ShardReader reader)
    : reader_(std::move(reader)) {}

const std::string& StoreStreamingDataset::name() const {
  return reader_.manifest().name;
}
std::size_t StoreStreamingDataset::num_shards() const {
  return reader_.num_shards();
}
std::uint64_t StoreStreamingDataset::rows() const {
  return reader_.manifest().rows;
}
std::uint64_t StoreStreamingDataset::cols() const {
  return reader_.manifest().cols;
}
std::uint64_t StoreStreamingDataset::nnz() const {
  return reader_.manifest().nnz;
}
std::uint64_t StoreStreamingDataset::shard_row_begin(std::size_t i) const {
  return reader_.manifest().shards.at(i).row_begin;
}
std::uint64_t StoreStreamingDataset::shard_rows(std::size_t i) const {
  return reader_.manifest().shards.at(i).rows;
}
sparse::LabeledMatrix StoreStreamingDataset::load_shard(
    std::size_t i, sparse::LabeledMatrix recycle) const {
  return reader_.read_shard(i, std::move(recycle));
}

MemoryShardedDataset::MemoryShardedDataset(std::string name,
                                           const sparse::LabeledMatrix& data,
                                           std::uint64_t requested_shards)
    : name_(std::move(name)), data_(&data) {
  rows_per_shard_ = rows_per_shard(data.matrix.rows(), requested_shards);
  num_shards_ = static_cast<std::size_t>(
      (data.matrix.rows() + rows_per_shard_ - 1) / rows_per_shard_);
}

std::uint64_t MemoryShardedDataset::shard_row_begin(std::size_t i) const {
  if (i >= num_shards_) throw std::out_of_range("shard index");
  return i * rows_per_shard_;
}

std::uint64_t MemoryShardedDataset::shard_rows(std::size_t i) const {
  const std::uint64_t begin = shard_row_begin(i);
  return std::min<std::uint64_t>(rows_per_shard_, rows() - begin);
}

sparse::LabeledMatrix MemoryShardedDataset::load_shard(
    std::size_t i, sparse::LabeledMatrix recycle) const {
  const auto begin = static_cast<sparse::Index>(shard_row_begin(i));
  const auto count = static_cast<sparse::Index>(shard_rows(i));
  const auto& matrix = data_->matrix;

  const auto all_offsets = matrix.row_offsets();
  const sparse::Offset first = all_offsets[begin];
  const sparse::Offset last = all_offsets[begin + count];

  sparse::CsrArrays arrays = std::move(recycle.matrix).release();
  arrays.row_offsets.resize(count + 1);
  for (sparse::Index r = 0; r <= count; ++r) {
    arrays.row_offsets[r] = all_offsets[begin + r] - first;
  }
  const auto indices = matrix.col_indices().subspan(first, last - first);
  const auto values = matrix.values().subspan(first, last - first);
  arrays.col_indices.assign(indices.begin(), indices.end());
  arrays.values.assign(values.begin(), values.end());
  recycle.labels.assign(data_->labels.begin() + begin,
                        data_->labels.begin() + begin + count);
  return sparse::LabeledMatrix{
      sparse::CsrMatrix(count, matrix.cols(), std::move(arrays.row_offsets),
                        std::move(arrays.col_indices),
                        std::move(arrays.values)),
      std::move(recycle.labels)};
}

}  // namespace tpa::store
