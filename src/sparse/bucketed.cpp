#include "sparse/bucketed.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace tpa::sparse {
namespace {

// 64 bytes of 4-byte entries: bucket starts are rounded to this so both the
// index and value slices of a bucket begin on a cache line.
constexpr std::size_t kAlignEntries = 16;

// Classes are powers of two from 8 up; class index c holds nnz in
// (4 << c, 8 << c], with empty and nnz <= 8 coordinates in class 0.
constexpr std::size_t kMaxClasses = 64;

std::size_t class_index(std::size_t nnz) {
  return nnz <= 8 ? 0 : static_cast<std::size_t>(std::bit_width(nnz - 1)) - 3;
}

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

}  // namespace

template <typename SliceFn>
BucketedLayout BucketedLayout::build(Index count, Index dim,
                                     const SliceFn& slice,
                                     BucketedLayout layout) {
  layout.dim_ = dim;
  layout.slots_.resize(count);
  layout.buckets_.clear();

  // Bucket-major order: ascending nnz class, ties by coordinate id.  One
  // counting pass over the classes places every id; walking ids in
  // ascending order keeps them ascending within a bucket (what a stable
  // sort on the class would give).
  std::array<std::size_t, kMaxClasses> next{};
  for (Index j = 0; j < count; ++j) {
    const std::size_t nnz = slice(j).nnz();
    layout.slots_[j].nnz = static_cast<std::uint32_t>(nnz);
    ++next[class_index(nnz)];
  }
  std::size_t begin = 0;
  for (std::size_t c = 0; c < kMaxClasses; ++c) {
    const std::size_t in_class = next[c];
    next[c] = begin;
    if (in_class > 0) {
      layout.buckets_.push_back(Bucket{std::size_t{8} << c, begin, in_class});
    }
    begin += in_class;
  }
  layout.order_.resize(count);
  for (Index j = 0; j < count; ++j) {
    layout.order_[next[class_index(layout.slots_[j].nnz)]++] = j;
  }

  // Lay out slots bucket by bucket: each bucket starts on a cache line, each
  // slot is padded to a multiple of 8 entries (empty coordinates get width
  // 0 so their views stay empty, exactly like the source matrix's).
  std::size_t offset = 0;
  for (const Bucket& bucket : layout.buckets_) {
    offset = round_up(offset, kAlignEntries);
    for (std::size_t at = bucket.begin; at < bucket.begin + bucket.count;
         ++at) {
      Slot& slot = layout.slots_[layout.order_[at]];
      slot.offset = offset;
      slot.width = slot.nnz == 0 ? 0 : static_cast<std::uint32_t>(
                                           round_up(slot.nnz, 8));
      offset += slot.width;
    }
  }

  // Fill in storage order.  Every entry is written — alignment gaps as
  // index 0 / value 0 — so storage reused from an older layout carries
  // nothing stale.  Padding repeats the last real index with value 0 so
  // padded entries stay within the coordinate's own touched set (no
  // cross-coordinate aliasing in scatter) and contribute exactly zero to
  // reductions.
  layout.indices_.resize(offset);
  layout.values_.resize(offset);
  std::size_t cursor = 0;
  for (const Index j : layout.order_) {
    const Slot& slot = layout.slots_[j];
    Index* indices = layout.indices_.data() + slot.offset;
    Value* values = layout.values_.data() + slot.offset;
    std::fill(layout.indices_.data() + cursor, indices, Index{0});
    std::fill(layout.values_.data() + cursor, values, 0.0F);
    const SparseVectorView view = slice(j);
    std::copy(view.indices.begin(), view.indices.end(), indices);
    std::copy(view.values.begin(), view.values.end(), values);
    if (slot.nnz > 0) {
      std::fill(indices + slot.nnz, indices + slot.width, view.indices.back());
      std::fill(values + slot.nnz, values + slot.width, 0.0F);
    }
    cursor = slot.offset + slot.width;
  }
  return layout;
}

void BucketedLayout::clear() noexcept {
  slots_.clear();
  buckets_.clear();
  order_.clear();
  indices_.clear();
  values_.clear();
  dim_ = 0;
}

BucketedLayout BucketedLayout::from_rows(const CsrMatrix& m,
                                         BucketedLayout reuse) {
  return build(m.rows(), m.cols(), [&](Index j) { return m.row(j); },
               std::move(reuse));
}

BucketedLayout BucketedLayout::from_cols(const CscMatrix& m) {
  return build(m.cols(), m.rows(), [&](Index j) { return m.col(j); },
               BucketedLayout{});
}

}  // namespace tpa::sparse
