// COO builder, CSR and CSC construction/validation/access.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <stdexcept>
#include <vector>

#include "sparse/bucketed.hpp"
#include "sparse/coo.hpp"
#include "sparse/convert.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace tpa::sparse {
namespace {

TEST(CooBuilder, TracksDimensionsAndEntries) {
  CooBuilder coo(3, 4);
  EXPECT_EQ(coo.rows(), 3u);
  EXPECT_EQ(coo.cols(), 4u);
  EXPECT_EQ(coo.nnz(), 0u);
  coo.add(0, 1, 2.0F);
  coo.add(2, 3, -1.0F);
  EXPECT_EQ(coo.nnz(), 2u);
}

TEST(CooBuilder, CoalesceSortsAndSumsDuplicates) {
  CooBuilder coo(2, 2);
  coo.add(1, 1, 1.0F);
  coo.add(0, 0, 2.0F);
  coo.add(1, 1, 3.0F);
  coo.coalesce();
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0F}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 1, 4.0F}));
}

TEST(CooBuilder, CoalesceDropsCancellations) {
  CooBuilder coo(1, 1);
  coo.add(0, 0, 1.0F);
  coo.add(0, 0, -1.0F);
  coo.coalesce();
  EXPECT_EQ(coo.nnz(), 0u);
}

TEST(CooBuilder, ClearKeepsDimensions) {
  CooBuilder coo(2, 3);
  coo.add(0, 0, 1.0F);
  coo.clear();
  EXPECT_EQ(coo.nnz(), 0u);
  EXPECT_EQ(coo.rows(), 2u);
}

CsrMatrix small_csr() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 0 3 4 ]
  return CsrMatrix(3, 3, {0, 2, 2, 4}, {0, 2, 1, 2},
                   {1.0F, 2.0F, 3.0F, 4.0F});
}

TEST(CsrMatrix, BasicAccessors) {
  const auto m = small_csr();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_nnz(1), 0u);
  EXPECT_EQ(m.row_nnz(2), 2u);
}

TEST(CsrMatrix, RowViews) {
  const auto m = small_csr();
  const auto row0 = m.row(0);
  ASSERT_EQ(row0.nnz(), 2u);
  EXPECT_EQ(row0.indices[0], 0u);
  EXPECT_EQ(row0.indices[1], 2u);
  EXPECT_EQ(row0.values[0], 1.0F);
  EXPECT_EQ(row0.values[1], 2.0F);
  EXPECT_EQ(m.row(1).nnz(), 0u);
}

TEST(CsrMatrix, PointLookup) {
  const auto m = small_csr();
  EXPECT_EQ(m.at(0, 0), 1.0F);
  EXPECT_EQ(m.at(0, 1), 0.0F);
  EXPECT_EQ(m.at(0, 2), 2.0F);
  EXPECT_EQ(m.at(1, 1), 0.0F);
  EXPECT_EQ(m.at(2, 2), 4.0F);
}

TEST(CsrMatrix, RowSquaredNorms) {
  std::vector<double> norms(3);
  small_csr().row_squared_norms(norms);
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);
  EXPECT_DOUBLE_EQ(norms[2], 25.0);
}

TEST(CsrMatrix, DefaultIsEmpty) {
  const CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(CsrMatrix, RejectsWrongOffsetCount) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0F}), std::invalid_argument);
}

TEST(CsrMatrix, RejectsIndexValueMismatch) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 2}, {0, 1}, {1.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsOffsetNnzMismatch) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {0, 1}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsDecreasingOffsets) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsColumnOutOfRange) {
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {2}, {1.0F}), std::invalid_argument);
}

TEST(CsrMatrix, RejectsUnsortedColumnsWithinRow) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, RejectsDuplicateColumnsWithinRow) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CsrMatrix, MemoryBytesCountsAllArrays) {
  const auto m = small_csr();
  EXPECT_EQ(m.memory_bytes(),
            4 * sizeof(Offset) + 4 * sizeof(Index) + 4 * sizeof(Value));
}

CscMatrix small_csc() {
  // Same logical matrix as small_csr().
  return csr_to_csc(small_csr());
}

TEST(CscMatrix, BasicAccessors) {
  const auto m = small_csc();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.col_nnz(0), 1u);
  EXPECT_EQ(m.col_nnz(1), 1u);
  EXPECT_EQ(m.col_nnz(2), 2u);
}

TEST(CscMatrix, ColumnViewsAndLookup) {
  const auto m = small_csc();
  const auto col2 = m.col(2);
  ASSERT_EQ(col2.nnz(), 2u);
  EXPECT_EQ(col2.indices[0], 0u);
  EXPECT_EQ(col2.indices[1], 2u);
  EXPECT_EQ(col2.values[0], 2.0F);
  EXPECT_EQ(col2.values[1], 4.0F);
  EXPECT_EQ(m.at(2, 1), 3.0F);
  EXPECT_EQ(m.at(1, 1), 0.0F);
}

TEST(CscMatrix, ColSquaredNorms) {
  const auto norms = small_csc().col_squared_norms();
  ASSERT_EQ(norms.size(), 3u);
  EXPECT_DOUBLE_EQ(norms[0], 1.0);
  EXPECT_DOUBLE_EQ(norms[1], 9.0);
  EXPECT_DOUBLE_EQ(norms[2], 20.0);
}

TEST(CscMatrix, RejectsUnsortedRowsWithinColumn) {
  EXPECT_THROW(CscMatrix(3, 1, {0, 2}, {2, 0}, {1.0F, 2.0F}),
               std::invalid_argument);
}

TEST(CscMatrix, RejectsRowOutOfRange) {
  EXPECT_THROW(CscMatrix(2, 1, {0, 1}, {5}, {1.0F}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Bucketed coordinate layout: padded/unpadded round trips against the source
// matrix, nnz-class invariants, and the 64-byte alignment of bucket starts.

CsrMatrix ragged_csr() {
  // Row nnz spans several classes: 0 (empty), 1..8 (class 8), 9..16
  // (class 16), and 17+ (class 32), so multiple buckets form.
  util::Rng rng(99);
  CooBuilder coo(40, 64);
  const std::size_t row_nnz[] = {0, 1, 3, 8, 9, 12, 16, 17, 25, 31};
  for (Index r = 0; r < 40; ++r) {
    const std::size_t nnz = row_nnz[r % 10];
    Index c = static_cast<Index>(r % 3);
    for (std::size_t k = 0; k < nnz; ++k) {
      coo.add(r, c, static_cast<float>(rng.normal()));
      c += 1 + static_cast<Index>(rng.uniform() * 2.0);
    }
  }
  return coo_to_csr(coo);
}

TEST(BucketedLayout, UnpaddedRoundTripsSourceRows) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  ASSERT_EQ(layout.count(), csr.rows());
  EXPECT_EQ(layout.dim(), csr.cols());
  for (Index r = 0; r < csr.rows(); ++r) {
    const auto source = csr.row(r);
    const auto view = layout.unpadded(r);
    ASSERT_EQ(view.nnz(), source.nnz()) << "row " << r;
    for (std::size_t k = 0; k < source.nnz(); ++k) {
      EXPECT_EQ(view.indices[k], source.indices[k]);
      EXPECT_EQ(view.values[k], source.values[k]);
    }
  }
}

TEST(BucketedLayout, PaddedViewsRepeatLastIndexWithZeroValue) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  std::size_t padded_total = 0;
  for (Index r = 0; r < csr.rows(); ++r) {
    const auto source = csr.row(r);
    const auto padded = layout.padded(r);
    EXPECT_EQ(layout.nnz_of(r), source.nnz());
    EXPECT_EQ(padded.nnz(), layout.width_of(r));
    padded_total += padded.nnz();
    if (source.nnz() == 0) {
      EXPECT_EQ(layout.width_of(r), 0u) << "empty rows stay empty";
      continue;
    }
    EXPECT_EQ(layout.width_of(r) % 8, 0u);
    EXPECT_GE(layout.width_of(r), source.nnz());
    EXPECT_LT(layout.width_of(r), source.nnz() + 8);
    for (std::size_t k = 0; k < padded.nnz(); ++k) {
      if (k < source.nnz()) {
        EXPECT_EQ(padded.indices[k], source.indices[k]);
        EXPECT_EQ(padded.values[k], source.values[k]);
      } else {
        EXPECT_EQ(padded.indices[k], source.indices[source.nnz() - 1]);
        EXPECT_EQ(padded.values[k], 0.0F);
      }
    }
  }
  EXPECT_EQ(layout.padded_nnz(), padded_total);
  EXPECT_GE(layout.padded_nnz(), csr.nnz());
}

TEST(BucketedLayout, BucketsPartitionCoordinatesByNnzClass) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  ASSERT_GE(layout.num_buckets(), 3);
  std::vector<bool> seen(static_cast<std::size_t>(layout.count()), false);
  std::size_t prev_class = 0;
  for (int b = 0; b < layout.num_buckets(); ++b) {
    const std::size_t cls = layout.bucket_class(b);
    EXPECT_GE(cls, 8u);
    EXPECT_EQ(cls & (cls - 1), 0u) << "classes are powers of two";
    EXPECT_GT(cls, prev_class) << "buckets ordered by ascending class";
    prev_class = cls;
    for (const Index j : layout.bucket_coords(b)) {
      EXPECT_FALSE(seen[j]) << "coordinate in two buckets";
      seen[j] = true;
      const std::size_t nnz = layout.nnz_of(j);
      EXPECT_LE(nnz, cls);
      EXPECT_TRUE(cls == 8 || nnz > cls / 2)
          << "row " << j << " nnz " << nnz << " in class " << cls;
    }
  }
  // Every coordinate lives in exactly one bucket (empty coordinates join
  // the minimum class with width 0, keeping the id space total).
  for (Index j = 0; j < layout.count(); ++j) {
    EXPECT_TRUE(seen[j]) << "row " << j;
  }
}

TEST(BucketedLayout, BucketStartsAre64ByteAligned) {
  const auto csr = ragged_csr();
  const auto layout = BucketedLayout::from_rows(csr);
  for (int b = 0; b < layout.num_buckets(); ++b) {
    const auto coords = layout.bucket_coords(b);
    ASSERT_FALSE(coords.empty());
    const auto first = layout.padded(coords.front());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first.indices.data()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first.values.data()) % 64, 0u);
  }
}

TEST(BucketedLayout, FromColsMatchesCscColumns) {
  const auto csr = ragged_csr();
  const auto csc = csr_to_csc(csr);
  const auto layout = BucketedLayout::from_cols(csc);
  ASSERT_EQ(layout.count(), csc.cols());
  EXPECT_EQ(layout.dim(), csc.rows());
  for (Index c = 0; c < csc.cols(); ++c) {
    const auto source = csc.col(c);
    const auto view = layout.unpadded(c);
    ASSERT_EQ(view.nnz(), source.nnz()) << "col " << c;
    for (std::size_t k = 0; k < source.nnz(); ++k) {
      EXPECT_EQ(view.indices[k], source.indices[k]);
      EXPECT_EQ(view.values[k], source.values[k]);
    }
  }
}

// Reference layout: the stable sort by nnz class the counting pass
// replaced, with its zero-filled arrays.  Slices come from `slice(j)`.
struct ReferenceLayout {
  std::vector<Index> order;
  std::vector<std::size_t> bucket_class, bucket_begin, bucket_count;
  std::vector<std::size_t> offset, nnz, width;
  std::vector<Index> indices;
  std::vector<Value> values;
};

template <typename SliceFn>
ReferenceLayout reference_layout(Index count, const SliceFn& slice) {
  const auto cls = [](std::size_t n) {
    std::size_t c = 8;
    while (c < n) c *= 2;
    return c;
  };
  ReferenceLayout ref;
  ref.order.resize(count);
  for (Index j = 0; j < count; ++j) ref.order[j] = j;
  std::stable_sort(ref.order.begin(), ref.order.end(), [&](Index a, Index b) {
    return cls(slice(a).nnz()) < cls(slice(b).nnz());
  });
  ref.offset.resize(count);
  ref.nnz.resize(count);
  ref.width.resize(count);
  std::size_t offset = 0;
  for (std::size_t at = 0; at < ref.order.size(); ++at) {
    const std::size_t c = cls(slice(ref.order[at]).nnz());
    if (at == 0 || c != ref.bucket_class.back()) {
      offset = (offset + 15) / 16 * 16;
      ref.bucket_class.push_back(c);
      ref.bucket_begin.push_back(at);
      ref.bucket_count.push_back(0);
    }
    ++ref.bucket_count.back();
    const Index j = ref.order[at];
    ref.nnz[j] = slice(j).nnz();
    ref.width[j] = ref.nnz[j] == 0 ? 0 : (ref.nnz[j] + 7) / 8 * 8;
    ref.offset[j] = offset;
    offset += ref.width[j];
  }
  ref.indices.assign(offset, 0);
  ref.values.assign(offset, 0.0F);
  for (Index j = 0; j < count; ++j) {
    const auto view = slice(j);
    for (std::size_t k = 0; k < ref.width[j]; ++k) {
      ref.indices[ref.offset[j] + k] =
          k < view.nnz() ? view.indices[k] : view.indices.back();
      ref.values[ref.offset[j] + k] = k < view.nnz() ? view.values[k] : 0.0F;
    }
  }
  return ref;
}

void expect_matches(const BucketedLayout& layout, const ReferenceLayout& ref) {
  ASSERT_EQ(static_cast<std::size_t>(layout.num_buckets()),
            ref.bucket_class.size());
  std::vector<Index> order;
  for (int b = 0; b < layout.num_buckets(); ++b) {
    EXPECT_EQ(layout.bucket_class(b), ref.bucket_class[b]) << "bucket " << b;
    EXPECT_EQ(order.size(), ref.bucket_begin[b]) << "bucket " << b;
    EXPECT_EQ(layout.bucket_coords(b).size(), ref.bucket_count[b]);
    for (const Index j : layout.bucket_coords(b)) order.push_back(j);
  }
  EXPECT_EQ(order, ref.order);
  const auto storage = layout.storage_indices();
  for (Index j = 0; j < layout.count(); ++j) {
    EXPECT_EQ(layout.nnz_of(j), ref.nnz[j]) << "coordinate " << j;
    EXPECT_EQ(layout.width_of(j), ref.width[j]) << "coordinate " << j;
    EXPECT_EQ(static_cast<std::size_t>(layout.padded(j).indices.data() -
                                       storage.data()),
              ref.offset[j])
        << "coordinate " << j;
  }
  EXPECT_EQ(std::vector<Index>(storage.begin(), storage.end()), ref.indices);
  const auto values = layout.storage_values();
  EXPECT_EQ(std::vector<Value>(values.begin(), values.end()), ref.values);
}

// Random rows whose nnz mix every class from empty to 256, over columns
// some of which stay empty.
CsrMatrix mixed_class_csr(std::uint64_t seed, Index rows) {
  util::Rng rng(seed);
  const Index cols = 400;
  CooBuilder coo(rows, cols);
  const std::size_t caps[] = {0, 8, 16, 40, 130, 256};
  for (Index r = 0; r < rows; ++r) {
    const std::size_t cap = caps[rng.uniform_index(std::size(caps))];
    const std::size_t nnz = cap == 0 ? 0 : 1 + rng.uniform_index(cap);
    for (std::size_t k = 0; k < nnz; ++k) {
      // Columns >= 300 are never drawn: empty columns for from_cols.
      coo.add(r, static_cast<Index>(rng.uniform_index(300)),
              static_cast<float>(rng.normal()));
    }
  }
  coo.coalesce();
  return coo_to_csr(coo);
}

TEST(BucketedLayout, CountingPassEqualsReferenceStableSort) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto csr = mixed_class_csr(seed, 200 + 37 * static_cast<Index>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches(BucketedLayout::from_rows(csr),
                   reference_layout(csr.rows(),
                                    [&](Index j) { return csr.row(j); }));
    const auto csc = csr_to_csc(csr);
    expect_matches(BucketedLayout::from_cols(csc),
                   reference_layout(csc.cols(),
                                    [&](Index j) { return csc.col(j); }));
  }
}

TEST(BucketedLayout, ReusedStorageBuildsTheSameLayout) {
  // A bigger matrix's layout lends its (now stale) storage to a smaller,
  // differently shaped one, and back: every entry, gaps included, must be
  // what a fresh build writes.
  const auto big = mixed_class_csr(11, 300);
  const auto small = mixed_class_csr(12, 120);
  auto layout = BucketedLayout::from_rows(big);
  const Index* storage = layout.storage_indices().data();
  layout = BucketedLayout::from_rows(small, std::move(layout));
  EXPECT_EQ(layout.storage_indices().data(), storage) << "capacity reused";
  expect_matches(layout, reference_layout(small.rows(), [&](Index j) {
                   return small.row(j);
                 }));
  layout = BucketedLayout::from_rows(big, std::move(layout));
  expect_matches(layout, reference_layout(big.rows(), [&](Index j) {
                   return big.row(j);
                 }));
  layout.clear();
  EXPECT_TRUE(layout.empty());
  EXPECT_EQ(layout.padded_nnz(), 0u);
}

}  // namespace
}  // namespace tpa::sparse
