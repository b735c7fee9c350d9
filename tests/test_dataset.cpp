// Dataset invariants: CSR/CSC views agree, cached norms are exact, paper
// scale metadata flows through.
#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "sparse/convert.hpp"

namespace tpa::data {
namespace {

Dataset small_dataset() {
  sparse::CsrMatrix matrix(3, 3, {0, 2, 2, 4}, {0, 2, 1, 2},
                           {1.0F, 2.0F, 3.0F, 4.0F});
  return Dataset("tiny", std::move(matrix), {1.0F, 0.0F, -1.0F});
}

TEST(Dataset, DimensionsAndAccess) {
  const auto dataset = small_dataset();
  EXPECT_EQ(dataset.num_examples(), 3u);
  EXPECT_EQ(dataset.num_features(), 3u);
  EXPECT_EQ(dataset.nnz(), 4u);
  EXPECT_EQ(dataset.name(), "tiny");
  ASSERT_EQ(dataset.labels().size(), 3u);
  EXPECT_EQ(dataset.labels()[2], -1.0F);
}

TEST(Dataset, RowAndColumnViewsAgree) {
  const auto dataset = small_dataset();
  for (Index r = 0; r < dataset.num_examples(); ++r) {
    for (Index c = 0; c < dataset.num_features(); ++c) {
      EXPECT_EQ(dataset.by_row().at(r, c), dataset.by_col().at(r, c));
    }
  }
}

TEST(Dataset, CachedNormsMatchMatrices) {
  const auto dataset = small_dataset();
  std::vector<double> row_norms(dataset.num_examples());
  dataset.by_row().row_squared_norms(row_norms);
  const auto col_norms = dataset.by_col().col_squared_norms();
  for (Index r = 0; r < dataset.num_examples(); ++r) {
    EXPECT_DOUBLE_EQ(dataset.row_squared_norms()[r], row_norms[r]);
  }
  for (Index c = 0; c < dataset.num_features(); ++c) {
    EXPECT_DOUBLE_EQ(dataset.col_squared_norms()[c], col_norms[c]);
  }
}

TEST(Dataset, RejectsLabelCountMismatch) {
  sparse::CsrMatrix matrix(2, 2, {0, 0, 0}, {}, {});
  EXPECT_THROW(Dataset("bad", std::move(matrix), {1.0F}),
               std::invalid_argument);
}

TEST(Dataset, PaperScaleIsOptionalAndSettable) {
  auto dataset = small_dataset();
  EXPECT_FALSE(dataset.paper_scale().has_value());
  dataset.set_paper_scale(PaperScale{"webspam", 10, 20, 30});
  ASSERT_TRUE(dataset.paper_scale().has_value());
  EXPECT_EQ(dataset.paper_scale()->name, "webspam");
  EXPECT_EQ(dataset.paper_scale()->nnz, 30u);
}

TEST(Dataset, MemoryBytesIncludesLabels) {
  const auto dataset = small_dataset();
  EXPECT_EQ(dataset.memory_bytes(),
            dataset.by_row().memory_bytes() + 3 * sizeof(float));
}

}  // namespace
}  // namespace tpa::data
