#include <gtest/gtest.h>

#include "tensor/kv_cache.h"
#include "tensor/tensor.h"

namespace cachegen {
namespace {

TEST(Tensor, ShapeAndIndexing) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  t.At(1, 2) = 7.5f;
  EXPECT_FLOAT_EQ(t.At(1, 2), 7.5f);
  EXPECT_FLOAT_EQ(t.At(0, 0), 0.0f);
}

TEST(Tensor, ConstructFromData) {
  Tensor t(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(t.At(1, 0), 3.0f);
  EXPECT_THROW(Tensor(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, RowSpan) {
  Tensor t(2, 3, {1, 2, 3, 4, 5, 6});
  const auto row = t.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_FLOAT_EQ(row[0], 4.0f);
  EXPECT_FLOAT_EQ(row[2], 6.0f);
}

TEST(Tensor, SliceRows) {
  Tensor t(4, 2, {0, 1, 2, 3, 4, 5, 6, 7});
  const Tensor s = t.SliceRows(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_FLOAT_EQ(s.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.At(1, 1), 5.0f);
  EXPECT_THROW(t.SliceRows(3, 2), std::out_of_range);
  EXPECT_THROW(t.SliceRows(0, 5), std::out_of_range);
}

TEST(Tensor, ReshapeKeepsAllocation) {
  Tensor t(4, 3, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const float* data = t.Data().data();
  t.Reshape(2, 2);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.Data().data(), data);
  EXPECT_FLOAT_EQ(t.At(1, 1), 3.0f);  // flat positions are kept
  t.Reshape(3, 4);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.Data().data(), data);
  EXPECT_FLOAT_EQ(t.At(0, 3), 3.0f);
  EXPECT_FLOAT_EQ(t.At(1, 0), 0.0f);  // past the size it was reshaped from
  Tensor empty;
  empty.Reshape(2, 3);
  EXPECT_EQ(empty.size(), 6u);
  EXPECT_FLOAT_EQ(empty.At(1, 2), 0.0f);
}

TEST(Tensor, Mse) {
  Tensor a(1, 2, {0, 0});
  Tensor b(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(a.Mse(b), (9.0 + 16.0) / 2.0);
  Tensor c(2, 1);
  EXPECT_THROW(a.Mse(c), std::invalid_argument);
}

TEST(Tensor, MeanAbs) {
  Tensor a(1, 4, {-1, 2, -3, 4});
  EXPECT_DOUBLE_EQ(a.MeanAbs(), 2.5);
  EXPECT_DOUBLE_EQ(Tensor().MeanAbs(), 0.0);
}

TEST(KVCache, Geometry) {
  KVCache cache(4, 10, 8);
  EXPECT_EQ(cache.num_layers(), 4u);
  EXPECT_EQ(cache.num_tokens(), 10u);
  EXPECT_EQ(cache.num_channels(), 8u);
  EXPECT_EQ(cache.TotalElements(), 2u * 4 * 10 * 8);
}

TEST(KVCache, SliceTokensPreservesLayers) {
  KVCache cache(2, 6, 3);
  cache.layer(1).k.At(4, 2) = 9.0f;
  const KVCache s = cache.SliceTokens(3, 6);
  EXPECT_EQ(s.num_tokens(), 3u);
  EXPECT_EQ(s.num_layers(), 2u);
  EXPECT_FLOAT_EQ(s.layer(1).k.At(1, 2), 9.0f);
}

TEST(KVCache, ReshapeKeepsLayerAllocations) {
  KVCache cache(3, 9, 4);
  const float* k0 = cache.layer(0).k.Data().data();
  const float* v2 = cache.layer(2).v.Data().data();
  cache.Reshape(3, 5, 4);
  EXPECT_EQ(cache.num_layers(), 3u);
  EXPECT_EQ(cache.num_tokens(), 5u);
  EXPECT_EQ(cache.num_channels(), 4u);
  EXPECT_EQ(cache.layer(0).k.Data().data(), k0);
  EXPECT_EQ(cache.layer(2).v.Data().data(), v2);
  cache.Reshape(3, 9, 4);
  EXPECT_EQ(cache.layer(0).k.Data().data(), k0);
  EXPECT_EQ(cache.layer(2).v.Data().data(), v2);
  cache.Reshape(2, 4, 6);
  EXPECT_EQ(cache.num_layers(), 2u);
  EXPECT_EQ(cache.num_tokens(), 4u);
  EXPECT_EQ(cache.num_channels(), 6u);
  EXPECT_EQ(cache.TotalElements(), 2u * 2 * 4 * 6);
  KVCache empty;
  empty.Reshape(2, 3, 4);
  EXPECT_EQ(empty.num_tokens(), 3u);
  EXPECT_EQ(empty.TotalElements(), 2u * 2 * 3 * 4);
}

TEST(KVCache, PerLayerMse) {
  KVCache a(2, 2, 2), b(2, 2, 2);
  b.layer(1).k.At(0, 0) = 2.0f;  // only layer 1 differs
  const auto mse = a.PerLayerMse(b);
  ASSERT_EQ(mse.size(), 2u);
  EXPECT_DOUBLE_EQ(mse[0], 0.0);
  EXPECT_GT(mse[1], 0.0);
}

TEST(KVCache, MseIsSymmetricAndZeroOnSelf) {
  KVCache a(2, 4, 3);
  a.layer(0).v.At(2, 1) = 5.0f;
  KVCache b(2, 4, 3);
  EXPECT_DOUBLE_EQ(a.Mse(a), 0.0);
  EXPECT_DOUBLE_EQ(a.Mse(b), b.Mse(a));
}

}  // namespace
}  // namespace cachegen
