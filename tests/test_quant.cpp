#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "codec/profile.h"
#include "common/rng.h"
#include "quant/binned_quant.h"
#include "quant/symbol_kernels.h"
#include "quant/uniform_quant.h"
#include "quant/vectorwise_quant.h"

namespace cachegen {
namespace {

// std::lround of a quotient, clamped to ±kDeltaMaxSym and shifted: the
// seed's scalar symbol mapping.
uint32_t ScalarSymbol(double q) {
  const long m = KVProfile::kDeltaMaxSym;
  return static_cast<uint32_t>(std::clamp(std::lround(q), -m, m) + m);
}

// Both delta-symbol kernels against the scalar mapping on one row:
// ResidualSymbolRow (float subtraction, as the enhancement layer's residual
// walk) and QuantizeRow (double subtraction against a double offset).
void ExpectRowMatchesScalar(const std::vector<float>& x,
                            const std::vector<float>& base,
                            const std::vector<double>& sigma, double bin) {
  ASSERT_EQ(x.size(), base.size());
  ASSERT_EQ(x.size(), sigma.size());
  const size_t n = x.size();
  const std::vector<double> offset(base.begin(), base.end());
  std::vector<uint32_t> resid(n), delta(n);
  ResidualSymbolRow(x.data(), base.data(), sigma.data(), bin,
                    KVProfile::kDeltaMaxSym, n, resid.data());
  QuantizeRow(x.data(), offset.data(), sigma.data(), bin, KVProfile::kDeltaMaxSym,
              n, delta.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(resid[i], ScalarSymbol((x[i] - base[i]) / sigma[i] / bin))
        << "i=" << i << " x=" << x[i] << " base=" << base[i]
        << " sigma=" << sigma[i] << " bin=" << bin;
    EXPECT_EQ(delta[i],
              ScalarSymbol((static_cast<double>(x[i]) - offset[i]) / sigma[i] / bin))
        << "i=" << i << " x=" << x[i] << " offset=" << offset[i]
        << " sigma=" << sigma[i] << " bin=" << bin;
  }
}

TEST(SymbolKernels, ExactHalfQuotientsRoundAwayFromZero) {
  // Differences and divisors chosen so the float subtraction and both
  // double divisions are exact: every quotient is exactly ±(k + 0.5).
  for (const double bin : {0.25, 0.5}) {
    std::vector<float> x, base;
    std::vector<double> sigma;
    for (int k = -9; k <= 8; ++k) {
      const double half = k + 0.5;  // -8.5 ... 8.5
      for (const double sg : {1.0, 3.0, 0.375}) {
        const float b = 1.25f;
        const float xv = b + static_cast<float>(half * bin * sg);
        ASSERT_EQ(static_cast<double>(xv - b) / sg / bin, half);
        x.push_back(xv);
        base.push_back(b);
        sigma.push_back(sg);
      }
    }
    ExpectRowMatchesScalar(x, base, sigma, bin);
  }
}

TEST(SymbolKernels, NeighboursOfHalfQuotientsRoundToNearest) {
  // QuantizeRow with x = 0, sigma = bin = 1 maps the offset's negation to a
  // quotient exactly: the doubles adjacent to every ±(k + 0.5), including
  // 0.49999999999999994, which a floor(q + 0.5) rounding gets wrong.
  std::vector<double> quotients;
  for (int k = -9; k <= 8; ++k) {
    const double half = k + 0.5;
    quotients.push_back(half);
    quotients.push_back(std::nextafter(half, -1e9));
    quotients.push_back(std::nextafter(half, 1e9));
  }
  const size_t n = quotients.size();
  const std::vector<float> x(n, 0.0f);
  std::vector<double> offset(n);
  for (size_t i = 0; i < n; ++i) offset[i] = -quotients[i];
  const std::vector<double> sigma(n, 1.0);
  std::vector<uint32_t> syms(n);
  QuantizeRow(x.data(), offset.data(), sigma.data(), 1.0, KVProfile::kDeltaMaxSym,
              n, syms.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(syms[i], ScalarSymbol(quotients[i])) << "q=" << quotients[i];
  }
}

TEST(SymbolKernels, ResidualSubtractsInFloat) {
  // 2.5 - 2^-30 rounds to 2.5 in float: the residual kernel sees the tie
  // and rounds away from zero, a double subtraction would round inward.
  const float tiny = std::ldexp(1.0f, -30);
  const std::vector<float> x = {2.5f, -2.5f};
  const std::vector<float> base = {tiny, -tiny};
  const std::vector<double> sigma(2, 1.0);
  ExpectRowMatchesScalar(x, base, sigma, 1.0);
  std::vector<uint32_t> syms(2);
  ResidualSymbolRow(x.data(), base.data(), sigma.data(), 1.0,
                    KVProfile::kDeltaMaxSym, 2, syms.data());
  EXPECT_EQ(syms[0], static_cast<uint32_t>(KVProfile::kDeltaMaxSym + 3));
  EXPECT_EQ(syms[1], static_cast<uint32_t>(KVProfile::kDeltaMaxSym - 3));
}

TEST(SymbolKernels, SignedZeros) {
  const std::vector<float> x = {0.0f, -0.0f, 0.0f, -0.0f};
  const std::vector<float> base = {0.0f, 0.0f, -0.0f, -0.0f};
  const std::vector<double> sigma(4, 0.7);
  ExpectRowMatchesScalar(x, base, sigma, 0.25);
}

TEST(SymbolKernels, ClampsPastTheAlphabet) {
  // Quotients at, just past and far past ±(kDeltaMaxSym + 1), including the
  // ±(kDeltaMaxSym + 0.5) ties that round outward and then clamp.
  const double m = KVProfile::kDeltaMaxSym;
  const double bin = 0.25, sg = 2.0;
  std::vector<float> x, base;
  for (const double q : {m - 0.5, m, m + 0.5, m + 1.0, m + 1.5, m + 2.0,
                         10.0 * m, 1e6, 1e15}) {
    for (const double sign : {1.0, -1.0}) {
      x.push_back(static_cast<float>(sign * q * bin * sg));
      base.push_back(0.0f);
    }
  }
  ExpectRowMatchesScalar(x, base, std::vector<double>(x.size(), sg), bin);
}

TEST(SymbolKernels, RandomRowsMatchScalar) {
  Rng rng(17);
  for (int row = 0; row < 64; ++row) {
    const double bin = row % 2 ? 0.25 : 0.6;
    std::vector<float> x(96), base(96);
    std::vector<double> sigma(96);
    for (size_t i = 0; i < x.size(); ++i) {
      sigma[i] = rng.Uniform(0.05, 3.0);
      base[i] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      x[i] = base[i] + static_cast<float>(rng.Gaussian(0.0, 40.0) * bin * sigma[i]);
    }
    ExpectRowMatchesScalar(x, base, sigma, bin);
  }
}

TEST(UniformQuant, ExactForFewDistinctValues) {
  // 8 bits can represent up to 256 levels exactly on a linear grid.
  UniformQuantizer q(8);
  std::vector<float> xs;
  for (int i = 0; i < 256; ++i) xs.push_back(static_cast<float>(i) * 0.5f - 10.0f);
  const auto quantized = q.Quantize(xs);
  const auto back = q.Dequantize(quantized);
  for (size_t i = 0; i < xs.size(); ++i) EXPECT_NEAR(back[i], xs[i], 1e-4);
}

TEST(UniformQuant, ErrorBoundedByHalfStep) {
  UniformQuantizer q(4);
  Rng rng(1);
  std::vector<float> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(static_cast<float>(rng.Uniform(-5, 5)));
  const auto quantized = q.Quantize(xs);
  const auto back = q.Dequantize(quantized);
  const float step = quantized.scale;
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - xs[i]), step / 2.0f + 1e-5f);
  }
}

TEST(UniformQuant, MoreBitsLessError) {
  Rng rng(2);
  Tensor t(50, 20);
  for (auto& x : t.Data()) x = static_cast<float>(rng.Gaussian(0, 2));
  double prev_mse = 1e9;
  for (int bits : {2, 4, 8, 12}) {
    const Tensor rt = UniformQuantizer(bits).RoundTrip(t);
    const double mse = rt.Mse(t);
    EXPECT_LT(mse, prev_mse);
    prev_mse = mse;
  }
}

TEST(UniformQuant, ByteSizeScalesWithBits) {
  UniformQuantizer q8(8), q4(4);
  std::vector<float> xs(1000, 1.0f);
  EXPECT_NEAR(static_cast<double>(q8.Quantize(xs).ByteSize()),
              2.0 * static_cast<double>(q4.Quantize(xs).ByteSize()), 20.0);
}

TEST(UniformQuant, HandlesConstantInput) {
  UniformQuantizer q(8);
  const std::vector<float> xs(100, 3.5f);
  const auto back = q.Dequantize(q.Quantize(xs));
  for (float x : back) EXPECT_FLOAT_EQ(x, 3.5f);
}

TEST(UniformQuant, HandlesEmptyInput) {
  UniformQuantizer q(8);
  EXPECT_TRUE(q.Dequantize(q.Quantize({})).empty());
}

TEST(UniformQuant, RejectsBadBits) {
  EXPECT_THROW(UniformQuantizer(0), std::invalid_argument);
  EXPECT_THROW(UniformQuantizer(17), std::invalid_argument);
}

TEST(BinnedQuant, RoundTripError) {
  const BinnedQuantizer q(0.5);
  for (float x : {-3.2f, -0.26f, 0.0f, 0.24f, 0.26f, 7.9f}) {
    const float back = q.DequantizeOne(q.QuantizeOne(x));
    EXPECT_LE(std::fabs(back - x), 0.25f + 1e-6f);
  }
}

TEST(BinnedQuant, ClampsToMaxSymbol) {
  const BinnedQuantizer q(1.0, 4);
  EXPECT_EQ(q.QuantizeOne(100.0f), 4);
  EXPECT_EQ(q.QuantizeOne(-100.0f), -4);
}

TEST(BinnedQuant, AlphabetShiftInverse) {
  const BinnedQuantizer q(1.0, 8);
  for (int32_t s = -8; s <= 8; ++s) {
    EXPECT_EQ(q.FromAlphabet(q.ToAlphabet(s)), s);
  }
  EXPECT_EQ(q.alphabet_size(), 17u);
}

TEST(BinnedQuant, LargerBinsFewerSymbols) {
  Rng rng(3);
  std::vector<float> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(static_cast<float>(rng.Gaussian(0, 1)));
  std::vector<int32_t> fine, coarse;
  BinnedQuantizer(0.25).Quantize(xs, fine);
  BinnedQuantizer(1.0).Quantize(xs, coarse);
  auto distinct = [](const std::vector<int32_t>& v) {
    std::set<int32_t> s(v.begin(), v.end());
    return s.size();
  };
  EXPECT_GT(distinct(fine), distinct(coarse));
}

TEST(BinnedQuant, RejectsBadParams) {
  EXPECT_THROW(BinnedQuantizer(0.0), std::invalid_argument);
  EXPECT_THROW(BinnedQuantizer(-1.0), std::invalid_argument);
  EXPECT_THROW(BinnedQuantizer(1.0, 0), std::invalid_argument);
}

TEST(VectorwiseQuant, PerChannelScales) {
  // One tiny-magnitude channel next to a huge one: per-channel scaling keeps
  // the small channel's relative error low, unlike a global 8-bit grid.
  Tensor t(100, 2);
  Rng rng(4);
  for (size_t r = 0; r < 100; ++r) {
    t.At(r, 0) = static_cast<float>(rng.Gaussian(0, 0.01));
    t.At(r, 1) = static_cast<float>(rng.Gaussian(0, 100.0));
  }
  const VectorwiseQuantizer q(8);
  const Tensor rt = q.RoundTrip(t);
  double err_small = 0, sig_small = 0;
  for (size_t r = 0; r < 100; ++r) {
    err_small += std::pow(rt.At(r, 0) - t.At(r, 0), 2);
    sig_small += std::pow(t.At(r, 0), 2);
  }
  EXPECT_LT(err_small / sig_small, 1e-3);  // relative error ~ (1/127)^2
}

TEST(VectorwiseQuant, RoundTripBounded) {
  Rng rng(5);
  Tensor t(64, 16);
  for (auto& x : t.Data()) x = static_cast<float>(rng.Gaussian(1.0, 3.0));
  const VectorwiseQuantizer q(8);
  const auto quantized = q.Quantize(t);
  const Tensor back = q.Dequantize(quantized);
  for (size_t r = 0; r < t.rows(); ++r) {
    for (size_t c = 0; c < t.cols(); ++c) {
      EXPECT_LE(std::fabs(back.At(r, c) - t.At(r, c)),
                quantized.scales[c] / 2.0f + 1e-5f);
    }
  }
}

TEST(VectorwiseQuant, SymbolsWithinBits) {
  Rng rng(6);
  Tensor t(32, 4);
  for (auto& x : t.Data()) x = static_cast<float>(rng.Gaussian(0, 10));
  const VectorwiseQuantizer q(4);
  const auto quantized = q.Quantize(t);
  for (int32_t s : quantized.symbols) {
    EXPECT_LE(std::abs(s), q.max_symbol());
  }
}

TEST(VectorwiseQuant, ByteSizeAccounting) {
  const VectorwiseQuantizer q(8);
  Tensor t(10, 4);
  const auto quantized = q.Quantize(t);
  EXPECT_EQ(quantized.ByteSize(), 10u * 4u + 4u * 4u);
}

TEST(VectorwiseQuant, RejectsBadBits) {
  EXPECT_THROW(VectorwiseQuantizer(1), std::invalid_argument);
  EXPECT_THROW(VectorwiseQuantizer(20), std::invalid_argument);
}

}  // namespace
}  // namespace cachegen
