#include <gtest/gtest.h>

#include <cmath>

#include "ac/adaptive_model.h"
#include "ac/freq_table.h"
#include "ac/range_decoder.h"
#include "ac/range_encoder.h"
#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "common/rng.h"

namespace cachegen {
namespace {

TEST(FreqTable, NormalizesToTotal) {
  const std::vector<uint64_t> counts = {10, 20, 70};
  const FreqTable t = FreqTable::FromCounts(counts);
  uint32_t sum = 0;
  for (uint32_t s = 0; s < t.alphabet_size(); ++s) sum += t.Freq(s);
  EXPECT_EQ(sum, FreqTable::kTotal);
}

TEST(FreqTable, EverySymbolEncodable) {
  std::vector<uint64_t> counts(100, 0);
  counts[3] = 1000000;  // extremely skewed
  const FreqTable t = FreqTable::FromCounts(counts);
  for (uint32_t s = 0; s < t.alphabet_size(); ++s) EXPECT_GE(t.Freq(s), 1u);
}

TEST(FreqTable, CumulativeConsistency) {
  const std::vector<uint64_t> counts = {5, 0, 3, 100, 7};
  const FreqTable t = FreqTable::FromCounts(counts);
  uint32_t cum = 0;
  for (uint32_t s = 0; s < t.alphabet_size(); ++s) {
    EXPECT_EQ(t.CumFreq(s), cum);
    cum += t.Freq(s);
  }
}

TEST(FreqTable, LookupInverse) {
  const std::vector<uint64_t> counts = {1, 50, 2, 900, 13};
  const FreqTable t = FreqTable::FromCounts(counts);
  for (uint32_t s = 0; s < t.alphabet_size(); ++s) {
    EXPECT_EQ(t.Lookup(t.CumFreq(s)), s);
    EXPECT_EQ(t.Lookup(t.CumFreq(s) + t.Freq(s) - 1), s);
  }
}

TEST(FreqTable, UniformFrequencies) {
  const FreqTable t = FreqTable::Uniform(16);
  for (uint32_t s = 0; s < 16; ++s) {
    EXPECT_NEAR(t.Freq(s), FreqTable::kTotal / 16.0, 1.0);
  }
}

TEST(FreqTable, BitsForMatchesProbability) {
  const FreqTable t = FreqTable::Uniform(8);
  EXPECT_NEAR(t.BitsFor(0), 3.0, 0.01);
}

TEST(FreqTable, RejectsEmptyAndOversizedAlphabets) {
  EXPECT_THROW(FreqTable::FromCounts({}), std::invalid_argument);
  std::vector<uint64_t> too_big(FreqTable::kTotal, 1);
  EXPECT_THROW(FreqTable::FromCounts(too_big), std::invalid_argument);
}

TEST(FreqTable, BucketLookupMatchesLookupExhaustively) {
  // Property: for randomized tables, the compact bucket index agrees with
  // the binary search on every one of the 2^16 possible targets.
  Rng rng(42);
  const std::vector<uint32_t> sizes = {2, 3, 16, 129, 255, 1000};
  for (uint32_t n : sizes) {
    std::vector<uint64_t> counts(n);
    for (auto& c : counts) {
      // Mix of zeros, small and heavy counts to vary interval widths.
      const double u = rng.NextDouble();
      c = u < 0.3 ? 0 : (u < 0.9 ? rng.NextBelow(50) : rng.NextBelow(100000));
    }
    const FreqTable t = FreqTable::FromCounts(counts);
    for (uint32_t target = 0; target < FreqTable::kTotal; ++target) {
      ASSERT_EQ(t.BucketLookup(target), t.Lookup(target))
          << "n=" << n << " target=" << target;
    }
  }
}

TEST(FreqTable, BucketLookupEdges) {
  const FreqTable t = FreqTable::FromCounts(std::vector<uint64_t>{1, 1000000, 1});
  EXPECT_EQ(t.BucketLookup(0), t.Lookup(0));
  EXPECT_EQ(t.BucketLookup(FreqTable::kTotal - 1), t.Lookup(FreqTable::kTotal - 1));
  EXPECT_EQ(t.BucketLookup(FreqTable::kTotal - 1), 2u);
  EXPECT_THROW(FreqTable().BucketIndex(), std::logic_error);
}

std::vector<uint32_t> RoundTrip(const FreqTable& table,
                                const std::vector<uint32_t>& symbols) {
  BitWriter w;
  RangeEncoder enc(w);
  for (uint32_t s : symbols) enc.Encode(table, s);
  enc.Finish();
  BitReader r(w.bytes());
  RangeDecoder dec(r);
  std::vector<uint32_t> out;
  out.reserve(symbols.size());
  for (size_t i = 0; i < symbols.size(); ++i) out.push_back(dec.Decode(table));
  return out;
}

TEST(RangeCoder, RoundTripUniform) {
  const FreqTable t = FreqTable::Uniform(256);
  Rng rng(1);
  std::vector<uint32_t> syms;
  for (int i = 0; i < 20000; ++i) syms.push_back(static_cast<uint32_t>(rng.NextBelow(256)));
  EXPECT_EQ(RoundTrip(t, syms), syms);
}

TEST(RangeCoder, RoundTripSkewed) {
  std::vector<uint64_t> counts = {1000000, 1000, 10, 1, 1};
  const FreqTable t = FreqTable::FromCounts(counts);
  Rng rng(2);
  std::vector<uint32_t> syms;
  for (int i = 0; i < 50000; ++i) {
    const double u = rng.NextDouble();
    syms.push_back(u < 0.98 ? 0u : (u < 0.999 ? 1u : static_cast<uint32_t>(2 + rng.NextBelow(3))));
  }
  EXPECT_EQ(RoundTrip(t, syms), syms);
}

TEST(RangeCoder, RoundTripEmpty) {
  const FreqTable t = FreqTable::Uniform(4);
  EXPECT_TRUE(RoundTrip(t, {}).empty());
}

TEST(RangeCoder, RoundTripSingleSymbol) {
  const FreqTable t = FreqTable::Uniform(4);
  EXPECT_EQ(RoundTrip(t, {3}), (std::vector<uint32_t>{3}));
}

TEST(RangeCoder, CompressionApproachesEntropy) {
  // A heavily skewed distribution should compress far below 8 bits/symbol
  // and within ~2% of the model cross-entropy.
  std::vector<uint64_t> counts(256, 1);
  counts[0] = 100000;
  counts[1] = 20000;
  counts[2] = 5000;
  const FreqTable t = FreqTable::FromCounts(counts);
  Rng rng(3);
  std::vector<uint32_t> syms;
  double expected_bits = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.NextDouble();
    uint32_t s = 0;
    if (u > 0.8) s = 1;
    if (u > 0.96) s = 2;
    if (u > 0.99) s = static_cast<uint32_t>(3 + rng.NextBelow(253));
    syms.push_back(s);
    expected_bits += t.BitsFor(s);
  }
  BitWriter w;
  RangeEncoder enc(w);
  for (uint32_t s : syms) enc.Encode(t, s);
  enc.Finish();
  const double actual_bits = static_cast<double>(w.bytes().size()) * 8.0;
  EXPECT_LT(actual_bits, expected_bits * 1.02 + 64);
  EXPECT_GT(actual_bits, expected_bits * 0.98);
}

TEST(RangeCoder, MixedTablesRoundTrip) {
  // The codec switches tables per symbol; the coder must handle that.
  const FreqTable a = FreqTable::Uniform(4);
  const FreqTable b = FreqTable::FromCounts(std::vector<uint64_t>{100, 1, 1, 1, 1, 1});
  Rng rng(4);
  std::vector<uint32_t> syms;
  BitWriter w;
  RangeEncoder enc(w);
  for (int i = 0; i < 10000; ++i) {
    const FreqTable& t = (i % 2) ? a : b;
    const uint32_t s = static_cast<uint32_t>(rng.NextBelow(t.alphabet_size()));
    syms.push_back(s);
    enc.Encode(t, s);
  }
  enc.Finish();
  BitReader r(w.bytes());
  RangeDecoder dec(r);
  for (int i = 0; i < 10000; ++i) {
    const FreqTable& t = (i % 2) ? a : b;
    EXPECT_EQ(dec.Decode(t), syms[static_cast<size_t>(i)]);
  }
}

TEST(RangeCoder, RunApisMatchPerSymbolBitstream) {
  // EncodeRun must emit the exact bytes of the per-symbol Encode calls,
  // including with per-symbol table switches and when mixed with scalar
  // calls on the same coder.
  const FreqTable a = FreqTable::Uniform(4);
  const FreqTable b = FreqTable::FromCounts(std::vector<uint64_t>{900, 5, 5, 1, 1, 88});
  Rng rng(11);
  const size_t n = 20000;
  std::vector<uint32_t> syms(n);
  std::vector<const FreqTable*> tables(n);
  for (size_t i = 0; i < n; ++i) {
    tables[i] = (i % 3) ? &a : &b;
    syms[i] = static_cast<uint32_t>(rng.NextBelow(tables[i]->alphabet_size()));
  }

  BitWriter w_scalar;
  {
    RangeEncoder enc(w_scalar);
    for (size_t i = 0; i < n; ++i) enc.Encode(*tables[i], syms[i]);
    enc.Finish();
  }
  BitWriter w_run;
  {
    RangeEncoder enc(w_run);
    enc.EncodeRun(tables.data(), syms.data(), n / 2);           // batch
    for (size_t i = n / 2; i < n / 2 + 100; ++i) enc.Encode(*tables[i], syms[i]);
    enc.EncodeRun(tables.data() + n / 2 + 100, syms.data() + n / 2 + 100,
                  n - n / 2 - 100);
    enc.Finish();
  }
  EXPECT_EQ(w_scalar.bytes(), w_run.bytes());

  BitReader r(w_scalar.bytes());
  RangeDecoder dec(r);
  std::vector<uint32_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = dec.Decode(*tables[i]);
  EXPECT_EQ(out, syms);
}

TEST(RangeCoder, EncodeRunRejectsBadSymbol) {
  BitWriter w;
  RangeEncoder enc(w);
  const FreqTable t = FreqTable::Uniform(4);
  const std::vector<const FreqTable*> tables(3, &t);
  const std::vector<uint32_t> syms = {1, 2, 4};  // 4 is out of alphabet
  EXPECT_THROW(enc.EncodeRun(tables.data(), syms.data(), syms.size()),
               std::out_of_range);
}

TEST(RangeDecoder, TruncatedPrimeThrows) {
  const std::vector<uint8_t> bytes = {1, 2, 3};  // < 5-byte prime
  BitReader r(bytes);
  try {
    RangeDecoder dec(r);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("5 bytes"), std::string::npos) << e.what();
  }
}

TEST(RangeDecoder, TruncatedStreamThrowsMidDecode) {
  // Chop a valid stream in half: decoding must surface std::out_of_range
  // instead of fabricating symbols.
  const FreqTable t = FreqTable::Uniform(256);
  Rng rng(13);
  const size_t n = 10000;
  BitWriter w;
  RangeEncoder enc(w);
  for (size_t i = 0; i < n; ++i) enc.Encode(t, static_cast<uint32_t>(rng.NextBelow(256)));
  enc.Finish();
  std::vector<uint8_t> half(w.bytes().begin(),
                            w.bytes().begin() + static_cast<long>(w.bytes().size() / 2));

  BitReader r(half);
  RangeDecoder dec(r);
  auto decode_all = [&] {
    for (size_t i = 0; i < n; ++i) (void)dec.Decode(t);
  };
  EXPECT_THROW(decode_all(), std::out_of_range);
}

TEST(RangeCoder, EncodeAfterFinishThrows) {
  BitWriter w;
  RangeEncoder enc(w);
  const FreqTable t = FreqTable::Uniform(4);
  enc.Encode(t, 1);
  enc.Finish();
  EXPECT_THROW(enc.Encode(t, 1), std::logic_error);
}

TEST(RangeCoder, SymbolOutOfAlphabetThrows) {
  BitWriter w;
  RangeEncoder enc(w);
  const FreqTable t = FreqTable::Uniform(4);
  EXPECT_THROW(enc.Encode(t, 4), std::out_of_range);
}

TEST(AdaptiveModel, RoundTripWithoutSharedTables) {
  // Encoder and decoder adapt in lock-step from a uniform start.
  Rng rng(6);
  std::vector<uint32_t> syms;
  for (int i = 0; i < 30000; ++i) {
    syms.push_back(rng.NextDouble() < 0.9 ? 7u : static_cast<uint32_t>(rng.NextBelow(32)));
  }
  BitWriter w;
  {
    RangeEncoder enc(w);
    AdaptiveModel m(32);
    for (uint32_t s : syms) m.EncodeAndUpdate(enc, s);
    enc.Finish();
  }
  BitReader r(w.bytes());
  RangeDecoder dec(r);
  AdaptiveModel m(32);
  for (uint32_t s : syms) EXPECT_EQ(m.DecodeAndUpdate(dec), s);
}

TEST(AdaptiveModel, LearnsSkewAndCompresses) {
  // After adaptation, a 90%-one-symbol stream should cost well under the
  // 5 bits/symbol of the uniform model.
  Rng rng(7);
  BitWriter w;
  RangeEncoder enc(w);
  AdaptiveModel m(32);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const uint32_t s = rng.NextDouble() < 0.9 ? 0u : static_cast<uint32_t>(rng.NextBelow(32));
    m.EncodeAndUpdate(enc, s);
  }
  enc.Finish();
  const double bits_per_symbol = static_cast<double>(w.bytes().size()) * 8.0 / n;
  EXPECT_LT(bits_per_symbol, 1.6);  // entropy is ~1.05 bits here
}

}  // namespace
}  // namespace cachegen
