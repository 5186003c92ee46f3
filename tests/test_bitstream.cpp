#include <gtest/gtest.h>

#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "bitstream/serialize.h"

namespace cachegen {
namespace {

TEST(BitWriter, BytesPassThrough) {
  BitWriter w;
  w.PutByte(0xAB);
  w.PutByte(0xCD);
  ASSERT_EQ(w.bytes().size(), 2u);
  EXPECT_EQ(w.bytes()[0], 0xAB);
  EXPECT_EQ(w.bytes()[1], 0xCD);
}

TEST(BitReader, BytePastEndThrowsWithOffset) {
  const std::vector<uint8_t> bytes = {0xAB};
  BitReader r(bytes);
  EXPECT_EQ(r.GetByte(), 0xAB);
  try {
    r.GetByte();
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("offset 1"), std::string::npos)
        << e.what();
  }
}

TEST(BitReader, GetBytesBEBulkReads) {
  const std::vector<uint8_t> bytes = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  BitReader r(bytes);
  EXPECT_EQ(r.GetBytesBE(5), 0x0102030405ULL);
  EXPECT_EQ(r.RemainingBytes(), 1u);
  EXPECT_THROW(r.GetBytesBE(2), std::out_of_range);  // only 1 byte left
  EXPECT_EQ(r.GetBytesBE(1), 0x06u);
  EXPECT_THROW(r.GetBytesBE(9), std::invalid_argument);
}

TEST(BitWriter, SinkSharesTheBuffer) {
  BitWriter w;
  w.Reserve(16);
  w.PutByte(1);
  w.AppendSink().push_back(2);
  w.PutByte(3);
  EXPECT_EQ(w.bytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(w.TakeBytes(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(Serialize, VarintRoundTrip) {
  ByteWriter w;
  const std::vector<uint64_t> values = {0,      1,        127,        128,
                                        16383,  16384,    0xFFFFFFFF, 1ULL << 62,
                                        ~0ULL};
  for (uint64_t v : values) w.PutVarU64(v);
  ByteReader r(w.bytes());
  for (uint64_t v : values) EXPECT_EQ(r.GetVarU64(), v);
}

TEST(Serialize, VarintIsCompactForSmallValues) {
  ByteWriter w;
  w.PutVarU64(5);
  EXPECT_EQ(w.size(), 1u);
  w.PutVarU64(300);
  EXPECT_EQ(w.size(), 3u);  // 1 + 2
}

TEST(Serialize, SignedVarintRoundTrip) {
  ByteWriter w;
  const std::vector<int64_t> values = {0,  -1, 1, -64, 63, -65,
                                       64, INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.PutVarI64(v);
  ByteReader r(w.bytes());
  for (int64_t v : values) EXPECT_EQ(r.GetVarI64(), v);
}

TEST(Serialize, BlobRoundTrip) {
  ByteWriter w;
  const std::vector<uint8_t> blob = {1, 2, 3, 255};
  w.PutBlob(blob);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetBlob(), blob);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, TruncatedInputThrows) {
  ByteWriter w;
  w.PutU8(42);
  ByteReader r(w.bytes());
  r.GetU8();
  EXPECT_THROW(r.GetU8(), std::out_of_range);
}

TEST(Serialize, TruncatedBlobThrows) {
  // Claims 100 bytes follow, or 2^64 - 1 (which would wrap an offset sum),
  // but none do.
  for (uint64_t claimed : {uint64_t{100}, ~uint64_t{0}}) {
    ByteWriter w;
    w.PutVarU64(claimed);
    ByteReader r(w.bytes());
    EXPECT_THROW(r.GetBlob(), std::out_of_range) << claimed;
  }
}

}  // namespace
}  // namespace cachegen
