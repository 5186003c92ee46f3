// Golden-bitstream compatibility: the overhauled fast path (batch symbol
// kernels, EncodeRun, interleaved lane decoding) must be
// bit-compatible with the seed's scalar codec, which is preserved verbatim
// in codec/reference_codec.h. Encode must emit byte-identical containers;
// decode must reconstruct bit-identical tensors — across every codec option
// combination, not just the defaults. The encoder's own reconstruction
// output, and an in-place decode into a reused buffer, must equal that
// decode bit for bit over the same matrix.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "codec/container.h"
#include "codec/encoding_level.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"
#include "codec/profile.h"
#include "codec/reference_codec.h"
#include "llm/synthetic_model.h"

namespace cachegen {
namespace {

class GoldenCodecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new ModelConfig(ModelConfig::Preset("mistral-7b"));
    model_ = new SyntheticModel(*cfg_);
    calib_ = new std::vector<KVCache>();
    std::vector<const KVCache*> ptrs;
    for (uint64_t i = 0; i < 8; ++i) calib_->push_back(model_->Prefill({500 + i, 200}));
    for (const auto& c : *calib_) ptrs.push_back(&c);
    profile_ = std::make_shared<KVProfile>(KVProfile::Build(*cfg_, ptrs));
  }
  static void TearDownTestSuite() {
    delete calib_;
    delete model_;
    delete cfg_;
    profile_.reset();
  }

  // Rows [a0, a0 + rows) of `a` equal rows [b0, b0 + rows) of `b` bit for
  // bit, not just within epsilon.
  static void ExpectRowsBitIdentical(const KVCache& a, size_t a0,
                                     const KVCache& b, size_t b0, size_t rows) {
    ASSERT_EQ(a.num_layers(), b.num_layers());
    for (size_t l = 0; l < a.num_layers(); ++l) {
      for (int kind = 0; kind < 2; ++kind) {
        const Tensor& ta = kind == 0 ? a.layer(l).k : a.layer(l).v;
        const Tensor& tb = kind == 0 ? b.layer(l).k : b.layer(l).v;
        ASSERT_EQ(ta.cols(), tb.cols());
        ASSERT_LE(a0 + rows, ta.rows());
        ASSERT_LE(b0 + rows, tb.rows());
        if (rows == 0) continue;
        ASSERT_EQ(std::memcmp(ta.Row(a0).data(), tb.Row(b0).data(),
                              rows * ta.cols() * sizeof(float)),
                  0)
            << "layer " << l << " kind " << kind;
      }
    }
  }

  static void ExpectBitIdentical(const KVCache& a, const KVCache& b) {
    ASSERT_EQ(a.num_tokens(), b.num_tokens());
    ASSERT_EQ(a.TotalElements(), b.TotalElements());
    ExpectRowsBitIdentical(a, 0, b, 0, a.num_tokens());
  }

  void CheckOptions(const CodecOptions& opt, const EncodingLevel& level,
                    size_t tokens) {
    const auto tables = std::make_shared<TableSet>(*profile_, level, opt);
    const KVCache chunk = model_->Prefill({42, tokens});

    // Encode: new batch path (serial and pooled) vs frozen seed scalar path.
    const EncodedChunk golden = reference::EncodeChunk(*tables, chunk, 7, 1234);
    const KVEncoder enc(profile_, tables);
    const EncodedChunk fast1 = enc.EncodeChunk(chunk, 7, 1234, 1);
    const EncodedChunk fastN = enc.EncodeChunk(chunk, 7, 1234, 0);
    ASSERT_EQ(golden.streams.size(), fast1.streams.size());
    for (size_t g = 0; g < golden.streams.size(); ++g) {
      EXPECT_EQ(golden.streams[g], fast1.streams[g]) << "group " << g;
      EXPECT_EQ(golden.streams[g], fastN.streams[g]) << "group " << g;
    }
    // Whole container byte-identical.
    EXPECT_EQ(SerializeChunk(golden), SerializeChunk(fast1));

    // Decode: fast path (interleaved lane batches) over the golden stream
    // must reconstruct bit-identically to the seed scalar decode.
    const KVDecoder dec(profile_, tables);
    const KVCache ref_recon = reference::DecodeChunk(*tables, golden);
    ExpectBitIdentical(ref_recon, dec.DecodeChunk(golden, 1));
    ExpectBitIdentical(ref_recon, dec.DecodeChunk(golden, 0));

    // Encoder-side reconstruction (the write path's replacement for a
    // decode): asking for it leaves the container byte-identical, and the
    // tensors equal DecodeChunk of that container bit for bit — serial and
    // pooled. The pooled pass reuses the buffer while it holds another
    // chunk's reconstruction, so every element must be overwritten.
    const KVCache other = model_->Prefill({43, tokens});
    KVCache recon;
    for (const unsigned threads : {1u, 0u}) {
      const EncodedChunk with_recon = enc.EncodeChunk(chunk, 7, 1234, threads, &recon);
      EXPECT_EQ(SerializeChunk(fast1), SerializeChunk(with_recon))
          << "threads " << threads;
      ASSERT_EQ(recon.num_tokens(), chunk.num_tokens());
      ExpectBitIdentical(dec.DecodeChunk(with_recon, 1), recon);
      (void)enc.EncodeChunk(other, 0, 0, threads, &recon);
    }

    // In-place decode (the read path's reassembly): at a non-zero row
    // offset into a buffer that holds another chunk's decode, the written
    // rows equal the seed decode bit for bit and no other row changes —
    // serial and pooled.
    const size_t row0 = 5, after = 3;
    const KVCache wide = model_->Prefill({44, row0 + tokens + after});
    const KVCache held = dec.DecodeChunk(enc.EncodeChunk(wide, 0, 0, 1), 1);
    for (const unsigned threads : {1u, 0u}) {
      KVCache into = held;
      dec.DecodeChunkInto(golden, into, row0, threads);
      ASSERT_EQ(into.num_tokens(), held.num_tokens());
      ExpectRowsBitIdentical(into, row0, ref_recon, 0, tokens);
      ExpectRowsBitIdentical(into, 0, held, 0, row0);
      ExpectRowsBitIdentical(into, row0 + tokens, held, row0 + tokens, after);
    }
  }

  static ModelConfig* cfg_;
  static SyntheticModel* model_;
  static std::vector<KVCache>* calib_;
  static std::shared_ptr<const KVProfile> profile_;
};

ModelConfig* GoldenCodecTest::cfg_ = nullptr;
SyntheticModel* GoldenCodecTest::model_ = nullptr;
std::vector<KVCache>* GoldenCodecTest::calib_ = nullptr;
std::shared_ptr<const KVProfile> GoldenCodecTest::profile_;

TEST_F(GoldenCodecTest, DefaultOptions) {
  CheckOptions(CodecOptions{}, DefaultLevel(), 137);
}

TEST_F(GoldenCodecTest, EveryEncodingLevel) {
  for (const auto& level : DefaultEncodingLevels()) {
    CheckOptions(CodecOptions{}, level, 64);
  }
}

TEST_F(GoldenCodecTest, NoDeltaMode) {
  CodecOptions opt;
  opt.delta_encoding = false;
  CheckOptions(opt, DefaultLevel(), 90);
}

TEST_F(GoldenCodecTest, ConsecutiveAnchorMode) {
  CodecOptions opt;
  opt.anchor_mode = AnchorMode::kConsecutive;
  CheckOptions(opt, DefaultLevel(), 90);
}

TEST_F(GoldenCodecTest, CoarserGranularities) {
  CodecOptions opt;
  opt.granularity = ProfileGranularity::kPerLayer;
  CheckOptions(opt, DefaultLevel(), 70);
  opt.granularity = ProfileGranularity::kGlobal;
  CheckOptions(opt, DefaultLevel(), 70);
}

TEST_F(GoldenCodecTest, UniformBins) {
  CodecOptions opt;
  opt.layerwise_bins = false;
  CheckOptions(opt, DefaultLevel(), 55);
}

TEST_F(GoldenCodecTest, PartialTailGroupAndTinyChunks) {
  // Tokens not divisible by the group size exercise the single-stream tail
  // path next to the lane batches; tiny chunks exercise lane counts below
  // the batch width.
  CheckOptions(CodecOptions{}, DefaultLevel(), 101);
  CheckOptions(CodecOptions{}, DefaultLevel(), 11);
  CheckOptions(CodecOptions{}, DefaultLevel(), 10);
  CheckOptions(CodecOptions{}, DefaultLevel(), 3);
  CheckOptions(CodecOptions{}, DefaultLevel(), 1);
}

}  // namespace
}  // namespace cachegen
