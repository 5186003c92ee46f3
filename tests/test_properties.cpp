// Property-based tests: parameterized sweeps over seeds, shapes, levels and
// codec options asserting the invariants that must hold for *every*
// configuration, not just the defaults:
//
//   P1  codec round-trip: decode(encode(x)) has bounded, level-controlled
//       error and exact shape, for all levels x options x shapes;
//   P2  range coder is lossless for arbitrary symbol streams;
//   P3  chunked encode+decode+concat == whole-cache encode+decode whenever
//       chunk boundaries align with token groups;
//   P4  adaptation never returns an infeasible config when a feasible one
//       exists, and always returns the least-lossy feasible one;
//   P5  bandwidth/transfer algebra: TransferSeconds is inverse-monotone in
//       bandwidth and additive in bytes.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "ac/range_decoder.h"
#include "ac/range_encoder.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"
#include "common/rng.h"
#include "llm/quality_model.h"
#include "llm/synthetic_model.h"
#include "net/bandwidth_trace.h"
#include "streamer/adaptation.h"

namespace cachegen {
namespace {

std::shared_ptr<const KVProfile> SharedProfile() {
  static std::shared_ptr<const KVProfile> profile = [] {
    const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
    const SyntheticModel model(cfg);
    const KVCache c1 = model.Prefill({1000, 400});
    const KVCache c2 = model.Prefill({1001, 400});
    const std::vector<const KVCache*> caches = {&c1, &c2};
    return std::make_shared<KVProfile>(KVProfile::Build(cfg, caches));
  }();
  return profile;
}

// ---------------------------------------------------------------- P1 ------
struct CodecCase {
  int level;
  bool delta;
  bool layerwise;
  ProfileGranularity granularity;
  size_t tokens;
};

class CodecProperty : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecProperty, RoundTripBoundedError) {
  const CodecCase& p = GetParam();
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const KVCache chunk = model.Prefill(
      {static_cast<uint64_t>(7000 + p.level * 100 + p.tokens), p.tokens});

  CodecOptions opt;
  opt.delta_encoding = p.delta;
  opt.layerwise_bins = p.layerwise;
  opt.granularity = p.granularity;
  const auto& level = DefaultEncodingLevels()[static_cast<size_t>(p.level)];
  const KVEncoder enc(SharedProfile(), level, opt);
  const KVDecoder dec(SharedProfile(), level, opt);

  const EncodedChunk e = enc.EncodeChunk(chunk);
  EXPECT_GT(e.PayloadBytes(), 0u);
  const KVCache recon = dec.DecodeChunk(e);
  ASSERT_EQ(recon.num_tokens(), chunk.num_tokens());
  ASSERT_EQ(recon.num_layers(), chunk.num_layers());

  // Error bound: per-element error is bounded by half the coarsest bin times
  // the profiled sigma (plus anchor quantum); weighted nMSE stays finite and
  // well below catastrophic for every configuration.
  QualityModel qm;
  const double nmse = qm.WeightedNmse(chunk, recon);
  EXPECT_LT(nmse, 6.0) << "level=" << p.level << " delta=" << p.delta;
  EXPECT_GE(nmse, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CodecProperty,
    ::testing::Values(
        CodecCase{0, true, true, ProfileGranularity::kPerChannelLayer, 35},
        CodecCase{1, true, true, ProfileGranularity::kPerChannelLayer, 50},
        CodecCase{2, true, true, ProfileGranularity::kPerChannelLayer, 64},
        CodecCase{3, true, true, ProfileGranularity::kPerChannelLayer, 41},
        CodecCase{1, false, true, ProfileGranularity::kPerChannelLayer, 50},
        CodecCase{1, true, false, ProfileGranularity::kPerChannelLayer, 50},
        CodecCase{1, true, true, ProfileGranularity::kGlobal, 50},
        CodecCase{1, true, true, ProfileGranularity::kPerLayer, 50},
        CodecCase{2, false, false, ProfileGranularity::kGlobal, 30},
        CodecCase{0, true, true, ProfileGranularity::kPerLayer, 10},
        CodecCase{3, true, true, ProfileGranularity::kGlobal, 1},
        CodecCase{1, true, true, ProfileGranularity::kPerChannelLayer, 9}));

// ---------------------------------------------------------------- P2 ------
class RangeCoderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RangeCoderProperty, LosslessForRandomStreams) {
  Rng rng(GetParam());
  // Random alphabet size, random skew, random length.
  const uint32_t alphabet = 2 + static_cast<uint32_t>(rng.NextBelow(300));
  std::vector<uint64_t> counts(alphabet);
  for (auto& c : counts) c = rng.NextBelow(1000);
  const FreqTable table = FreqTable::FromCounts(counts);
  const size_t n = 1 + rng.NextBelow(5000);
  std::vector<uint32_t> syms;
  syms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    syms.push_back(static_cast<uint32_t>(rng.NextBelow(alphabet)));
  }
  BitWriter w;
  RangeEncoder enc(w);
  for (uint32_t s : syms) enc.Encode(table, s);
  enc.Finish();
  BitReader r(w.bytes());
  RangeDecoder dec(r);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(dec.Decode(table), syms[i]) << "seed=" << GetParam() << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCoderProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------- P3 ------
class ChunkingProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkingProperty, ChunkedEqualsWhole) {
  const size_t chunk_tokens = GetParam();  // multiples of the group size
  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  const ContextSpec ctx{8800 + chunk_tokens, 120};
  const KVCache full = model.Prefill(ctx);
  const KVEncoder enc(SharedProfile(), DefaultLevel());
  const KVDecoder dec(SharedProfile(), DefaultLevel());

  const KVCache whole = dec.DecodeChunk(enc.EncodeChunk(full));
  KVCache stitched(full.num_layers(), 120, full.num_channels());
  for (size_t b = 0; b < 120; b += chunk_tokens) {
    const size_t e = std::min(b + chunk_tokens, static_cast<size_t>(120));
    dec.DecodeChunkInto(enc.EncodeChunk(full.SliceTokens(b, e)), stitched, b);
  }
  ASSERT_EQ(stitched.num_tokens(), whole.num_tokens());
  EXPECT_DOUBLE_EQ(stitched.Mse(whole), 0.0) << "chunk=" << chunk_tokens;
}

INSTANTIATE_TEST_SUITE_P(GroupAlignedChunks, ChunkingProperty,
                         ::testing::Values(10, 20, 30, 40, 60, 120));

// ---------------------------------------------------------------- P4 ------
struct AdaptCase {
  double slo_s;
  double gbps;
  double elapsed_s;
};

class AdapterProperty : public ::testing::TestWithParam<AdaptCase> {};

TEST_P(AdapterProperty, LeastLossyFeasibleChosen) {
  const AdaptCase& p = GetParam();
  const CostModel cost;
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  ContextPlan plan;
  plan.total_tokens = 6000;
  plan.quality_per_level = {0.99, 0.98, 0.93, 0.85};
  for (size_t i = 0; i < 4; ++i) {
    ChunkPlan cp;
    cp.range = {i * 1500, (i + 1) * 1500};
    cp.bytes_per_level = {m.RawKVBytes(1500) / 16.0 * 3.2,
                          m.RawKVBytes(1500) / 16.0 * 2.3,
                          m.RawKVBytes(1500) / 16.0 * 1.7,
                          m.RawKVBytes(1500) / 16.0 * 1.2};
    plan.chunks.push_back(cp);
  }
  const Adapter adapter(cost, m, p.slo_s, 4);
  const double bps = p.gbps * 1e9 / 8.0;
  const AdaptDecision d = adapter.Choose(plan, 0, bps, p.elapsed_s);

  // Recompute the expected-delay table independently and check optimality.
  const double remaining = p.slo_s - p.elapsed_s;
  const double text_s = plan.text_bytes_per_token * 6000 / bps +
                        cost.PrefillSeconds(m, 6000, 1.0);
  std::vector<std::pair<StreamConfig, double>> options;
  options.push_back({{true, 0}, text_s});
  for (int lv = 0; lv < 4; ++lv) {
    options.push_back({{false, lv}, plan.BytesAtLevel(0, lv) / bps});
  }
  const StreamConfig expected = [&] {
    for (const auto& [config, delay] : options) {
      if (delay <= remaining) return config;
    }
    auto best = options[0];
    for (const auto& o : options) {
      if (o.second < best.second) best = o;
    }
    return best.first;
  }();
  EXPECT_EQ(d.config, expected)
      << "slo=" << p.slo_s << " gbps=" << p.gbps << " elapsed=" << p.elapsed_s;

  // Feasibility flag consistent with the SLO arithmetic.
  if (d.feasible) {
    EXPECT_LE(d.expected_remaining_s, remaining + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SloBandwidthGrid, AdapterProperty,
    ::testing::Values(AdaptCase{10.0, 3.0, 0.0}, AdaptCase{2.0, 3.0, 0.0},
                      AdaptCase{1.0, 3.0, 0.0}, AdaptCase{0.5, 3.0, 0.0},
                      AdaptCase{1.0, 0.4, 0.0}, AdaptCase{1.0, 20.0, 0.0},
                      AdaptCase{2.0, 3.0, 1.5}, AdaptCase{2.0, 3.0, 1.95},
                      AdaptCase{0.3, 0.1, 0.0}, AdaptCase{5.0, 1.0, 2.0}));

// ---------------------------------------------------------------- P5 ------
class TraceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceProperty, TransferAlgebra) {
  const auto trace =
      BandwidthTrace::Random(GetParam(), 0.1, 10.0, 0.5, 30.0);
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 20; ++i) {
    const double bytes = rng.Uniform(1e6, 5e8);
    const double start = rng.Uniform(0.0, 20.0);
    const double whole = trace.TransferSeconds(bytes, start);
    // Additivity: sending in two halves back-to-back takes the same time.
    const double h1 = trace.TransferSeconds(bytes / 2, start);
    const double h2 = trace.TransferSeconds(bytes / 2, start + h1);
    EXPECT_NEAR(whole, h1 + h2, 1e-6);
    // Conservation: bytes deliverable in the transfer window equal the load.
    EXPECT_NEAR(trace.BytesIn(start, start + whole), bytes, bytes * 1e-9 + 1.0);
    // Monotonicity in bytes.
    EXPECT_GE(whole, trace.TransferSeconds(bytes * 0.5, start));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty, ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace cachegen
