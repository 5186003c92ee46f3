// Golden outcome digests: five fixed serving traces, each reduced to one
// SHA-256 over every field of every RequestOutcome (doubles by bit pattern),
// compared against committed values. A refactor of the serving path must
// leave all five unchanged; a change that moves any outcome by one ulp, one
// flag or one worker index changes a digest.
//
// The arrangements cover the serving scenarios: warm hits decoded into real
// KV, progressive delivery, hot/cold tiering, partial prefix hits and remote
// hits on a multi-node fabric. Each asserts that its scenario occurred, so a
// digest cannot stay green by pinning a trace that never exercises it.
//
// Arrangements that write back run on one worker. With more, the coordinator
// can admit a lookup at a later virtual instant that runs, in wall time,
// before an earlier request's write-back, so hit/miss outcomes would depend
// on OS scheduling (the timing-dependent corners in cluster_server.h).
//
// Two more digests pin the bytes Engine::StoreKV persists (StoredBytesDigest),
// and one pins what Engine bring-up computes (CalibrationDigest).
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_server.h"
#include "common/sha256.h"
#include "fabric/cache_fabric.h"
#include "prefix/prefix_cache.h"
#include "self_exec.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"
#include "workload/prefix_trace.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

// SHA-256 over every RequestOutcome field, in declaration order. A field
// added to RequestOutcome (or ClusterRequest, or ContextSpec) belongs here.
std::string OutcomeDigest(const std::vector<RequestOutcome>& outcomes) {
  Sha256 h;
  const auto f64 = [&h](double v) { h.UpdateU64(std::bit_cast<uint64_t>(v)); };
  for (const RequestOutcome& o : outcomes) {
    const ClusterRequest& rq = o.request;
    h.UpdateU64(rq.id);
    f64(rq.arrival_s);
    h.UpdateU64(rq.context_id.size());
    h.Update(rq.context_id);
    h.UpdateU64(rq.spec.seed);
    h.UpdateU64(rq.spec.num_tokens);
    h.UpdateU64(rq.spec.prefix_seed);
    h.UpdateU64(rq.spec.prefix_tokens);
    f64(rq.slo_s);
    f64(rq.weight);

    h.UpdateU64(o.worker);
    f64(o.admit_s);
    f64(o.queue_delay_s);
    f64(o.load_finish_s);
    f64(o.ttft_s);
    f64(o.finish_s);
    h.UpdateU32((o.slo_violated ? 1u : 0u) | (o.cache_hit ? 2u : 0u) |
                (o.cold_hit ? 4u : 0u) | (o.remote_hit ? 8u : 0u) |
                (o.prefix_hit ? 16u : 0u));
    h.UpdateU64(o.covered_tokens);
    h.UpdateU32(o.forced_text ? 1u : 0u);
    f64(o.quality);
    f64(o.bytes_sent);
    h.UpdateU32((o.answer_correct ? 1u : 0u) | (o.write_back_done ? 2u : 0u) |
                (o.write_back_failed ? 4u : 0u));
    h.UpdateU64(static_cast<uint64_t>(static_cast<int64_t>(o.fabric_node)));
    f64(o.base_quality);
    f64(o.refine_delay_s);
    f64(o.base_token_fraction);
    f64(o.enhanced_token_fraction);
  }
  return Sha256Hex(h.Finish());
}

// Engine calibration dominates the suite's runtime, and its cost scales with
// the chunk size (the validation context is one chunk) and the layered
// calibration slice. Both are kept small so the suite stays fast under the
// sanitizers.
constexpr size_t kChunkTokens = 256;

Engine::Options SmallEngineOptions() {
  Engine::Options eopts;
  eopts.model_name = "mistral-7b";
  eopts.chunk_tokens = kChunkTokens;
  eopts.calib_context_tokens = 400;
  eopts.calib_num_contexts = 2;
  eopts.layered_calib_tokens = 64;
  return eopts;
}

// Poisson arrivals over a Zipf-popular pool of 2- to 4-chunk contexts.
RequestTraceOptions PoolTraceOptions(size_t num_requests, double rate_hz) {
  RequestTraceOptions t;
  t.num_requests = num_requests;
  t.arrival_rate_hz = rate_hz;
  t.num_contexts = 4;
  t.min_tokens = 2 * kChunkTokens;
  t.max_tokens = 4 * kChunkTokens;
  // Below the text-recompute time of most contexts: hits stream KV.
  t.slo_s = 0.15;
  t.seed = 0xD16E57;
  return t;
}

// The two warm arrangements share one Engine over an unbounded sharded store
// holding the whole pool.
struct WarmFixture {
  std::shared_ptr<ShardedKVStore> store;
  std::unique_ptr<Engine> engine;

  WarmFixture() {
    store = std::make_shared<ShardedKVStore>(
        ShardedKVStore::Options{.num_shards = 4, .capacity_bytes = 0});
    engine = std::make_unique<Engine>(SmallEngineOptions(), store);
    ClusterServer(*engine, store, BandwidthTrace::Constant(2.0), {})
        .Prestore(PoolTraceOptions(0, 1.0));
  }

  std::vector<RequestOutcome> Serve(size_t num_requests, double rate_hz,
                                    ClusterServer::Options copts) {
    ClusterServer server(*engine, store, BandwidthTrace::Constant(2.0), copts);
    return server.Serve(PoissonTrace(PoolTraceOptions(num_requests, rate_hz)));
  }
};

WarmFixture& Warm() {
  static WarmFixture* fx = new WarmFixture();
  return *fx;
}

// A fresh directory for a cold tier, removed with the object.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem)
      : path_(fs::temp_directory_path() /
              (stem + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

PrefixTraceOptions FamilyTraceOptions(size_t num_requests) {
  PrefixTraceOptions t;
  t.num_requests = num_requests;
  t.arrival_rate_hz = 2.0;
  t.num_families = 2;
  t.prefix_tokens = 2 * kChunkTokens;
  t.suffix_min_tokens = kChunkTokens;
  t.suffix_max_tokens = kChunkTokens;
  t.suffixes_per_family = 3;
  t.shared_fraction = 0.8;
  // Below the text-recompute time of a member: covered chunks stream KV.
  t.slo_s = 0.08;
  t.seed = 0xD16E57;
  return t;
}

// Outcomes with `flag` set; with `streamed_kv`, only those that streamed
// encoded KV (lossy quality) rather than text.
size_t Count(const std::vector<RequestOutcome>& outcomes,
             bool RequestOutcome::*flag, bool streamed_kv = false) {
  size_t n = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.*flag && (!streamed_kv || o.quality < 1.0)) ++n;
  }
  return n;
}

TEST(OutcomeDigest, WarmHitsAssembledOnFourWorkers) {
  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.assemble_kv = true;
  copts.write_back_on_miss = false;
  const auto outcomes = Warm().Serve(24, 24.0, copts);
  ASSERT_EQ(outcomes.size(), 24u);
  size_t queued = 0;
  size_t decoded = 0;
  for (const RequestOutcome& o : outcomes) {
    EXPECT_TRUE(o.cache_hit);
    if (o.queue_delay_s > 0.0) ++queued;
    if (o.quality < 1.0) ++decoded;
  }
  EXPECT_GT(queued, 0u);   // the four workers were contended
  EXPECT_GT(decoded, 0u);  // and assembly decoded real bitstreams
  EXPECT_EQ(OutcomeDigest(outcomes),
            "618331755e520662a71225676e206fa07f10a9a948c864fed6c1fa4eea568fbf");
}

TEST(OutcomeDigest, ProgressiveWarmHitsOnFourWorkers) {
  ClusterServer::Options copts;
  copts.num_workers = 4;
  copts.progressive = true;
  copts.write_back_on_miss = false;
  const auto outcomes = Warm().Serve(24, 8.0, copts);
  ASSERT_EQ(outcomes.size(), 24u);
  size_t upgraded = 0;
  size_t base_only = 0;
  for (const RequestOutcome& o : outcomes) {
    EXPECT_TRUE(o.cache_hit);
    if (o.enhanced_token_fraction > 0.0) ++upgraded;
    if (o.base_token_fraction > 0.0) ++base_only;
  }
  EXPECT_GT(upgraded, 0u);
  EXPECT_GT(base_only, 0u);
  EXPECT_EQ(OutcomeDigest(outcomes),
            "cac79552b498d635eb591b6a01d1dfe8ef6ff3c7a4a099e3f4c63b1e6a8cc7fc");
}

TEST(OutcomeDigest, TieredStoreDemotesAndPromotes) {
  const ScratchDir cold("cachegen_digest_tiered");
  TieredKVStore::Options sopts;
  sopts.hot = {.num_shards = 2, .capacity_bytes = 3u << 20};
  sopts.cold_root = cold.path();
  auto store = std::make_shared<TieredKVStore>(sopts);
  Engine engine(SmallEngineOptions(), store);

  RequestTraceOptions topts = PoolTraceOptions(20, 2.0);
  topts.num_contexts = 6;
  topts.slo_s = 0.08;
  ClusterServer::Options copts;
  copts.num_workers = 1;
  ClusterServer server(engine, store, BandwidthTrace::Constant(2.0), copts);
  // Four of the six pool contexts up front: the rest miss and write back.
  std::vector<std::pair<std::string, ContextSpec>> prestored;
  for (size_t i = 0; i < 4; ++i) {
    prestored.emplace_back(PoolContextId(i), PoolContextSpec(topts, i));
  }
  server.Prestore(prestored);
  const auto outcomes = server.Serve(PoissonTrace(topts));
  ASSERT_EQ(outcomes.size(), 20u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::cold_hit, true), 0u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::forced_text), 0u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::write_back_done), 0u);
  EXPECT_GT(store->stats().demotions, 0u);
  EXPECT_GT(store->stats().promotions, 0u);
  EXPECT_EQ(OutcomeDigest(outcomes),
            "613bbf20d67f517f300dd121af2d8afdfeb5298d7f0826ae82cf648eb53a712f");
}

TEST(OutcomeDigest, PrefixCacheOverShardedStore) {
  auto inner = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0});
  auto pc = std::make_shared<PrefixCache>(
      inner, PrefixCache::Options{.chunk_tokens = kChunkTokens});
  Engine engine(SmallEngineOptions(), pc);
  ClusterServer::Options copts;
  copts.num_workers = 1;
  ClusterServer server(engine, pc, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve(SharedPrefixTrace(FamilyTraceOptions(20)));
  ASSERT_EQ(outcomes.size(), 20u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::prefix_hit, true), 0u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::cache_hit), 0u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::forced_text), 0u);
  EXPECT_GT(pc->stats().deduped_bytes, 0u);
  EXPECT_EQ(OutcomeDigest(outcomes),
            "5c5bb732dc16c6fb1ca55a491de47ac13e1d0d7ad727b5776799122eb9a3d2f5");
}

TEST(OutcomeDigest, FourNodeFabric) {
  CacheFabric::Options f;
  f.num_nodes = 4;
  f.chunk_replicas = 2;
  f.node_store = ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0};
  f.prefix_opts.chunk_tokens = kChunkTokens;
  auto fab = std::make_shared<CacheFabric>(f);
  Engine engine(SmallEngineOptions(), fab);
  ClusterServer::Options copts;
  copts.num_workers = 1;
  ClusterServer server(engine, fab, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve(SharedPrefixTrace(FamilyTraceOptions(20)));
  ASSERT_EQ(outcomes.size(), 20u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::remote_hit, true), 0u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::prefix_hit, true), 0u);
  EXPECT_GT(Count(outcomes, &RequestOutcome::forced_text), 0u);
  for (const RequestOutcome& o : outcomes) EXPECT_GE(o.fabric_node, 0);
  EXPECT_GT(fab->stats().remote_chunk_fetches, 0u);
  EXPECT_EQ(OutcomeDigest(outcomes),
            "81aa428903d44e744c734e50861e1520bdda0ad641ec4158679dc83e8d5aaed7");
}

// ---- What Engine::StoreKV persists ------------------------------------------
// One SHA-256 over the serialized bytes of every chunk at every level of the
// named contexts, read back through the engine's store. A change to the
// write path that keeps the codec must leave both digests unchanged.

std::string StoredDigest(
    Engine& engine,
    const std::vector<std::pair<std::string, ContextSpec>>& contexts) {
  Sha256 h;
  for (const auto& [id, spec] : contexts) {
    const size_t chunks =
        SplitIntoChunks(spec.num_tokens, engine.options().chunk_tokens).size();
    for (uint32_t c = 0; c < chunks; ++c) {
      for (const EncodingLevel& level : DefaultEncodingLevels()) {
        const auto bytes = engine.store().Get({id, c, level.id});
        EXPECT_TRUE(bytes.has_value()) << id << " chunk " << c << " level "
                                       << level.id;
        if (!bytes) continue;
        h.UpdateU64(bytes->size());
        h.Update(*bytes);
      }
    }
  }
  return Sha256Hex(h.Finish());
}

TEST(StoredBytesDigest, PlainStoreWithPartialLastChunk) {
  Engine engine(SmallEngineOptions());
  // 700 tokens: two full 256-token chunks and a 188-token one, encoded from
  // one full prefill.
  const std::pair<std::string, ContextSpec> ctx{"stored-plain", {0x700, 700}};
  engine.StoreKV(ctx.first, ctx.second);
  EXPECT_EQ(StoredDigest(engine, {ctx}),
            "1608089011dd070fc4ef32cbe94629ad5a0c48c55ffc7ca37c88aa0c4797fb44");
}

TEST(StoredBytesDigest, PrefixFamilySkipsCoveredChunks) {
  auto inner = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0});
  auto pc = std::make_shared<PrefixCache>(
      inner, PrefixCache::Options{.chunk_tokens = kChunkTokens});
  Engine engine(SmallEngineOptions(), pc);
  // Two members of one family: a two-chunk shared prefix and a one-chunk
  // suffix each.
  const PrefixTraceOptions t = FamilyTraceOptions(0);
  const std::vector<std::pair<std::string, ContextSpec>> members = {
      {PrefixFamilyContextId(0, 0), PrefixFamilySpec(t, 0, 0)},
      {PrefixFamilyContextId(0, 1), PrefixFamilySpec(t, 0, 1)},
  };
  std::vector<int32_t> level_ids;
  for (const EncodingLevel& level : DefaultEncodingLevels()) {
    level_ids.push_back(level.id);
  }
  for (size_t m = 0; m < members.size(); ++m) {
    const auto& [id, spec] = members[m];
    ASSERT_EQ(SplitIntoChunks(spec.num_tokens, kChunkTokens).size(), 3u);
    pc->BeginStore(id, spec);
    // The second member finds its prefix chunks stored already: StoreKV
    // skips them and prefills only the suffix chunk (PrefillRange).
    const std::vector<bool> expect_covered =
        m == 0 ? std::vector<bool>{false, false, false}
               : std::vector<bool>{true, true, false};
    EXPECT_EQ(pc->PreStoreCoverage(id, 3, level_ids), expect_covered);
    engine.StoreKV(id, spec);
  }
  EXPECT_EQ(StoredDigest(engine, members),
            "cbf410ba6ba8bb448d759ce71469d2266a68726712b8a1d62f5fd922d523b576");
}

// ---- What Engine bring-up computes ------------------------------------------
// One SHA-256 over the engine's profile (every statistic by bit pattern, every
// histogram count) and every CodecCalibration field. Serving reads neither
// quant field; only the figure benches do, so nothing else pins them. Bring-up
// fans out to the codec pool, and the digest must not depend on its size.

std::string CalibrationDigest(Engine& engine) {
  Sha256 h;
  const auto f64 = [&h](double v) { h.UpdateU64(std::bit_cast<uint64_t>(v)); };
  const auto f64s = [&](const std::vector<double>& xs) {
    h.UpdateU64(xs.size());
    for (const double x : xs) f64(x);
  };
  const auto counts = [&h](std::span<const uint64_t> hist) {
    h.UpdateU64(hist.size());
    for (const uint64_t n : hist) h.UpdateU64(n);
  };
  const KVProfile& p = *engine.profile();
  h.UpdateU64(p.num_layers());
  h.UpdateU64(p.num_channels());
  for (size_t l = 0; l < p.num_layers(); ++l) {
    for (size_t c = 0; c < p.num_channels(); ++c) {
      for (int kind = 0; kind < 2; ++kind) {
        f64(p.RawMean(l, c, kind));
        f64(p.RawStd(l, c, kind));
        f64(p.DeltaStd(l, c, kind));
        f64(p.AnchorScale(l, c, kind));
        counts(p.AnchorHist(l, c, kind));
        counts(p.DeltaHist(l, c, kind));
        counts(p.RawHist(l, c, kind));
      }
    }
  }
  const CodecCalibration& calib = engine.calibration();
  f64s(calib.bytes_per_token_per_level);
  f64s(calib.quality_per_level);
  f64s(calib.enh_bytes_per_token_per_level);
  f64s(calib.quality_enhanced_per_level);
  for (const auto* quant : {&calib.quant_bytes_per_token, &calib.quant_quality}) {
    h.UpdateU64(quant->size());
    for (const auto& [bits, v] : *quant) {
      h.UpdateU64(static_cast<uint64_t>(bits));
      f64(v);
    }
  }
  f64(calib.text_bytes_per_token);
  return Sha256Hex(h.Finish());
}

constexpr char kCalibrationMarker[] = "CG_CALIBRATION ";

TEST(CalibrationDigest, ProfileAndCalibrationAreBitExact) {
  Engine engine(SmallEngineOptions());
  const std::string digest = CalibrationDigest(engine);
  // Read back by CalibrationDigest.SameAtOneAndFourPoolThreads.
  std::printf("%s%s\n", kCalibrationMarker, digest.c_str());
  std::fflush(stdout);
  EXPECT_EQ(digest, "02212ee5bfa03a823438f5d005f4e9ab901c73e3bb457ea349cbe264a9ef9d86");
}

// Re-execs this binary at two pool sizes: with one executor every bring-up
// loop runs inline on the calling thread, with four it fans out.
TEST(CalibrationDigest, SameAtOneAndFourPoolThreads) {
  const std::string filter = "CalibrationDigest.ProfileAndCalibrationAreBitExact";
  const std::string one = RunSelfWithThreads("1", filter, kCalibrationMarker);
  const std::string four = RunSelfWithThreads("4", filter, kCalibrationMarker);
  ASSERT_FALSE(one.empty()) << "digest run with CACHEGEN_THREADS=1 failed";
  ASSERT_FALSE(four.empty()) << "digest run with CACHEGEN_THREADS=4 failed";
  EXPECT_EQ(one, four);
}

}  // namespace
}  // namespace cachegen
