// Golden outcome digests: six fixed serving traces, each reduced to one
// SHA-256 over every field of every RequestOutcome (doubles by bit pattern),
// compared against committed values. A refactor of the serving path must
// leave all six unchanged; a change that moves any outcome by one ulp, one
// flag or one worker index changes a digest.
//
// The arrangements cover the serving scenarios: warm hits decoded into real
// KV, progressive delivery, hot/cold tiering, partial prefix hits, remote
// hits on a multi-node fabric, and write-back with assembly and demotion on
// four workers. Each asserts that its scenario occurred, so a digest cannot
// stay green by pinning a trace that never exercises it.
//
// Two more digests pin the bytes Engine::StoreKV persists (StoredBytesDigest),
// one pins what Engine bring-up computes (CalibrationDigest), and two pin the
// fixed-share GPU timeline of private-link streams and of TTFTModel
// (StreamTimelineDigest).
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_server.h"
#include "common/sha256.h"
#include "fabric/cache_fabric.h"
#include "llm/cost_model.h"
#include "net/link.h"
#include "prefix/prefix_cache.h"
#include "self_exec.h"
#include "serving/ttft.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"
#include "streamer/streamer.h"
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
    f64(1.0);  // retired link weight (always 1.0): the digests keep it

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

// Write-back, assembly and demotion together on four workers: a prefix
// cache over a tiered store whose hot tier holds a few chunks, so misses
// write back, write-backs and promotions demote, and hits assemble. Lookups,
// write-backs and unpins run in virtual-time order, so the digest is the
// same on every run: three serves on fresh tiers must agree.
TEST(OutcomeDigest, PrefixWriteBackAssembledOnFourWorkers) {
  std::set<std::string> digests;
  for (int run = 0; run < 3; ++run) {
    const ScratchDir cold("cachegen_digest_prefix_tiered" + std::to_string(run));
    TieredKVStore::Options sopts;
    sopts.hot = {.num_shards = 2, .capacity_bytes = 2u << 20};
    sopts.cold_root = cold.path();
    auto store = std::make_shared<TieredKVStore>(sopts);
    auto pc = std::make_shared<PrefixCache>(
        store, PrefixCache::Options{.chunk_tokens = kChunkTokens});
    Engine engine(SmallEngineOptions(), pc);
    ClusterServer::Options copts;
    copts.num_workers = 4;
    copts.assemble_kv = true;
    copts.write_back_on_miss = true;
    ClusterServer server(engine, pc, BandwidthTrace::Constant(2.0), copts);
    PrefixTraceOptions topts = FamilyTraceOptions(24);
    topts.arrival_rate_hz = 8.0;
    const auto outcomes = server.Serve(SharedPrefixTrace(topts));
    ASSERT_EQ(outcomes.size(), 24u);
    size_t queued = 0;
    std::set<size_t> workers;
    for (const RequestOutcome& o : outcomes) {
      if (o.queue_delay_s > 0.0) ++queued;
      workers.insert(o.worker);
    }
    EXPECT_GT(queued, 0u);
    EXPECT_EQ(workers.size(), 4u);
    EXPECT_GT(Count(outcomes, &RequestOutcome::cache_hit, true), 0u);
    EXPECT_GT(Count(outcomes, &RequestOutcome::cold_hit), 0u);
    EXPECT_GT(Count(outcomes, &RequestOutcome::prefix_hit), 0u);
    EXPECT_GT(Count(outcomes, &RequestOutcome::forced_text), 0u);
    EXPECT_GT(Count(outcomes, &RequestOutcome::write_back_done), 0u);
    EXPECT_GT(store->stats().demotions, 0u);
    EXPECT_GT(store->stats().promotions, 0u);
    digests.insert(OutcomeDigest(outcomes));
  }
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(*digests.begin(),
            "a89eb2e4ff2cd27edad18ddad041334b5b0c19c1a8d3961b093749b523a811ba");
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

// ---- Fixed-share GPU timelines ----------------------------------------------
// One SHA-256 over every StreamStep and StreamResult field (doubles by bit
// pattern) of KVStreamer::Stream over private links, and one over every
// TTFTBreakdown field of TTFTModel::CacheGen and CacheGenAuto. Both price GPU
// work at a fixed share with the §6 transfer/decode pipeline; a change to how
// that timeline is computed must leave both digests unchanged.

// Per-level base and enhancement sizes at the real Mistral-7B geometry; the
// last chunk is partial unless `tokens` is a multiple of the chunk size.
ContextPlan TimelinePlan(size_t tokens, bool layered) {
  const ModelConfig m = ModelConfig::Preset("mistral-7b");
  const std::vector<double> bits = {3.2, 2.3, 1.7, 1.2};
  const std::vector<double> enh_bits = {1.2, 1.6, 2.0, 2.4};
  ContextPlan plan;
  plan.total_tokens = tokens;
  plan.quality_per_level = {0.995, 0.98, 0.93, 0.85};
  if (layered) plan.quality_enhanced_per_level = {0.999, 0.997, 0.99, 0.97};
  for (const ChunkRange& range : SplitIntoChunks(tokens)) {
    ChunkPlan cp;
    cp.range = range;
    const double raw = m.RawKVBytes(range.size()) / 16.0;
    for (const double b : bits) cp.bytes_per_level.push_back(raw * b);
    if (layered) {
      for (const double b : enh_bits) cp.enh_bytes_per_level.push_back(raw * b);
    }
    plan.chunks.push_back(std::move(cp));
  }
  return plan;
}

// Every StreamStep and StreamResult field, in declaration order.
void HashStream(Sha256& h, const StreamResult& r) {
  const auto f64 = [&h](double v) { h.UpdateU64(std::bit_cast<uint64_t>(v)); };
  h.UpdateU64(r.steps.size());
  for (const StreamStep& s : r.steps) {
    h.UpdateU64(s.chunk_index);
    h.UpdateU32(s.config.text ? 1u : 0u);
    h.UpdateU64(static_cast<uint64_t>(static_cast<int64_t>(s.config.level_id)));
    h.UpdateU32(s.config.layered ? 1u : 0u);
    f64(s.tx_start_s);
    f64(s.tx_end_s);
    f64(s.gpu_done_s);
    f64(s.bytes);
    h.UpdateU32((s.enhancement ? 1u : 0u) | (s.aborted ? 2u : 0u));
  }
  f64(r.load_finish_s);
  f64(r.ttft_s);
  h.UpdateU32(r.slo_violated ? 1u : 0u);
  f64(r.quality);
  f64(r.bytes_sent);
  f64(r.base_quality);
  f64(r.stream_finish_s);
  f64(r.base_token_fraction);
  f64(r.enhanced_token_fraction);
  h.UpdateU64(r.enhancements_sent);
  h.UpdateU64(r.enhancements_aborted);
}

TEST(StreamTimelineDigest, PrivateLinkStreams) {
  const CostModel cost;
  const ModelConfig model = ModelConfig::Preset("mistral-7b");
  struct TraceCase {
    BandwidthTrace trace;
    double start_s;
  };
  const std::vector<TraceCase> traces = {
      {BandwidthTrace::Constant(3.0), 0.0},
      {BandwidthTrace::Figure7(), 0.0},
      {BandwidthTrace::Random(0x5EED, 0.1, 10.0, 0.5, 60.0), 0.0},
      // Low bandwidth, joined after the link has been up for a while.
      {BandwidthTrace::FromSegments({{0.0, 4.0}, {1.0, 0.3}, {5.0, 0.1}}), 2.5},
  };
  // One chunk, a partial last chunk, and many chunks; each with and without
  // layered data.
  std::vector<ContextPlan> plans;
  for (const size_t tokens : {1500u, 4000u, 15000u}) {
    for (const bool layered : {false, true}) {
      plans.push_back(TimelinePlan(tokens, layered));
    }
  }
  const std::vector<std::optional<double>> hints = {std::nullopt, 0.1, 20.0};

  Sha256 h;
  size_t streams = 0, violated = 0, enhanced = 0, aborted = 0, text = 0;
  size_t gpu_queued = 0, gpu_idle = 0;
  for (const double slo : {0.3, 1.0, 4.0}) {
    const KVStreamer streamer(cost, model, slo, 4);
    for (const ContextPlan& plan : plans) {
      for (const TraceCase& tc : traces) {
        for (const bool throttled : {false, true}) {
          for (const double share : {1.0, 0.5, 0.25}) {
            for (const std::optional<double>& hint : hints) {
              for (const StreamMode mode :
                   {StreamMode::kAdaptive, StreamMode::kProgressive}) {
                for (const size_t limit : {SIZE_MAX, size_t{0}, size_t{1}, size_t{3}}) {
                  Link link(tc.trace, tc.start_s);
                  std::optional<ThrottledLink> cold;
                  if (throttled) cold.emplace(link, 1.5, 0.02);
                  Link& path = throttled ? static_cast<Link&>(*cold) : link;
                  const StreamResult r =
                      streamer.Stream(plan, path, share, hint, mode, limit);
                  HashStream(h, r);
                  ++streams;
                  if (r.slo_violated) ++violated;
                  enhanced += r.enhancements_sent;
                  aborted += r.enhancements_aborted;
                  for (size_t i = 0; i < r.steps.size(); ++i) {
                    if (r.steps[i].config.text) ++text;
                    if (i == 0) continue;
                    // Whether the GPU was still busy when this step arrived.
                    if (r.steps[i - 1].gpu_done_s > r.steps[i].tx_end_s) {
                      ++gpu_queued;
                    } else {
                      ++gpu_idle;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(streams, 10368u);
  EXPECT_GT(violated, 0u);
  EXPECT_LT(violated, streams);
  EXPECT_GT(enhanced, 0u);
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(text, 0u);
  EXPECT_GT(gpu_queued, 0u);
  EXPECT_GT(gpu_idle, 0u);
  EXPECT_EQ(Sha256Hex(h.Finish()),
            "877617c7bd183137f31ef202417144cf8bc1b776e8369ad40c1f5fb5f379d403");
}

TEST(StreamTimelineDigest, TtftModelCacheGen) {
  const CostModel cost;
  const ModelConfig model = ModelConfig::Preset("mistral-7b");
  CodecCalibration calib;
  for (const double bits : {3.2, 2.3, 1.7, 1.2}) {
    calib.bytes_per_token_per_level.push_back(model.RawKVBytes(1) / 16.0 * bits);
  }
  calib.quality_per_level = {0.995, 0.98, 0.93, 0.85};

  Sha256 h;
  const auto hash = [&h](const TTFTBreakdown& b) {
    const auto f64 = [&h](double v) { h.UpdateU64(std::bit_cast<uint64_t>(v)); };
    f64(b.network_s);
    f64(b.compute_s);
    f64(b.decode_exposed_s);
    f64(b.dequant_s);
    f64(b.prompt_s);
    f64(b.bytes);
    f64(b.quality);
  };
  size_t points = 0, auto_text = 0, auto_kv = 0, hidden = 0;
  for (const size_t chunk_tokens : {size_t{1500}, size_t{256}}) {
    const TTFTModel ttft(cost, model, calib, chunk_tokens);
    for (const size_t tokens : {0u, 700u, 1500u, 5000u, 20000u}) {
      for (const double bw : {0.2, 1.0, 3.0, 10.0}) {
        for (const double share : {1.0, 0.5, 0.25}) {
          for (int level = 0; level < 4; ++level) {
            const TTFTBreakdown piped = ttft.CacheGen(tokens, bw, share, level);
            const TTFTBreakdown serial =
                ttft.CacheGen(tokens, bw, share, level, /*pipelined=*/false);
            const TTFTBreakdown best = ttft.CacheGenAuto(tokens, bw, share, level);
            hash(piped);
            hash(serial);
            hash(best);
            points += 3;
            if (piped.decode_exposed_s < serial.decode_exposed_s) ++hidden;
            if (best.compute_s > 0.0) {
              ++auto_text;
            } else {
              ++auto_kv;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(points, 1440u);
  EXPECT_GT(auto_text, 0u);
  EXPECT_GT(auto_kv, 0u);
  EXPECT_GT(hidden, 0u);
  EXPECT_EQ(Sha256Hex(h.Finish()),
            "dd70e5156372f0d8db5c60597748fe0e9da64fdb59f44d07b869e0c321d4a735");
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
