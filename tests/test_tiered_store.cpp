#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/cluster_server.h"
#include "common/rng.h"
#include "storage/tiered_kv_store.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> Blob(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

// Fresh cold-tier directory per fixture instance.
class TieredStoreTest : public ::testing::Test {
 protected:
  TieredStoreTest() {
    static std::atomic<int> counter{0};
    root_ = fs::temp_directory_path() /
            ("cachegen_tiered_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(root_);
  }
  ~TieredStoreTest() override { fs::remove_all(root_); }

  TieredKVStore::Options Opts(uint64_t hot_capacity,
                              uint64_t cold_capacity = 0) const {
    TieredKVStore::Options opts;
    opts.hot = {.num_shards = 1, .capacity_bytes = hot_capacity};
    opts.cold_root = root_;
    opts.cold_capacity_bytes = cold_capacity;
    return opts;
  }

  fs::path root_;
};

TEST_F(TieredStoreTest, EvictionDemotesInsteadOfErasing) {
  TieredKVStore store(Opts(/*hot_capacity=*/250));
  const auto payload_b = Blob(100, 2);
  store.Put({"a", 0, 0}, Blob(100, 1));
  store.Put({"b", 0, 0}, payload_b);
  // Touch "a" so "b" is the hot LRU victim.
  ASSERT_EQ(store.LookupAndPin("a", {}, 1.0).tier, KVTier::kHot);
  store.Unpin("a");
  store.Put({"c", 0, 0}, Blob(100, 3));  // 300 > 250 -> evict "b"

  EXPECT_FALSE(store.hot().ContainsContext("b"));
  EXPECT_TRUE(store.ContainsContext("b"));  // demoted, not lost
  auto stats = store.stats();
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_EQ(stats.demoted_bytes, 100u);
  EXPECT_EQ(stats.cold_bytes, 100u);
  EXPECT_EQ(stats.hot_tier.evictions, 1u);

  // Readable before the background writer runs (pending buffer)...
  ASSERT_TRUE(store.Get({"b", 0, 0}).has_value());
  EXPECT_EQ(*store.Get({"b", 0, 0}), payload_b);
  // ...and from disk after it.
  store.Flush();
  EXPECT_TRUE(fs::exists(root_ / "b" / "chunk0_level0.cgkv"));
  ASSERT_TRUE(store.Get({"b", 0, 0}).has_value());
  EXPECT_EQ(*store.Get({"b", 0, 0}), payload_b);

  // Byte accounting spans both tiers.
  EXPECT_EQ(store.TotalBytes(), 300u);
  EXPECT_EQ(store.ContextBytes("b"), 100u);
}

TEST_F(TieredStoreTest, LookupPromotesColdContextPinned) {
  TieredKVStore store(Opts(/*hot_capacity=*/250));
  const auto payload_b = Blob(100, 2);
  store.Put({"a", 0, 0}, Blob(100, 1));
  store.Put({"b", 0, 0}, payload_b);
  ASSERT_EQ(store.LookupAndPin("a", {}, 1.0).tier, KVTier::kHot);
  store.Unpin("a");
  store.Put({"c", 0, 0}, Blob(100, 3));  // demotes "b"
  store.Flush();
  ASSERT_FALSE(store.hot().ContainsContext("b"));

  // Cold hit: "b" promoted back into the hot tier, pinned; the promotion's
  // inserts push the tier over capacity again and demote the LRU ("c",
  // never touched) — cascading correctly, not erasing.
  ASSERT_EQ(store.LookupAndPin("b", {}, 2.0).tier, KVTier::kCold);
  EXPECT_TRUE(store.hot().ContainsContext("b"));
  EXPECT_EQ(*store.Get({"b", 0, 0}), payload_b);
  auto stats = store.stats();
  EXPECT_EQ(stats.cold_hits, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.promoted_bytes, 100u);
  EXPECT_EQ(stats.demotions, 2u);  // b, then c
  EXPECT_TRUE(store.ContainsContext("c"));
  EXPECT_FALSE(store.hot().ContainsContext("c"));

  // The pinned promotion survives further pressure until released.
  store.Put({"d", 0, 0}, Blob(100, 4));
  EXPECT_TRUE(store.hot().ContainsContext("b"));
  store.Unpin("b");

  // Exclusive tiering: after the promotion (and queue drain), b's cold
  // files are gone.
  store.Flush();
  EXPECT_FALSE(fs::exists(root_ / "b"));
  EXPECT_TRUE(fs::exists(root_ / "c"));
}

TEST_F(TieredStoreTest, ColdCapacityEvictsLruForReal) {
  TieredKVStore store(Opts(/*hot_capacity=*/150, /*cold_capacity=*/150));
  store.Put({"a", 0, 0}, Blob(100, 1));
  store.Put({"b", 0, 0}, Blob(100, 2));  // demotes "a" (cold: 100)
  store.Put({"c", 0, 0}, Blob(100, 3));  // demotes "b" (cold: 200 > 150)
  store.Flush();

  // Cold LRU (both stamps 0, id tie-break) evicted "a" for good.
  auto stats = store.stats();
  EXPECT_EQ(stats.cold_evictions, 1u);
  EXPECT_EQ(stats.cold_evicted_bytes, 100u);
  EXPECT_LE(stats.cold_bytes, 150u);
  EXPECT_FALSE(store.ContainsContext("a"));
  EXPECT_EQ(store.LookupAndPin("a", {}, 5.0).tier, KVTier::kMiss);
  EXPECT_TRUE(store.ContainsContext("b"));
  EXPECT_FALSE(fs::exists(root_ / "a"));
}

TEST_F(TieredStoreTest, ColdTierSurvivesRestart) {
  const auto payload = Blob(64, 7);
  {
    TieredKVStore store(Opts(/*hot_capacity=*/100));
    store.Put({"keep-me", 0, 2}, payload);
    store.Put({"keep-me", 1, 2}, payload);
    store.Put({"newer", 0, 0}, Blob(80, 9));  // demotes "keep-me"
    store.Flush();
    ASSERT_FALSE(store.hot().ContainsContext("keep-me"));
    ASSERT_TRUE(store.ContainsContext("keep-me"));
  }
  // Simulate a writer that died mid-persist: chunk files but no completion
  // sentinel. The partial context must be reclaimed, never adopted.
  fs::create_directories(root_ / "half-written");
  {
    std::ofstream chunk(root_ / "half-written" / "chunk0_level0.cgkv",
                        std::ios::binary);
    chunk << "orphaned-bytes";
  }
  {
    TieredKVStore store(Opts(/*hot_capacity=*/1000));
    // The committed context was adopted from disk at construction...
    EXPECT_TRUE(store.ContainsContext("keep-me"));
    EXPECT_EQ(store.stats().cold_bytes, 128u);
    ASSERT_EQ(store.LookupAndPin("keep-me", {}, 1.0).tier, KVTier::kCold);
    ASSERT_TRUE(store.Get({"keep-me", 0, 2}).has_value());
    EXPECT_EQ(*store.Get({"keep-me", 0, 2}), payload);
    EXPECT_EQ(*store.Get({"keep-me", 1, 2}), payload);
    store.Unpin("keep-me");
    // ...while the crash debris was refused and cleaned up.
    EXPECT_FALSE(store.ContainsContext("half-written"));
    EXPECT_FALSE(fs::exists(root_ / "half-written"));
  }
}

TEST_F(TieredStoreTest, EraseContextClearsBothTiers) {
  TieredKVStore store(Opts(/*hot_capacity=*/150));
  store.Put({"a", 0, 0}, Blob(100, 1));
  store.Put({"b", 0, 0}, Blob(100, 2));  // demotes "a"
  store.Flush();
  ASSERT_TRUE(store.ContainsContext("a"));
  store.EraseContext("a");  // cold copy
  store.EraseContext("b");  // hot copy
  store.Flush();
  EXPECT_FALSE(store.ContainsContext("a"));
  EXPECT_FALSE(store.ContainsContext("b"));
  EXPECT_EQ(store.TotalBytes(), 0u);
  EXPECT_FALSE(fs::exists(root_ / "a"));
}

// Demotions, promotions, lookups, and writes racing across threads: the
// manifest state machine must keep every context readable from exactly the
// tier that owns it, with coherent counters. (Also runs under TSan in CI.)
TEST_F(TieredStoreTest, ConcurrentDemoteWhileLookupKeepsInvariants) {
  constexpr size_t kThreads = 6;
  constexpr size_t kOpsPerThread = 400;
  constexpr size_t kContexts = 12;
  TieredKVStore store(Opts(/*hot_capacity=*/24 * 1024));

  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &lookups, t] {
      Rng rng(0x7EEEED00ULL + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const std::string id = "ctx-" + std::to_string(rng.NextBelow(kContexts));
        switch (rng.NextBelow(3)) {
          case 0: {
            const uint32_t chunk = static_cast<uint32_t>(rng.NextBelow(3));
            store.Put({id, chunk, 0},
                      Blob(512 + rng.NextBelow(3072), static_cast<uint8_t>(t)));
            break;
          }
          case 1:
            (void)store.Get({id, 0, 0});
            break;
          default:
            lookups.fetch_add(1);
            if (store.LookupAndPin(id, {}, static_cast<double>(i)).hit()) {
              (void)store.Get({id, 0, 0});
              store.Unpin(id);
            }
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  store.Flush();

  const auto stats = store.stats();
  EXPECT_EQ(stats.hot_hits + stats.cold_hits + stats.misses, lookups.load());
  // The working set (12 ctx * up to 3 chunks * ~2 KB) overflows 24 KB of hot
  // RAM, so the chaos must have demoted; promotions follow from re-lookups.
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.cold_hits, 0u);

  // Post-chaos: every context still resolves consistently — a non-miss
  // lookup lands it in the hot tier, pinned and readable.
  for (size_t c = 0; c < kContexts; ++c) {
    const std::string id = "ctx-" + std::to_string(c);
    if (!store.LookupAndPin(id, {}, 1e6).hit()) {
      EXPECT_FALSE(store.ContainsContext(id));
      continue;
    }
    EXPECT_TRUE(store.hot().ContainsContext(id));
    store.Unpin(id);
  }
}

// Lookups and reads racing one promotion of the same cold context all find
// it: the promotion holds promote_mu_, and a call that missed the hot tier
// while it ran asks the hot tier again once it holds the lock. Half the
// threads look the context up (one of them promotes it), half read it.
TEST_F(TieredStoreTest, CallsRacingAPromotionAllFindTheContext) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 40;
  TieredKVStore store(Opts(/*hot_capacity=*/150));  // one context fits
  const auto payload = Blob(100, 1);
  store.Put({"x", 0, 0}, payload);
  for (size_t r = 0; r < kRounds; ++r) {
    store.Put({"filler" + std::to_string(r), 0, 0}, Blob(100, 2));
    ASSERT_FALSE(store.hot().ContainsContext("x"));  // demoted
    std::atomic<size_t> started{0};
    std::atomic<size_t> hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        started.fetch_add(1);
        while (started.load() < kThreads) std::this_thread::yield();
        if (t % 2 == 1) {
          const auto bytes = store.Get({"x", 0, 0});
          EXPECT_TRUE(bytes && *bytes == payload);
          EXPECT_TRUE(store.ContainsContext("x"));
        } else if (store.LookupAndPin("x", {}, static_cast<double>(r)).hit()) {
          hits.fetch_add(1);
          store.Unpin("x");
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(hits.load(), kThreads / 2);
  }
  const auto stats = store.stats();
  EXPECT_EQ(stats.promotions, kRounds);
  EXPECT_EQ(stats.cold_hits, kRounds);
  EXPECT_EQ(stats.hot_hits, kRounds * (kThreads / 2 - 1));
  EXPECT_EQ(stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// Cluster integration: the cold tier as the third request outcome.
// ---------------------------------------------------------------------------

TEST_F(TieredStoreTest, ClusterColdHitStreamsKvNeverForcedText) {
  RequestTraceOptions topts;
  topts.num_requests = 10;
  topts.num_contexts = 3;
  topts.zipf_exponent = 0.0;  // uniform: all three contexts get traffic
  // Long contexts + an SLO below the text-recompute time force KV levels,
  // so a cold hit's quality is visibly the codec's, not the text path's 1.0.
  topts.min_tokens = 4500;
  topts.max_tokens = 6000;
  topts.arrival_rate_hz = 1.0;
  topts.slo_s = 0.8;
  topts.seed = 0xC01Du;

  Engine::Options eopts;
  eopts.model_name = "mistral-7b";
  eopts.calib_context_tokens = 600;
  eopts.calib_num_contexts = 4;

  // A hot tier smaller than any context: prime the pool with marker chunks
  // (the streaming timeline never reads chunk bytes with assemble_kv off) —
  // only the most recently written context stays hot, the rest demote. Every
  // request is then a hot hit, a cold hit, or (never, here) a miss.
  auto store = std::make_shared<TieredKVStore>(Opts(/*hot_capacity=*/1));
  Engine engine(eopts, store);
  for (size_t i = 0; i < topts.num_contexts; ++i) {
    const uint8_t marker[] = {1, 2, 3};
    store->Put({PoolContextId(i), 0, 0}, marker);
  }
  ASSERT_GT(store->stats().demotions, 0u);

  ClusterServer::Options copts;
  copts.num_workers = 2;
  copts.write_back_on_miss = false;
  ClusterServer server(engine, store, BandwidthTrace::Constant(2.0), copts);
  const auto outcomes = server.Serve(PoissonTrace(topts));
  ASSERT_EQ(outcomes.size(), topts.num_requests);
  size_t cold_hits = 0;
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.cache_hit);  // nothing was erased, so nothing can miss
    EXPECT_FALSE(o.forced_text);
    if (o.cold_hit) {
      ++cold_hits;
      // A cold hit streams encoded KV: real (lossy) quality, not the text
      // path's 1.0.
      EXPECT_LT(o.quality, 1.0);
      EXPECT_GT(o.quality, 0.4);
    }
  }
  EXPECT_GT(cold_hits, 0u);
  const ClusterSummary s = Summarize(outcomes);
  EXPECT_GT(s.cold_hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(s.hot_hit_rate + s.cold_hit_rate + s.miss_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.miss_rate, 0.0);
  EXPECT_GT(store->stats().promotions, 0u);
}

// ---------------------------------------------------------------------------
// Persistent cold-tier manifest.
// ---------------------------------------------------------------------------

TEST_F(TieredStoreTest, ManifestRecoversMangledIdsAndLruStampsAcrossRestart) {
  // An id that cannot round-trip through SanitizeContextId: without the
  // manifest a restart would orphan its cold directory forever.
  const std::string evil = "tenant/7:../system prompt";
  const auto payload = Blob(64, 7);
  {
    TieredKVStore store(Opts(/*hot_capacity=*/100));
    store.Put({evil, 0, 0}, payload);
    store.Touch(evil, 3.5);
    store.Put({"newer", 0, 0}, Blob(80, 9));  // demotes the mangled context
    store.Flush();
    ASSERT_TRUE(store.ContainsContext(evil));
    EXPECT_TRUE(fs::exists(root_ / "MANIFEST"));
  }
  {
    TieredKVStore store(Opts(/*hot_capacity=*/1000));
    // Adopted under its ORIGINAL id, LRU stamp intact — a cold hit, where
    // the pre-manifest store could only miss.
    EXPECT_TRUE(store.ContainsContext(evil));
    ASSERT_EQ(store.LookupAndPin(evil, {}, 10.0).tier, KVTier::kCold);
    ASSERT_TRUE(store.Get({evil, 0, 0}).has_value());
    EXPECT_EQ(*store.Get({evil, 0, 0}), payload);
    store.Unpin(evil);
  }
}

TEST_F(TieredStoreTest, UnmanifestedMangledDirectoriesAreReclaimed) {
  // A sentinel-complete directory whose name neither round-trips nor appears
  // in any manifest is unreachable forever; restart reclaims it instead of
  // leaking dead bytes against the cold budget.
  const std::string orphan_dir = "lost%00000000000000000000000000000000";
  fs::create_directories(root_ / orphan_dir);
  {
    std::ofstream chunk(root_ / orphan_dir / "chunk0_level0.cgkv",
                        std::ios::binary);
    chunk << "unreachable";
  }
  {
    std::ofstream sentinel(root_ / orphan_dir / "COMPLETE", std::ios::binary);
    sentinel << '1';
  }
  TieredKVStore store(Opts(/*hot_capacity=*/1000));
  EXPECT_EQ(store.stats().cold_bytes, 0u);
  EXPECT_FALSE(fs::exists(root_ / orphan_dir));
}

TEST_F(TieredStoreTest, ManifestRowNamingAnotherDirectoryIsIgnored) {
  const auto payload_a = Blob(60, 1);
  const auto payload_b = Blob(70, 2);
  {
    TieredKVStore store(Opts(/*hot_capacity=*/100));
    store.Put({"a", 0, 0}, payload_a);
    store.Put({"b", 0, 0}, payload_b);  // demotes "a"
    store.Put({"hot", 0, 0}, Blob(90, 3));  // demotes "b"
    store.Flush();
    ASSERT_TRUE(fs::exists(root_ / "a"));
    ASSERT_TRUE(fs::exists(root_ / "b"));
  }
  // The MANIFEST is read back from disk: a row that maps directory "a" to
  // id "b" (hex 62) must not register a's bytes under b's id.
  {
    std::ofstream manifest(root_ / "MANIFEST", std::ios::trunc);
    manifest << "cachegen-cold-manifest-v1\na 62 0000000000000000\n";
  }
  TieredKVStore store(Opts(/*hot_capacity=*/1000));
  ASSERT_TRUE(store.ContainsContext("a"));
  ASSERT_TRUE(store.ContainsContext("b"));
  EXPECT_EQ(store.stats().cold_bytes, 130u);
  for (const auto& [id, payload] :
       {std::pair{"a", payload_a}, std::pair{"b", payload_b}}) {
    ASSERT_EQ(store.LookupAndPin(id, {}, 1.0).tier, KVTier::kCold) << id;
    ASSERT_TRUE(store.Get({id, 0, 0}).has_value()) << id;
    EXPECT_EQ(*store.Get({id, 0, 0}), payload) << id;
    store.Unpin(id);
  }
  store.EraseContext("a");
  store.EraseContext("b");
  store.Flush();
  EXPECT_EQ(store.stats().cold_bytes, 0u);
  EXPECT_EQ(store.TotalBytes(), 0u);
  EXPECT_FALSE(fs::exists(root_ / "a"));
  EXPECT_FALSE(fs::exists(root_ / "b"));
}

TEST_F(TieredStoreTest, ManifestPreservesColdLruOrderAcrossRestart) {
  {
    TieredKVStore store(Opts(/*hot_capacity=*/100));
    store.Put({"old", 0, 0}, Blob(60, 1));
    store.Touch("old", 1.0);
    store.Put({"fresh", 0, 0}, Blob(60, 2));
    store.Touch("fresh", 9.0);
    // Both demoted (hot keeps only the newest), stamps 1.0 and 9.0.
    store.Put({"hot", 0, 0}, Blob(90, 3));
    store.Flush();
    ASSERT_TRUE(store.ContainsContext("old"));
    ASSERT_TRUE(store.ContainsContext("fresh"));
  }
  // Restart with a cold budget that fits only one of them: the recovered
  // stamps must make "old" — not id order or adoption order — the victim.
  TieredKVStore store(Opts(/*hot_capacity=*/1000, /*cold_capacity=*/70));
  store.Flush();
  EXPECT_FALSE(store.ContainsContext("old"));
  EXPECT_TRUE(store.ContainsContext("fresh"));
}

}  // namespace
}  // namespace cachegen
