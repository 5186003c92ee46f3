#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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

// The MANIFEST's rows after its header, as (directory, hex id, stamp)
// tokens.
std::vector<std::array<std::string, 3>> ManifestRows(const fs::path& root) {
  std::ifstream in(root / "MANIFEST");
  std::string header;
  std::getline(in, header);
  std::vector<std::array<std::string, 3>> rows;
  std::array<std::string, 3> row;
  while (in >> row[0] >> row[1] >> row[2]) rows.push_back(row);
  return rows;
}

std::optional<double> StampValue(const std::string& hex) {
  if (hex.size() != 16 ||
      hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return std::nullopt;
  }
  const uint64_t bits = std::stoull(hex, nullptr, 16);
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// A stamp the cold LRU can order: 16 hex digits of a finite, non-negative
// double.
bool ValidStamp(const std::string& hex) {
  const auto d = StampValue(hex);
  return d && std::isfinite(*d) && *d >= 0.0;
}

// Names directly under `dir`.
std::set<std::string> Listing(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    names.insert(e.path().filename().string());
  }
  return names;
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

  // Readable before Flush() writes it (pending buffer)...
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

  // Exclusive tiering: after the promotion and the next Flush(), b's cold
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
  // Simulate a Flush() that died mid-persist: chunk files but no completion
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

// Flush() is the cold tier's only disk writer after construction:
// demotions, promotions and erases leave cold_root untouched until it runs.
// Then the directory holds exactly the cold tier's contexts, each committed
// by its sentinel and listed by one MANIFEST row.
TEST_F(TieredStoreTest, FlushIsTheColdTiersOnlyDiskWriter) {
  TieredKVStore store(Opts(/*hot_capacity=*/250));
  std::vector<std::string> ids = {"tenant/3:system prompt"};  // '%'-mangled
  for (int i = 0; i < 7; ++i) ids.push_back("ctx-" + std::to_string(i));
  for (size_t i = 0; i < ids.size(); ++i) {
    store.Put({ids[i], 0, 0}, Blob(60, static_cast<uint8_t>(i)));
    store.Put({ids[i], 1, 0}, Blob(40, static_cast<uint8_t>(i)));
    store.Touch(ids[i], 1.0 + static_cast<double>(i));
  }
  // Eight 100-byte contexts in 250 hot bytes: all but the newest two demote.
  ASSERT_EQ(store.stats().demotions, 6u);
  // A promotion from RAM (demoting ctx-5) and an erase of a cold context.
  ASSERT_EQ(store.LookupAndPin("ctx-0", {}, 10.0).tier, KVTier::kCold);
  store.Unpin("ctx-0");
  store.EraseContext("ctx-1");
  EXPECT_TRUE(fs::is_empty(root_));

  const auto check_disk = [&] {
    std::set<std::string> cold_dirs;
    for (const std::string& id : ids) {
      if (store.ContainsContext(id) && !store.hot().ContainsContext(id)) {
        cold_dirs.insert(SanitizeContextId(id));
      }
    }
    std::set<std::string> expected = cold_dirs;
    expected.insert("MANIFEST");
    EXPECT_EQ(Listing(root_), expected);
    for (const std::string& dir : cold_dirs) {
      EXPECT_TRUE(fs::exists(root_ / dir / "COMPLETE")) << dir;
    }
    std::multiset<std::string> row_dirs;
    for (const auto& row : ManifestRows(root_)) row_dirs.insert(row[0]);
    EXPECT_EQ(row_dirs, std::multiset<std::string>(cold_dirs.begin(),
                                                   cold_dirs.end()));
    return cold_dirs;
  };
  store.Flush();
  EXPECT_EQ(check_disk(),
            (std::set<std::string>{SanitizeContextId(ids[0]), "ctx-2", "ctx-3",
                                   "ctx-4", "ctx-5"}));

  // A promotion from disk (demoting ctx-6) changes nothing on disk until
  // the next Flush(), which removes ctx-2 and writes ctx-6.
  const auto before = Listing(root_);
  ASSERT_EQ(store.LookupAndPin("ctx-2", {}, 11.0).tier, KVTier::kCold);
  store.Unpin("ctx-2");
  EXPECT_EQ(Listing(root_), before);
  store.Flush();
  EXPECT_EQ(check_disk(),
            (std::set<std::string>{SanitizeContextId(ids[0]), "ctx-3", "ctx-4",
                                   "ctx-5", "ctx-6"}));
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

// A MANIFEST stamp is honoured only as 16 hex digits of a finite,
// non-negative double. A NaN is unordered in the cold LRU, so the eviction
// order of its row would depend on hash order; a stamp with trailing junk
// is not the writer's either. Each such row falls back to the round-trip
// rule like a row with a bad id, at stamp 0.
TEST_F(TieredStoreTest, CorruptManifestStampsAreSkipped) {
  {
    TieredKVStore store(Opts(/*hot_capacity=*/100));
    for (const char* id : {"a", "b", "c", "d", "hot"}) {
      store.Put({id, 0, 0}, Blob(60, 1));  // demotes the previous id
    }
    store.Flush();
  }
  {
    std::ofstream manifest(root_ / "MANIFEST", std::ios::trunc);
    manifest << "cachegen-cold-manifest-v1\n"
             << "a 61 3ff0000000000000\n"     // 1.0
             << "b 62 7ff8000000000000\n"     // NaN
             << "c 63 4000000000000000\n"     // 2.0
             << "d 64 4000000000000000zz\n";  // 2.0 with trailing junk
  }
  // Room for one context: the LRU evicts b and d (stamp 0), then a (1.0);
  // the newest valid stamp survives.
  TieredKVStore store(Opts(/*hot_capacity=*/1000, /*cold_capacity=*/100));
  EXPECT_TRUE(store.ContainsContext("c"));
  for (const char* id : {"a", "b", "d"}) EXPECT_FALSE(store.ContainsContext(id)) << id;
  store.Flush();
  const auto rows = ManifestRows(root_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "c");
  EXPECT_EQ(rows[0][2], "4000000000000000");
}

// A seeded mutation test of the MANIFEST reader, whose file is outside
// input: bit flips, truncations, duplicated and spliced rows, and bit flips
// of a row's stamp value. Every restart must construct, adopt only contexts
// whose chunks read back byte-identical (a row whose id sanitizes to
// another directory is never honoured), and adopt no stamp the cold LRU
// cannot order.
TEST_F(TieredStoreTest, ManifestMutationsNeverAdoptCorruptRows) {
  // Plain ids always fall back to the round-trip rule; '%'-mangled ones are
  // reachable only through their own row.
  const std::vector<std::string> ids = {"p0", "p1", "p2", "tenant/0:sys",
                                        "a b", "x/../y"};
  const auto payload = [](size_t i, uint32_t chunk) {
    return Blob(40 + 8 * i + chunk, static_cast<uint8_t>(16 * i + chunk));
  };
  TieredKVStore::Options base = Opts(/*hot_capacity=*/1);
  base.cold_root = root_ / "base";
  {
    TieredKVStore store(base);
    for (size_t i = 0; i < ids.size(); ++i) {
      for (uint32_t c = 0; c < 2; ++c) store.Put({ids[i], c, 0}, payload(i, c));
      store.Touch(ids[i], 1.0 + static_cast<double>(i));
    }
    store.Put({"last", 0, 0}, Blob(1, 0));  // demotes the last id
    store.Flush();
  }
  ASSERT_EQ(ManifestRows(base.cold_root).size(), ids.size());
  std::string manifest;
  {
    std::ifstream in(base.cold_root / "MANIFEST", std::ios::binary);
    manifest.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto split = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  const auto join = [](const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& line : lines) text += line + '\n';
    return text;
  };

  TieredKVStore::Options trial = base;
  trial.cold_root = root_ / "trial";
  Rng rng(0xC01DF00D);
  size_t unorderable_stamps = 0;
  for (int t = 0; t < 200; ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    std::string text = manifest;
    for (uint64_t m = 1 + rng.NextBelow(3); m > 0; --m) {
      std::vector<std::string> lines = split(text);
      const auto row = [&] { return 1 + rng.NextBelow(lines.size() - 1); };
      switch (rng.NextBelow(5)) {
        case 0:  // bit flips anywhere in the file
          for (uint64_t f = 1 + rng.NextBelow(4); f > 0 && !text.empty(); --f) {
            text[rng.NextBelow(text.size())] ^=
                static_cast<char>(1u << rng.NextBelow(8));
          }
          continue;
        case 1:  // truncation
          text.resize(rng.NextBelow(text.size() + 1));
          continue;
        case 2: {  // a duplicated row
          if (lines.size() < 2) continue;
          const std::string dup = lines[row()];
          lines.insert(lines.begin() + static_cast<long>(row()), dup);
          break;
        }
        case 3: {  // one row's head spliced onto another's tail
          if (lines.size() < 2) continue;
          const std::string& a = lines[row()];
          const std::string& b = lines[row()];
          std::string spliced = a.substr(0, rng.NextBelow(a.size() + 1));
          spliced += b.substr(rng.NextBelow(b.size() + 1));
          lines[row()] = std::move(spliced);
          break;
        }
        default: {  // one bit of a row's stamp value
          if (lines.size() < 2) continue;
          std::string& line = lines[row()];
          const size_t sp = line.rfind(' ');
          if (sp == std::string::npos || !StampValue(line.substr(sp + 1))) continue;
          const uint64_t bits = std::stoull(line.substr(sp + 1), nullptr, 16) ^
                                (uint64_t{1} << rng.NextBelow(64));
          char hex[17];
          std::snprintf(hex, sizeof(hex), "%016llx",
                        static_cast<unsigned long long>(bits));
          line = line.substr(0, sp + 1) + hex;
          if (!ValidStamp(hex)) ++unorderable_stamps;
          break;
        }
      }
      text = join(lines);
    }
    fs::remove_all(trial.cold_root);
    fs::copy(base.cold_root, trial.cold_root, fs::copy_options::recursive);
    {
      std::ofstream out(trial.cold_root / "MANIFEST",
                        std::ios::binary | std::ios::trunc);
      out << text;
    }

    std::unique_ptr<TieredKVStore> store;
    ASSERT_NO_THROW(store = std::make_unique<TieredKVStore>(trial));
    uint64_t adopted_bytes = 0;
    size_t adopted = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!store->ContainsContext(ids[i])) {
        EXPECT_NE(SanitizeContextId(ids[i]), ids[i]) << "lost plain id " << ids[i];
        continue;
      }
      ++adopted;
      for (uint32_t c = 0; c < 2; ++c) {
        const auto bytes = store->Get({ids[i], c, 0});
        ASSERT_TRUE(bytes.has_value()) << ids[i];
        EXPECT_EQ(*bytes, payload(i, c)) << ids[i];
        adopted_bytes += bytes->size();
      }
    }
    // No directory was adopted under another context's id.
    EXPECT_EQ(store->stats().cold_bytes, adopted_bytes);
    // Make Flush() rewrite the MANIFEST: it lists every adopted context
    // with the stamp adoption gave it.
    store->Put({"probe-a", 0, 0}, Blob(1, 1));
    store->Put({"probe-b", 0, 0}, Blob(1, 2));  // demotes probe-a
    store->Flush();
    const auto rows = ManifestRows(trial.cold_root);
    EXPECT_EQ(rows.size(), adopted + 1);
    for (const auto& r : rows) EXPECT_TRUE(ValidStamp(r[2])) << r[0] << ' ' << r[2];
  }
  // The seed reaches the stamp check, not only the id and header checks.
  EXPECT_GT(unorderable_stamps, 0u);
}

}  // namespace
}  // namespace cachegen
