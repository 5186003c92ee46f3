#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "storage/pin_guard.h"
#include "storage/sharded_kv_store.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> Blob(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

TEST(ShardedKVStore, BasicKVStoreSemantics) {
  ShardedKVStore store({.num_shards = 4});
  const std::vector<uint8_t> payload = {1, 2, 3};
  store.Put({"ctx-a", 0, 1}, payload);
  ASSERT_TRUE(store.Get({"ctx-a", 0, 1}).has_value());
  EXPECT_EQ(*store.Get({"ctx-a", 0, 1}), payload);
  EXPECT_FALSE(store.Get({"ctx-a", 1, 1}).has_value());
  EXPECT_TRUE(store.ContainsContext("ctx-a"));
  EXPECT_FALSE(store.ContainsContext("ctx-b"));
  EXPECT_EQ(store.TotalBytes(), 3u);
  EXPECT_EQ(store.ContextBytes("ctx-a"), 3u);

  store.Put({"ctx-a", 0, 1}, Blob(10, 9));  // overwrite re-accounts
  EXPECT_EQ(store.TotalBytes(), 10u);
  store.EraseContext("ctx-a");
  EXPECT_FALSE(store.ContainsContext("ctx-a"));
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST(ShardedKVStore, LruEvictionRespectsCapacityAndRecency) {
  // One shard so the LRU order is global and exact.
  ShardedKVStore store({.num_shards = 1, .capacity_bytes = 250});
  store.Put({"a", 0, 0}, Blob(100, 1));
  store.Put({"b", 0, 0}, Blob(100, 2));
  // Touch "a" so "b" is the LRU victim.
  EXPECT_TRUE(store.LookupAndPin("a", {}, 1.0).hit());
  store.Unpin("a");
  store.Put({"c", 0, 0}, Blob(100, 3));  // 300 > 250 -> evict "b"
  EXPECT_TRUE(store.ContainsContext("a"));
  EXPECT_FALSE(store.ContainsContext("b"));
  EXPECT_TRUE(store.ContainsContext("c"));
  EXPECT_LE(store.TotalBytes(), 250u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evicted_bytes, 100u);
}

TEST(ShardedKVStore, PinnedContextsSurviveEviction) {
  ShardedKVStore store({.num_shards = 1, .capacity_bytes = 150});
  store.Put({"hot", 0, 0}, Blob(100, 1));
  ASSERT_TRUE(store.LookupAndPin("hot", {}, 1.0).hit());  // pinned
  store.Put({"cold", 0, 0}, Blob(100, 2));      // over capacity
  // "hot" is pinned and "cold" is the context being written: nothing
  // evictable, so the store temporarily overflows rather than corrupting an
  // in-flight context.
  EXPECT_TRUE(store.ContainsContext("hot"));
  EXPECT_TRUE(store.ContainsContext("cold"));
  store.Unpin("hot");
  // Next Put re-enforces: 300 bytes against 150 evicts "cold" (older touch)
  // and then the now-unpinned "hot".
  store.Put({"new", 0, 0}, Blob(100, 3));
  EXPECT_FALSE(store.ContainsContext("cold"));
  EXPECT_FALSE(store.ContainsContext("hot"));
  EXPECT_TRUE(store.ContainsContext("new"));
  EXPECT_GE(store.stats().evictions, 2u);
}

TEST(ShardedKVStore, LookupCountsHitsAndMisses) {
  ShardedKVStore store({.num_shards = 2});
  EXPECT_FALSE(store.LookupAndPin("nope", {}, 0.0).hit());
  store.Put({"yes", 0, 0}, Blob(4, 1));
  EXPECT_TRUE(store.LookupAndPin("yes", {}, 1.0).hit());
  store.Unpin("yes");
  const auto stats = store.stats();
  EXPECT_EQ(stats.context_hits, 1u);
  EXPECT_EQ(stats.context_misses, 1u);
}

TEST(ShardedKVStore, EraseRespectsPins) {
  ShardedKVStore store({.num_shards = 1});
  store.Put({"ctx", 0, 0}, Blob(8, 1));
  ASSERT_TRUE(store.LookupAndPin("ctx", {}, 1.0).hit());
  store.EraseContext("ctx");  // refused: in use
  EXPECT_TRUE(store.ContainsContext("ctx"));
  EXPECT_TRUE(store.Get({"ctx", 0, 0}).has_value());
  store.Unpin("ctx");
  store.EraseContext("ctx");
  EXPECT_FALSE(store.ContainsContext("ctx"));
}

TEST(ShardedKVStore, PinPlaceholderDoesNotShadowContains) {
  ShardedKVStore store({.num_shards = 1});
  store.Pin("ghost");
  EXPECT_FALSE(store.ContainsContext("ghost"));
  store.Unpin("ghost");
  EXPECT_EQ(store.TotalBytes(), 0u);
}

// The satellite stress test: concurrent Put/Get/Erase/Lookup across threads
// with a tight capacity, then byte-accounting and counter invariants.
TEST(ShardedKVStore, ConcurrentStressKeepsInvariants) {
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 2000;
  constexpr size_t kContexts = 32;
  ShardedKVStore store({.num_shards = 4, .capacity_bytes = 64 * 1024});

  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &lookups, t] {
      Rng rng(0xABCDEF00ULL + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const std::string id = "ctx-" + std::to_string(rng.NextBelow(kContexts));
        switch (rng.NextBelow(4)) {
          case 0: {
            const uint32_t chunk = static_cast<uint32_t>(rng.NextBelow(4));
            store.Put({id, chunk, 0},
                      Blob(64 + rng.NextBelow(2048), static_cast<uint8_t>(t)));
            break;
          }
          case 1:
            (void)store.Get({id, 0, 0});
            break;
          case 2:
            store.EraseContext(id);
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

  // Byte accounting is exact: per-context sums equal the global count.
  uint64_t sum = 0;
  for (size_t c = 0; c < kContexts; ++c) {
    sum += store.ContextBytes("ctx-" + std::to_string(c));
  }
  EXPECT_EQ(sum, store.TotalBytes());

  const auto stats = store.stats();
  EXPECT_EQ(stats.context_hits + stats.context_misses, lookups.load());
  EXPECT_EQ(stats.stored_bytes, store.TotalBytes());
  // The working set (32 ctx * up to 4 chunks * ~2 KB) far exceeds 64 KB, so
  // capacity pressure must have evicted.
  EXPECT_GT(stats.evictions, 0u);

  // No pins outstanding: one more put must re-enforce the capacity bound on
  // its shard, and the store stays fully functional.
  store.Put({"ctx-0", 0, 0}, Blob(128, 7));
  ASSERT_TRUE(store.Get({"ctx-0", 0, 0}).has_value());
  EXPECT_EQ(store.Get({"ctx-0", 0, 0})->size(), 128u);
}

// PutBatch is all-or-nothing for a previously-absent context: a backend
// failure mid-batch rolls back everything already inserted.
TEST(ShardedKVStore, FailedBatchInsertRollsBackCompletely) {
  class FailSecondPut final : public KVStore {
   public:
    void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override {
      if (puts_++ == 1) throw std::runtime_error("disk full");
      inner_.Put(key, bytes);
    }
    std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override {
      return inner_.Get(key);
    }
    bool ContainsContext(const std::string& id) const override {
      return inner_.ContainsContext(id);
    }
    void EraseContext(const std::string& id) override {
      inner_.EraseContext(id);
    }
    uint64_t TotalBytes() const override { return inner_.TotalBytes(); }
    uint64_t ContextBytes(const std::string& id) const override {
      return inner_.ContextBytes(id);
    }

   private:
    MemoryKVStore inner_;
    int puts_ = 0;
  };

  // Both PutBatch forms share this rollback. The owning form hands each
  // buffer to the backend through KVStore::Insert, whose default is this
  // backend's failing Put.
  const std::vector<uint8_t> payload(16, 7);
  const std::vector<ChunkView> chunks = {
      {{"ctx", 0, 0}, payload}, {{"ctx", 1, 0}, payload}, {{"ctx", 2, 0}, payload}};
  const auto owned = [&payload](const std::string& id, size_t n) {
    std::vector<OwnedChunk> out;
    for (uint32_t i = 0; i < n; ++i) out.emplace_back(ChunkKey{id, i, 0}, payload);
    return out;
  };
  for (const bool owning : {false, true}) {
    SCOPED_TRACE(owning ? "owning PutBatch" : "span PutBatch");
    ShardedKVStore store({.num_shards = 1},
                         [](size_t) -> std::unique_ptr<KVStore> {
                           return std::make_unique<FailSecondPut>();
                         });
    store.Pin("ctx");  // a write-back-style placeholder pin is in flight
    if (owning) {
      EXPECT_THROW(store.PutBatch("ctx", owned("ctx", 3)), std::runtime_error);
    } else {
      EXPECT_THROW(store.PutBatch("ctx", chunks), std::runtime_error);
    }

    // Chunk 0 landed before the failure but must not be visible: no partial
    // context, exact accounting, and the pin placeholder stays invisible.
    EXPECT_FALSE(store.ContainsContext("ctx"));
    EXPECT_FALSE(store.Get({"ctx", 0, 0}).has_value());
    EXPECT_EQ(store.TotalBytes(), 0u);
    EXPECT_FALSE(store.LookupAndPin("ctx", {}, 1.0).hit());
    store.Unpin("ctx");  // placeholder dropped
    EXPECT_EQ(store.TotalBytes(), 0u);

    // The batch interface also rejects keys naming a different context.
    if (owning) {
      EXPECT_THROW(store.PutBatch("ctx", owned("other", 1)),
                   std::invalid_argument);
    } else {
      const std::vector<ChunkView> wrong = {{{"other", 0, 0}, payload}};
      EXPECT_THROW(store.PutBatch("ctx", wrong), std::invalid_argument);
    }
  }
}

// The owning PutBatch and the eviction gather move buffers instead of
// copying them: an evicted context reaches the sink in the very buffers it
// was inserted with.
TEST(ShardedKVStore, OwningPutBatchBuffersReachTheEvictionSink) {
  std::vector<const uint8_t*> sunk;
  std::vector<std::vector<uint8_t>> sunk_bytes;
  ShardedKVStore store({.num_shards = 1, .capacity_bytes = 250}, nullptr,
                       [&](ShardedKVStore::EvictedContext&& victim) {
                         for (auto& [key, bytes] : victim.chunks) {
                           sunk.push_back(bytes.data());
                           sunk_bytes.push_back(std::move(bytes));
                         }
                       });
  std::vector<OwnedChunk> chunks;
  chunks.emplace_back(ChunkKey{"a", 0, 0}, Blob(60, 1));
  chunks.emplace_back(ChunkKey{"a", 1, 0}, Blob(60, 2));
  const std::vector<const uint8_t*> inserted = {chunks[0].second.data(),
                                                chunks[1].second.data()};
  store.PutBatch("a", std::move(chunks));
  EXPECT_EQ(store.ContextBytes("a"), 120u);
  EXPECT_EQ(*store.Get({"a", 1, 0}), Blob(60, 2));

  store.Put({"b", 0, 0}, Blob(200, 3));  // 320 > 250: evicts "a"
  ASSERT_FALSE(store.ContainsContext("a"));
  EXPECT_EQ(sunk, inserted);
  ASSERT_EQ(sunk_bytes.size(), 2u);
  EXPECT_EQ(sunk_bytes[0], Blob(60, 1));
  EXPECT_EQ(sunk_bytes[1], Blob(60, 2));
  EXPECT_EQ(store.TotalBytes(), 200u);
  EXPECT_EQ(store.stats().evicted_bytes, 120u);
}

// ---------------------------------------------------------------------------
// PinGuard: RAII pin ownership.
// ---------------------------------------------------------------------------

TEST(PinGuard, ReleasesOnScopeExitEvenOnThrow) {
  ShardedKVStore store({.num_shards = 1});
  store.Put({"ctx", 0, 0}, Blob(8, 1));
  {
    PinGuard guard = PinGuard::Acquire(store, "ctx");
    EXPECT_TRUE(guard.active());
    store.EraseContext("ctx");  // refused: pinned
    EXPECT_TRUE(store.ContainsContext("ctx"));
  }
  store.EraseContext("ctx");  // pin released by scope exit
  EXPECT_FALSE(store.ContainsContext("ctx"));

  store.Put({"ctx", 0, 0}, Blob(8, 1));
  try {
    PinGuard guard = PinGuard::Acquire(store, "ctx");
    throw std::runtime_error("boom");
  } catch (const std::exception&) {
  }
  store.EraseContext("ctx");  // pin released during unwinding
  EXPECT_FALSE(store.ContainsContext("ctx"));
}

TEST(PinGuard, AdoptMoveAndEarlyRelease) {
  ShardedKVStore store({.num_shards = 1});
  store.Put({"ctx", 0, 0}, Blob(8, 1));
  ASSERT_TRUE(store.LookupAndPin("ctx", {}, 1.0).hit());
  PinGuard guard = PinGuard::Adopt(store, "ctx");  // owns the lookup's pin
  PinGuard moved = std::move(guard);
  EXPECT_FALSE(guard.active());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(moved.active());
  moved.Release();
  moved.Release();  // idempotent
  EXPECT_FALSE(moved.active());
  store.EraseContext("ctx");
  EXPECT_FALSE(store.ContainsContext("ctx"));
}

// ---------------------------------------------------------------------------
// ShardedKVStore over FileKVStore backends: the paper's storage-server
// deployment shape (per-shard directories on a dedicated disk).
// ---------------------------------------------------------------------------

class ShardedOverFilesTest : public ::testing::Test {
 protected:
  ShardedOverFilesTest() {
    static std::atomic<int> counter{0};
    root_ = fs::temp_directory_path() /
            ("cachegen_sharded_files_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(root_);
  }
  ~ShardedOverFilesTest() override { fs::remove_all(root_); }

  ShardedKVStore::BackendFactory Factory() const {
    return [root = root_](size_t shard) -> std::unique_ptr<KVStore> {
      return std::make_unique<FileKVStore>(root /
                                           ("shard" + std::to_string(shard)));
    };
  }

  // The on-disk directory a context lands in (1-shard stores: shard0).
  fs::path ContextDir(size_t shard, const std::string& id) const {
    return root_ / ("shard" + std::to_string(shard)) / SanitizeContextId(id);
  }

  fs::path root_;
};

TEST_F(ShardedOverFilesTest, RoundTripAndAccounting) {
  ShardedKVStore store({.num_shards = 4}, Factory());
  const auto payload = Blob(100, 7);
  store.Put({"doc-a", 0, 0}, payload);
  store.Put({"doc-a", 1, 2}, Blob(50, 8));
  store.Put({"doc-b", 0, 0}, Blob(25, 9));

  ASSERT_TRUE(store.Get({"doc-a", 0, 0}).has_value());
  EXPECT_EQ(*store.Get({"doc-a", 0, 0}), payload);
  EXPECT_TRUE(store.ContainsContext("doc-a"));
  EXPECT_EQ(store.TotalBytes(), 175u);
  EXPECT_EQ(store.ContextBytes("doc-a"), 150u);
  EXPECT_TRUE(store.LookupAndPin("doc-a", {}, 1.0).hit());
  store.Unpin("doc-a");

  store.EraseContext("doc-a");
  EXPECT_FALSE(store.ContainsContext("doc-a"));
  EXPECT_FALSE(store.Get({"doc-a", 0, 0}).has_value());
  EXPECT_EQ(store.TotalBytes(), 25u);
}

TEST_F(ShardedOverFilesTest, EvictionRemovesContextDirectory) {
  ShardedKVStore store({.num_shards = 1, .capacity_bytes = 150}, Factory());
  store.Put({"old", 0, 0}, Blob(100, 1));
  ASSERT_TRUE(fs::exists(ContextDir(0, "old")));
  store.Put({"new", 0, 0}, Blob(100, 2));  // 200 > 150 -> evict "old"

  EXPECT_FALSE(store.ContainsContext("old"));
  EXPECT_FALSE(fs::exists(ContextDir(0, "old")));  // bytes reclaimed on disk
  EXPECT_TRUE(fs::exists(ContextDir(0, "new")));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.TotalBytes(), 100u);
}

TEST_F(ShardedOverFilesTest, PinnedContextSurvivesCapacityPressure) {
  ShardedKVStore store({.num_shards = 1, .capacity_bytes = 150}, Factory());
  store.Put({"hot", 0, 0}, Blob(100, 1));
  ASSERT_TRUE(store.LookupAndPin("hot", {}, 1.0).hit());
  store.Put({"c1", 0, 0}, Blob(100, 2));
  store.Put({"c2", 0, 0}, Blob(100, 3));

  // Pinned: still on disk and readable no matter the pressure.
  EXPECT_TRUE(store.ContainsContext("hot"));
  EXPECT_TRUE(fs::exists(ContextDir(0, "hot")));
  EXPECT_EQ(store.Get({"hot", 0, 0})->size(), 100u);
  EXPECT_GT(store.stats().evictions, 0u);

  store.Unpin("hot");
  store.Put({"c3", 0, 0}, Blob(100, 4));  // re-enforce: "hot" now evictable
  EXPECT_FALSE(store.ContainsContext("hot"));
  EXPECT_FALSE(fs::exists(ContextDir(0, "hot")));
}

}  // namespace
}  // namespace cachegen
