// Pending-demotion accounting. Flush() is the cold tier's only disk writer,
// at every pool size: demotion buffers accumulate in RAM exactly as fast as
// evictions fire, independent of disk or scheduler speed, so the pending
// bytes can be asserted byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "storage/tiered_kv_store.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> Blob(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

class BackpressureTest : public ::testing::Test {
 protected:
  BackpressureTest() {
    static std::atomic<int> counter{0};
    root_ = fs::temp_directory_path() /
            ("cachegen_backpressure_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(root_);
  }
  ~BackpressureTest() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(BackpressureTest, UncappedStoreNeverDrops) {
  TieredKVStore::Options opts;
  opts.hot = {.num_shards = 1, .capacity_bytes = 250};
  opts.cold_root = root_;
  TieredKVStore store(opts);
  for (int i = 0; i < 8; ++i) {
    store.Put({"ctx-" + std::to_string(i), 0, 0},
              Blob(100, static_cast<uint8_t>(i)));
  }
  const auto stats = store.stats();
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_EQ(stats.pending_demotion_bytes, stats.cold_bytes);
  store.Flush();
  EXPECT_EQ(store.stats().pending_demotion_bytes, 0u);
}

TEST_F(BackpressureTest, PromotionOfPendingEntryReleasesItsPendingBytes) {
  TieredKVStore::Options opts;
  opts.hot = {.num_shards = 1, .capacity_bytes = 250};
  opts.cold_root = root_;
  TieredKVStore store(opts);
  store.Put({"a", 0, 0}, Blob(100, 1));
  store.Put({"b", 0, 0}, Blob(100, 2));
  ASSERT_EQ(store.LookupAndPin("a", {}, 1.0).tier, KVTier::kHot);
  store.Unpin("a");
  store.Put({"c", 0, 0}, Blob(100, 3));  // demote b (pending 100)
  ASSERT_EQ(store.stats().pending_demotion_bytes, 100u);

  // Promoting "b" claims the pending buffer: its bytes stop counting as
  // pending without any disk traffic.
  ASSERT_EQ(store.LookupAndPin("b", {}, 2.0).tier, KVTier::kCold);
  store.Unpin("b");
  const auto stats = store.stats();
  EXPECT_EQ(stats.promotions, 1u);
  // b's promotion re-evicted something (hot back over capacity), so pending
  // holds exactly that one re-demotion — never b's stale buffer too.
  EXPECT_LE(stats.pending_demotion_bytes, 100u);
}

// A promotion of a demotion still waiting for Flush() reclaims the
// demotion's buffers: the bytes the eviction took out of the hot tier go
// back into it without a copy. The hot backend records the buffer each
// ownership-passing call moves out (Take) and in (Insert).
TEST_F(BackpressureTest, PromotionReinsertsTheDemotedBuffers) {
  struct Moves {
    std::vector<std::pair<std::string, const uint8_t*>> taken, inserted;
  };
  class RecordingBackend final : public KVStore {
   public:
    explicit RecordingBackend(Moves* moves) : moves_(moves) {}
    void Put(const ChunkKey& key, std::span<const uint8_t> bytes) override {
      inner_.Put(key, bytes);
    }
    void Insert(const ChunkKey& key, std::vector<uint8_t>&& bytes) override {
      moves_->inserted.emplace_back(key.context_id, bytes.data());
      inner_.Insert(key, std::move(bytes));
    }
    std::optional<std::vector<uint8_t>> Take(const ChunkKey& key) override {
      auto bytes = inner_.Take(key);
      if (bytes) moves_->taken.emplace_back(key.context_id, bytes->data());
      return bytes;
    }
    std::optional<std::vector<uint8_t>> Get(const ChunkKey& key) const override {
      return inner_.Get(key);
    }
    bool ContainsContext(const std::string& id) const override {
      return inner_.ContainsContext(id);
    }
    void EraseContext(const std::string& id) override { inner_.EraseContext(id); }
    uint64_t TotalBytes() const override { return inner_.TotalBytes(); }
    uint64_t ContextBytes(const std::string& id) const override {
      return inner_.ContextBytes(id);
    }

   private:
    Moves* moves_;
    MemoryKVStore inner_;
  };

  Moves moves;
  TieredKVStore::Options opts;
  opts.hot = {.num_shards = 1, .capacity_bytes = 250};
  opts.cold_root = root_;
  TieredKVStore store(opts, [&moves](size_t) -> std::unique_ptr<KVStore> {
    return std::make_unique<RecordingBackend>(&moves);
  });
  store.Put({"a", 0, 0}, Blob(100, 1));
  store.Put({"b", 0, 0}, Blob(100, 2));
  ASSERT_EQ(store.LookupAndPin("a", {}, 1.0).tier, KVTier::kHot);
  store.Unpin("a");
  store.Put({"c", 0, 0}, Blob(100, 3));  // demotes "b" into RAM
  ASSERT_EQ(moves.taken.size(), 1u);
  EXPECT_EQ(moves.taken[0].first, "b");
  EXPECT_EQ(store.stats().pending_demotion_bytes, 100u);

  ASSERT_EQ(store.LookupAndPin("b", {}, 2.0).tier, KVTier::kCold);
  ASSERT_EQ(moves.inserted.size(), 1u);
  EXPECT_EQ(moves.inserted[0], moves.taken[0]);
  EXPECT_EQ(*store.Get({"b", 0, 0}), Blob(100, 2));
  store.Unpin("b");
  // Nothing of "b" reached the disk: the promotion claimed the buffer
  // before any Flush.
  store.Flush();
  EXPECT_FALSE(fs::exists(root_ / "b"));
  EXPECT_EQ(store.stats().promoted_bytes, 100u);
}

}  // namespace
}  // namespace cachegen
