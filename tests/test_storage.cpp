#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "storage/kv_store.h"

namespace cachegen {
namespace {

template <typename T>
class KVStoreTest : public ::testing::Test {
 protected:
  KVStoreTest() { store_ = MakeStore(); }
  ~KVStoreTest() override {
    store_.reset();
    if (!tmp_.empty()) std::filesystem::remove_all(tmp_);
  }

  std::unique_ptr<KVStore> MakeStore();

  std::unique_ptr<KVStore> store_;
  std::filesystem::path tmp_;
};

// Monotone counter so every fixture instance gets a fresh directory ("this"
// pointers get reused across tests within one process).
int NextStoreDirId() {
  static int id = 0;
  return id++;
}

template <>
std::unique_ptr<KVStore> KVStoreTest<MemoryKVStore>::MakeStore() {
  return std::make_unique<MemoryKVStore>();
}

template <>
std::unique_ptr<KVStore> KVStoreTest<FileKVStore>::MakeStore() {
  tmp_ = std::filesystem::temp_directory_path() /
         ("cachegen_store_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(NextStoreDirId()));
  std::filesystem::remove_all(tmp_);
  return std::make_unique<FileKVStore>(tmp_);
}

using StoreTypes = ::testing::Types<MemoryKVStore, FileKVStore>;
TYPED_TEST_SUITE(KVStoreTest, StoreTypes);

TYPED_TEST(KVStoreTest, PutGetRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 200};
  this->store_->Put({"ctx-a", 0, 1}, payload);
  const auto got = this->store_->Get({"ctx-a", 0, 1});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TYPED_TEST(KVStoreTest, MissingReturnsNullopt) {
  EXPECT_FALSE(this->store_->Get({"nope", 0, 0}).has_value());
  this->store_->Put({"ctx", 0, 0}, std::vector<uint8_t>{1});
  EXPECT_FALSE(this->store_->Get({"ctx", 1, 0}).has_value());
  EXPECT_FALSE(this->store_->Get({"ctx", 0, 1}).has_value());
}

TYPED_TEST(KVStoreTest, SeparateLevelsCoexist) {
  this->store_->Put({"ctx", 2, 0}, std::vector<uint8_t>{10, 10});
  this->store_->Put({"ctx", 2, 3}, std::vector<uint8_t>{30});
  EXPECT_EQ(this->store_->Get({"ctx", 2, 0})->size(), 2u);
  EXPECT_EQ(this->store_->Get({"ctx", 2, 3})->size(), 1u);
}

TYPED_TEST(KVStoreTest, OverwriteReplaces) {
  this->store_->Put({"ctx", 0, 0}, std::vector<uint8_t>{1, 2, 3});
  this->store_->Put({"ctx", 0, 0}, std::vector<uint8_t>{9});
  EXPECT_EQ(this->store_->Get({"ctx", 0, 0})->size(), 1u);
}

TYPED_TEST(KVStoreTest, ContainsAndErase) {
  EXPECT_FALSE(this->store_->ContainsContext("ctx"));
  this->store_->Put({"ctx", 0, 0}, std::vector<uint8_t>{1});
  this->store_->Put({"ctx", 1, 0}, std::vector<uint8_t>{2});
  EXPECT_TRUE(this->store_->ContainsContext("ctx"));
  this->store_->EraseContext("ctx");
  EXPECT_FALSE(this->store_->ContainsContext("ctx"));
  EXPECT_FALSE(this->store_->Get({"ctx", 0, 0}).has_value());
}

TYPED_TEST(KVStoreTest, ByteAccounting) {
  this->store_->Put({"a", 0, 0}, std::vector<uint8_t>(100, 1));
  this->store_->Put({"a", 1, 0}, std::vector<uint8_t>(50, 2));
  this->store_->Put({"b", 0, 0}, std::vector<uint8_t>(25, 3));
  EXPECT_EQ(this->store_->TotalBytes(), 175u);
  EXPECT_EQ(this->store_->ContextBytes("a"), 150u);
  EXPECT_EQ(this->store_->ContextBytes("b"), 25u);
  EXPECT_EQ(this->store_->ContextBytes("c"), 0u);
}

TYPED_TEST(KVStoreTest, InsertAndTakeHandOverBytes) {
  // Every backend honours the ownership-passing calls' contract, whether it
  // moves (MemoryKVStore) or copies (the KVStore defaults FileKVStore uses):
  // Insert stores the bytes, Take returns them, and the erase that follows
  // a Take leaves nothing behind.
  const std::vector<uint8_t> payload = {5, 6, 7};
  this->store_->Insert({"ctx", 0, 0}, std::vector<uint8_t>(payload));
  this->store_->Insert({"ctx", 1, 0}, std::vector<uint8_t>{8});
  EXPECT_EQ(*this->store_->Get({"ctx", 0, 0}), payload);
  EXPECT_EQ(this->store_->ContextBytes("ctx"), 4u);
  EXPECT_FALSE(this->store_->Take({"ctx", 2, 0}).has_value());
  const auto taken = this->store_->Take({"ctx", 0, 0});
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, payload);
  this->store_->EraseContext("ctx");
  EXPECT_FALSE(this->store_->ContainsContext("ctx"));
  EXPECT_FALSE(this->store_->Get({"ctx", 0, 0}).has_value());
  EXPECT_EQ(this->store_->TotalBytes(), 0u);
}

TEST(MemoryKVStore, InsertAndTakeMoveTheBuffer) {
  MemoryKVStore store;
  std::vector<uint8_t> bytes(64, 3);
  const uint8_t* buffer = bytes.data();
  store.Insert({"ctx", 0, 0}, std::move(bytes));
  auto taken = store.Take({"ctx", 0, 0});
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->data(), buffer);
  EXPECT_EQ(*taken, std::vector<uint8_t>(64, 3));
  // Take removed the chunk.
  EXPECT_FALSE(store.Get({"ctx", 0, 0}).has_value());
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TYPED_TEST(KVStoreTest, EraseOnlyTargetContext) {
  this->store_->Put({"a", 0, 0}, std::vector<uint8_t>{1});
  this->store_->Put({"b", 0, 0}, std::vector<uint8_t>{2});
  this->store_->EraseContext("a");
  EXPECT_FALSE(this->store_->ContainsContext("a"));
  EXPECT_TRUE(this->store_->ContainsContext("b"));
}

TEST(SanitizeContextId, SafeIdsPassThrough) {
  EXPECT_EQ(SanitizeContextId("doc-42_v1.kv"), "doc-42_v1.kv");
  EXPECT_EQ(SanitizeContextId("A"), "A");
}

TEST(SanitizeContextId, UnsafeIdsAreMangledButDistinct) {
  const std::string a = SanitizeContextId("../escape");
  const std::string b = SanitizeContextId("..\\escape");
  const std::string c = SanitizeContextId("a/b");
  EXPECT_EQ(a.find('/'), std::string::npos);
  EXPECT_EQ(b.find('\\'), std::string::npos);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(SanitizeContextId(".."), "..");
  EXPECT_NE(SanitizeContextId("."), ".");
  EXPECT_FALSE(SanitizeContextId("").empty());
  // Deterministic: same id always maps to the same directory.
  EXPECT_EQ(a, SanitizeContextId("../escape"));
  // A safe-charset id crafted to look like a mangled name cannot collide
  // with the actual mangled output ('%' never passes through).
  const std::string forged = SanitizeContextId("a/b");
  std::string lookalike = forged;
  for (char& ch : lookalike) {
    if (ch == '%') ch = '-';
  }
  EXPECT_EQ(SanitizeContextId(lookalike), lookalike);  // safe -> pass-through
  EXPECT_NE(SanitizeContextId(lookalike), forged);
}

TEST(SanitizeContextId, MangledIdsUseSha256Suffix) {
  const std::string original = "tenant-7/../secret prompt\n";
  const std::string mangled = SanitizeContextId(original);
  // Cryptographic digest suffix: 32 hex chars (128 bits of SHA-256) after
  // the '%' separator, not the old 16-char FNV tail.
  const size_t pct = mangled.find('%');
  ASSERT_NE(pct, std::string::npos);
  EXPECT_EQ(mangled.size() - pct - 1, 32u);
}

TEST(FileKVStore, TraversalIdsCannotEscapeRoot) {
  const auto root = std::filesystem::temp_directory_path() / "cachegen_traversal_test";
  std::filesystem::remove_all(root);
  const auto sibling = std::filesystem::temp_directory_path() / "cachegen_traversal_victim";
  std::filesystem::remove_all(sibling);
  {
    FileKVStore store(root);
    const std::string evil = "../cachegen_traversal_victim";
    store.Put({evil, 0, 0}, std::vector<uint8_t>{7, 7, 7});
    EXPECT_FALSE(std::filesystem::exists(sibling));
    // Still a fully functional id: round-trips, is listed, and erases.
    ASSERT_TRUE(store.Get({evil, 0, 0}).has_value());
    EXPECT_TRUE(store.ContainsContext(evil));
    EXPECT_EQ(store.ContextBytes(evil), 3u);
    store.EraseContext(evil);
    EXPECT_FALSE(store.ContainsContext(evil));
  }
  std::filesystem::remove_all(root);
}

TEST(FileKVStore, PutCommitsAtomicallyWithoutTempResidue) {
  const auto dir = std::filesystem::temp_directory_path() / "cachegen_atomic_test";
  std::filesystem::remove_all(dir);
  {
    FileKVStore store(dir);
    store.Put({"ctx", 0, 0}, std::vector<uint8_t>{1, 2, 3});
    store.Put({"ctx", 0, 0}, std::vector<uint8_t>{9, 9, 9, 9});  // rename-over
    // Exactly one committed chunk file; no .tmp leftovers from either Put.
    size_t files = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir / "ctx")) {
      ASSERT_TRUE(e.is_regular_file());
      EXPECT_EQ(e.path().extension(), ".cgkv") << e.path();
      ++files;
    }
    EXPECT_EQ(files, 1u);
    EXPECT_EQ(store.Get({"ctx", 0, 0})->size(), 4u);
    EXPECT_EQ(store.TotalBytes(), 4u);
  }
  std::filesystem::remove_all(dir);
}

TEST(FileKVStore, CrashedPutTempFileStaysInvisible) {
  const auto dir = std::filesystem::temp_directory_path() / "cachegen_crash_test";
  std::filesystem::remove_all(dir);
  {
    FileKVStore store(dir);
    // Simulate a Put that died mid-write: a stale temp file under the final
    // name plus ".tmpN". It must never surface as data.
    std::filesystem::create_directories(dir / "ctx");
    {
      std::ofstream stale(dir / "ctx" / "chunk0_level0.cgkv.tmp42",
                          std::ios::binary);
      stale << "truncated-garbage";
    }
    EXPECT_FALSE(store.Get({"ctx", 0, 0}).has_value());
    EXPECT_EQ(store.TotalBytes(), 0u);
    EXPECT_EQ(store.ContextBytes("ctx"), 0u);

    // A real Put alongside it works and is counted alone...
    store.Put({"ctx", 0, 0}, std::vector<uint8_t>{5});
    EXPECT_EQ(store.Get({"ctx", 0, 0})->size(), 1u);
    EXPECT_EQ(store.TotalBytes(), 1u);
    // ...and EraseContext reclaims the debris with the rest.
    store.EraseContext("ctx");
    EXPECT_FALSE(std::filesystem::exists(dir / "ctx"));
  }
  std::filesystem::remove_all(dir);
}

TEST(FileKVStore, PutThrowsWhenDirectoryCreationIsBlocked) {
  const auto dir = std::filesystem::temp_directory_path() / "cachegen_blocked_test";
  std::filesystem::remove_all(dir);
  {
    FileKVStore store(dir);
    // A regular file squatting where the context directory must go makes the
    // write path fail — Put must surface that at write time, not as a later
    // corrupt read.
    { std::ofstream squatter(dir / "ctx"); }
    EXPECT_THROW(store.Put({"ctx", 0, 0}, std::vector<uint8_t>{1}),
                 std::exception);
    EXPECT_FALSE(store.Get({"ctx", 0, 0}).has_value());
  }
  std::filesystem::remove_all(dir);
}

TEST(FileKVStore, PersistsAcrossInstances) {
  const auto dir = std::filesystem::temp_directory_path() / "cachegen_persist_test";
  std::filesystem::remove_all(dir);
  {
    FileKVStore store(dir);
    store.Put({"ctx", 0, 1}, std::vector<uint8_t>{42, 43});
  }
  {
    FileKVStore store(dir);
    const auto got = store.Get({"ctx", 0, 1});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ((*got)[0], 42);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cachegen
