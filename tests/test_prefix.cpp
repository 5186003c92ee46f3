// Prefix-sharing subsystem: SHA-256 primitive, radix-index longest-match
// properties, content-addressed refcounted dedup in PrefixCache, concurrent
// insert/lookup over a sharded and a tiered inner (run under TSan in CI),
// and the cluster-level partial-hit scenario with its suffix-only TTFT.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/cluster_server.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "net/bandwidth_trace.h"
#include "prefix/prefix_cache.h"
#include "prefix/radix_index.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "storage/tiered_kv_store.h"
#include "workload/prefix_trace.h"

namespace cachegen {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// SHA-256 primitive.
// ---------------------------------------------------------------------------

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(Sha256Hex(Sha256Of(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex(Sha256Of(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256Hex(Sha256Of(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One million 'a's exercises the multi-block streaming path.
  Sha256 h;
  const std::string block(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(block);
  EXPECT_EQ(Sha256Hex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShotAcrossSplits) {
  const std::string msg = "the quick brown fox jumps over the lazy dog 12345";
  const auto oneshot = Sha256Of(msg);
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finish(), oneshot) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Radix prefix index.
// ---------------------------------------------------------------------------

std::vector<uint32_t> Seq(std::initializer_list<uint32_t> v) { return v; }

TEST(RadixPrefixIndex, EmptyIndexMatchesNothing) {
  RadixPrefixIndex idx;
  EXPECT_EQ(idx.LongestPrefixTokens(Seq({1, 2, 3})), 0u);
  EXPECT_EQ(idx.sequences(), 0u);
  EXPECT_FALSE(idx.Erase(Seq({1})));
}

TEST(RadixPrefixIndex, MatchesCanEndMidEdgeAndAtNodes) {
  RadixPrefixIndex idx;
  idx.Insert(Seq({1, 2, 3, 4, 5}));
  idx.Insert(Seq({1, 2, 9, 9}));
  EXPECT_EQ(idx.LongestPrefixTokens(Seq({1, 2, 3, 4, 5, 6})), 5u);
  EXPECT_EQ(idx.LongestPrefixTokens(Seq({1, 2, 3, 7})), 3u);  // mid-edge
  EXPECT_EQ(idx.LongestPrefixTokens(Seq({1, 2})), 2u);        // at the split
  EXPECT_EQ(idx.LongestPrefixTokens(Seq({1, 5})), 1u);
  EXPECT_EQ(idx.LongestPrefixTokens(Seq({7})), 0u);
}

TEST(RadixPrefixIndex, SharedPrefixFamilySharesStructure) {
  RadixPrefixIndex idx;
  std::vector<uint32_t> prefix(1000);
  for (size_t i = 0; i < prefix.size(); ++i) prefix[i] = static_cast<uint32_t>(i);
  const size_t members = 8;
  for (size_t m = 0; m < members; ++m) {
    std::vector<uint32_t> seq = prefix;
    for (size_t j = 0; j < 200; ++j) {
      seq.push_back(static_cast<uint32_t>(100000 + m * 1000 + j));
    }
    idx.Insert(seq);
  }
  EXPECT_EQ(idx.sequences(), members);
  // Compressed edges: one shared spine plus one node per member, nowhere
  // near one node per token.
  EXPECT_LE(idx.nodes(), 2 + members);
  // A fresh suffix on the same family matches exactly the shared prefix.
  std::vector<uint32_t> query = prefix;
  query.push_back(999999);
  EXPECT_EQ(idx.LongestPrefixTokens(query), prefix.size());
}

TEST(RadixPrefixIndex, EraseKeepsSharedBranchesAndPrunesPrivate) {
  RadixPrefixIndex idx;
  const auto a = Seq({1, 2, 3, 4});
  const auto b = Seq({1, 2, 7, 8});
  idx.Insert(a);
  const size_t nodes_a_only = idx.nodes();
  idx.Insert(b);
  ASSERT_TRUE(idx.Erase(b));
  // b's private branch pruned, a's path intact. The split intermediate that
  // b's insert created legitimately persists (erase prunes, it does not
  // re-merge edges), so the shape is at most one node bigger than a-only.
  EXPECT_EQ(idx.nodes(), nodes_a_only + 1);
  EXPECT_EQ(idx.LongestPrefixTokens(a), 4u);
  EXPECT_EQ(idx.LongestPrefixTokens(b), 2u);  // only the shared head remains
  // Erasing a sequence that was never inserted (a prefix of one) is refused.
  EXPECT_FALSE(idx.Erase(Seq({1, 2})));
  ASSERT_TRUE(idx.Erase(a));
  EXPECT_EQ(idx.sequences(), 0u);
  EXPECT_EQ(idx.LongestPrefixTokens(a), 0u);
}

TEST(RadixPrefixIndex, LongestMatchAgreesWithBruteForce) {
  // Property test over a small alphabet so prefixes collide often.
  Rng rng(0x5ADD1E);
  std::vector<std::vector<uint32_t>> stored;
  RadixPrefixIndex idx;
  const auto random_seq = [&rng]() {
    std::vector<uint32_t> s(rng.NextU64() % 13);
    for (auto& t : s) t = static_cast<uint32_t>(rng.NextU64() % 4);
    return s;
  };
  const auto brute_lcp = [&stored](const std::vector<uint32_t>& q) {
    size_t best = 0;
    for (const auto& s : stored) {
      size_t i = 0;
      while (i < q.size() && i < s.size() && q[i] == s[i]) ++i;
      best = std::max(best, i);
    }
    return best;
  };
  for (int round = 0; round < 300; ++round) {
    const auto action = rng.NextU64() % 3;
    if (action == 0 || stored.size() < 5) {
      auto s = random_seq();
      idx.Insert(s);
      stored.push_back(std::move(s));
    } else if (action == 1) {
      const size_t victim = rng.NextU64() % stored.size();
      ASSERT_TRUE(idx.Erase(stored[victim]));
      stored.erase(stored.begin() + static_cast<ptrdiff_t>(victim));
    }
    const auto q = random_seq();
    ASSERT_EQ(idx.LongestPrefixTokens(q), brute_lcp(q)) << "round " << round;
    ASSERT_EQ(idx.sequences(), stored.size());
  }
}

// ---------------------------------------------------------------------------
// PrefixCache: content-addressed refcounted dedup over a sharded inner tier.
// ---------------------------------------------------------------------------

// Family with a one-chunk shared prefix and a one-chunk private suffix.
constexpr size_t kChunk = 100;  // small chunks keep the test arithmetic plain

ContextSpec Member(uint64_t suffix_seed) {
  ContextSpec spec;
  spec.seed = suffix_seed;
  spec.num_tokens = 2 * kChunk;
  spec.prefix_seed = 0xFA111ULL;
  spec.prefix_tokens = kChunk;
  return spec;
}

// Deterministic fake bitstreams; sizes differ per level so the byte
// accounting is sensitive to mixups.
std::vector<uint8_t> LevelBytes(int level, uint8_t fill) {
  return std::vector<uint8_t>(static_cast<size_t>(40 + 10 * level), fill);
}

// Write both chunks of announced context `id`: the prefix chunk filled with
// `prefix_fill`, the suffix chunk with `fill`.
void PutMember(PrefixCache& pc, const std::string& id, uint8_t fill,
               uint8_t prefix_fill) {
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<ChunkView> views;
  for (uint32_t chunk = 0; chunk < 2; ++chunk) {
    for (int level = 0; level < 2; ++level) {
      bufs.push_back(LevelBytes(level, chunk == 0 ? prefix_fill : fill));
      views.emplace_back(ChunkKey{id, chunk, level},
                         std::span<const uint8_t>(bufs.back()));
    }
  }
  pc.PutBatch(id, views);
}

// Store `id` through the cache as the announced content-addressed context.
void StoreMember(PrefixCache& pc, const std::string& id, const ContextSpec& spec,
                 uint8_t fill) {
  pc.BeginStore(id, spec);
  PutMember(pc, id, fill, fill);
}

// The cluster's write-back of `id`: announce, pin, store, stamp, unpin.
void WriteBack(PrefixCache& pc, const std::string& id, const ContextSpec& spec,
               uint8_t fill, double t_s) {
  pc.BeginStore(id, spec);
  pc.Pin(id);
  PutMember(pc, id, fill, fill);
  pc.Touch(id, t_s);
  pc.Unpin(id);
}

std::shared_ptr<PrefixCache> MakeCache() {
  auto inner = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0});
  PrefixCache::Options opts;
  opts.chunk_tokens = kChunk;
  return std::make_shared<PrefixCache>(inner, opts);
}

// The layer over a one-shard inner store bounded at `capacity_bytes`, the
// layer's only budget: the store evicts chunks in LRU order.
struct BoundedCache {
  std::shared_ptr<ShardedKVStore> store;
  std::shared_ptr<PrefixCache> pc;
};

BoundedCache MakeBoundedCache(uint64_t capacity_bytes) {
  BoundedCache b;
  b.store = std::make_shared<ShardedKVStore>(ShardedKVStore::Options{
      .num_shards = 1, .capacity_bytes = capacity_bytes});
  PrefixCache::Options opts;
  opts.chunk_tokens = kChunk;
  b.pc = std::make_shared<PrefixCache>(b.store, opts);
  return b;
}

// Bytes of one chunk across both levels.
uint64_t ChunkTotal() {
  return LevelBytes(0, 0).size() + LevelBytes(1, 0).size();
}

// A member of another family, sharing no chunk with Member().
ContextSpec Stranger(uint64_t seed) {
  ContextSpec spec = Member(seed);
  spec.prefix_seed = 0xBEEF;
  return spec;
}

TEST(PrefixCache, ContentAddressesAliasExactlyOnSharedSpans) {
  auto pc = MakeCache();
  const ContextSpec a = Member(1), b = Member(2);
  EXPECT_EQ(pc->ContentAddress(a, 0), pc->ContentAddress(b, 0));  // shared prefix
  EXPECT_NE(pc->ContentAddress(a, 1), pc->ContentAddress(b, 1));  // private suffix
  ContextSpec other_family = a;
  other_family.prefix_seed ^= 1;
  EXPECT_NE(pc->ContentAddress(a, 0), pc->ContentAddress(other_family, 0));

  // Family members of DIFFERENT total lengths still alias their pure-prefix
  // chunks (the prefix span is generated from the standalone family context,
  // independent of member length)...
  ContextSpec longer = Member(3);
  longer.num_tokens = 3 * kChunk;
  EXPECT_EQ(pc->ContentAddress(a, 0), pc->ContentAddress(longer, 0));
  // ...but two contexts with the SAME seed and different lengths must NOT
  // alias suffix chunks: the synthetic prefill normalizes token position by
  // the generating context's length, so the leading token ids agree while
  // the KV bytes differ — aliasing here would serve one context's bytes as
  // the other's (the collision the segment parameters in the digest close).
  ContextSpec same_seed_longer = a;
  same_seed_longer.num_tokens = 3 * kChunk;
  EXPECT_NE(pc->ContentAddress(a, 1), pc->ContentAddress(same_seed_longer, 1));
}

TEST(PrefixCache, ReStoreWithoutAnnouncementReusesRegistration) {
  auto pc = MakeCache();
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  ASSERT_EQ(pc->stats().contexts, 1u);
  // The registration consumed the announcement; a second store of the same
  // id WITHOUT a fresh BeginStore (the loser of a concurrent double
  // write-back) must still take the content-addressed path off the
  // registered spec — not degrade to an opaque raw copy under the id.
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<ChunkView> views;
  for (uint32_t chunk = 0; chunk < 2; ++chunk) {
    for (int level = 0; level < 2; ++level) {
      bufs.push_back(LevelBytes(level, 0xAB));
      views.emplace_back(ChunkKey{"fam-a", chunk, level},
                         std::span<const uint8_t>(bufs.back()));
    }
  }
  pc->PutBatch("fam-a", views);
  const auto stats = pc->stats();
  EXPECT_EQ(stats.contexts, 1u);
  EXPECT_EQ(stats.unique_chunks, 2u);
  EXPECT_EQ(pc->TotalBytes(), 2 * ChunkTotal());  // all levels deduped
  EXPECT_EQ(stats.deduped_bytes, 2 * ChunkTotal());
  // No raw copy leaked into the inner tier under the original id.
  EXPECT_FALSE(pc->inner().kv().ContainsContext("fam-a"));
}

TEST(PrefixCache, DedupSharesPrefixChunkBytes) {
  auto pc = MakeCache();
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  const uint64_t after_one = pc->TotalBytes();
  EXPECT_EQ(after_one, 2 * ChunkTotal());  // prefix + suffix chunks

  StoreMember(*pc, "fam-b", Member(2), 0xBB);
  // The shared prefix chunk was NOT stored again: only b's suffix landed.
  EXPECT_EQ(pc->TotalBytes(), 3 * ChunkTotal());
  const auto stats = pc->stats();
  EXPECT_EQ(stats.unique_chunks, 3u);
  EXPECT_EQ(stats.deduped_chunks, 1u);
  EXPECT_EQ(stats.deduped_bytes, ChunkTotal());
  EXPECT_EQ(stats.contexts, 2u);
  // Logical view is per-context and un-dedup'd.
  EXPECT_EQ(pc->ContextBytes("fam-a"), 2 * ChunkTotal());
  EXPECT_EQ(pc->ContextBytes("fam-b"), 2 * ChunkTotal());
}

TEST(PrefixCache, FullPartialAndMissLookups) {
  auto pc = MakeCache();
  StoreMember(*pc, "fam-a", Member(1), 0xAA);

  // Full hit on the stored member.
  TierLookup full = pc->LookupAndPin("fam-a", Member(1), 1.0);
  EXPECT_EQ(full.tier, KVTier::kHot);
  EXPECT_TRUE(full.pinned);
  EXPECT_EQ(full.covered_chunks, 2u);
  EXPECT_EQ(full.covered_tokens, 2 * kChunk);
  pc->Unpin("fam-a");

  // Partial hit: a never-stored member of the same family covers the prefix
  // chunk only.
  TierLookup part = pc->LookupAndPin("fam-c", Member(3), 2.0);
  EXPECT_EQ(part.tier, KVTier::kMiss);
  EXPECT_TRUE(part.prefix_hit());
  EXPECT_TRUE(part.pinned);
  EXPECT_EQ(part.covered_chunks, 1u);
  EXPECT_EQ(part.total_chunks, 2u);
  EXPECT_EQ(part.covered_tokens, kChunk);
  pc->Unpin("fam-c");

  // Miss: another family shares nothing.
  ContextSpec foreign = Member(4);
  foreign.prefix_seed = 0xDEAD;
  TierLookup miss = pc->LookupAndPin("foreign", foreign, 3.0);
  EXPECT_EQ(miss.tier, KVTier::kMiss);
  EXPECT_FALSE(miss.prefix_hit());
  EXPECT_FALSE(miss.pinned);

  const auto stats = pc->stats();
  EXPECT_EQ(stats.full_hits, 1u);
  EXPECT_EQ(stats.prefix_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.covered_tokens, kChunk);
}

TEST(PrefixCache, EvictionFreesOnlyUnsharedBytesUntilLastReference) {
  // The inner store fits two members' unique bytes (3 chunks) but not three
  // (4).
  auto [store, pc] = MakeBoundedCache(3 * ChunkTotal());
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  pc->Touch("fam-a", 1.0);
  StoreMember(*pc, "fam-b", Member(2), 0xBB);
  pc->Touch("fam-b", 2.0);
  ASSERT_EQ(pc->TotalBytes(), 3 * ChunkTotal());
  ASSERT_EQ(store->stats().evictions, 0u);

  // A third member's fresh suffix chunk pushes the store to 4 chunks. Its LRU
  // chunk is fam-a's private suffix: fam-b's Touch stamped the shared prefix
  // chunk at 2.0. Only that one chunk is freed.
  StoreMember(*pc, "fam-c", Member(3), 0xCC);
  pc->Touch("fam-c", 3.0);
  EXPECT_EQ(store->stats().evictions, 1u);
  EXPECT_EQ(store->stats().evicted_bytes, ChunkTotal());  // suffix only
  EXPECT_EQ(pc->TotalBytes(), 3 * ChunkTotal());  // prefix + b/c suffixes
  // The evicted member now only PARTIAL-hits through the surviving shared
  // chunk (its private suffix is gone).
  TierLookup evicted = pc->LookupAndPin("fam-a", Member(1), 4.0);
  EXPECT_TRUE(evicted.prefix_hit());
  EXPECT_EQ(evicted.covered_chunks, 1u);
  if (evicted.pinned) pc->Unpin("fam-a");

  // fam-b still serves a FULL hit from the shared chunk + its own suffix.
  TierLookup full = pc->LookupAndPin("fam-b", Member(2), 5.0);
  EXPECT_EQ(full.tier, KVTier::kHot);
  pc->Unpin("fam-b");

  // Erasing the last references frees the shared chunk too.
  pc->EraseContext("fam-a");
  pc->EraseContext("fam-b");
  pc->EraseContext("fam-c");
  EXPECT_EQ(pc->TotalBytes(), 0u);
  EXPECT_EQ(pc->stats().unique_chunks, 0u);
}

TEST(PrefixCache, PinnedContextIsNotEvicted) {
  auto [store, pc] = MakeBoundedCache(3 * ChunkTotal());
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  TierLookup look = pc->LookupAndPin("fam-a", Member(1), 1.0);
  ASSERT_TRUE(look.pinned);
  // fam-c's suffix overfills the store. fam-a's suffix is its LRU chunk
  // (1.0), but the lookup pins it, so the eviction falls on fam-b's (2.0).
  StoreMember(*pc, "fam-b", Member(2), 0xBB);
  pc->Touch("fam-b", 2.0);
  StoreMember(*pc, "fam-c", Member(3), 0xCC);
  pc->Touch("fam-c", 3.0);
  EXPECT_EQ(store->stats().evictions, 1u);
  EXPECT_TRUE(pc->ContainsContext("fam-a"));
  EXPECT_FALSE(pc->ContainsContext("fam-b"));
  EXPECT_TRUE(pc->ContainsContext("fam-c"));
  pc->Unpin("fam-a");
}

TEST(PrefixCache, ZombieChunkSurvivesEvictionWhilePinnedThenFrees) {
  auto [store, pc] = MakeBoundedCache(3 * ChunkTotal());
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  pc->Touch("fam-a", 1.0);
  // A sibling's PARTIAL lookup pins the shared prefix chunk, not fam-a's
  // suffix.
  TierLookup part = pc->LookupAndPin("sib", Member(2), 2.0);
  ASSERT_TRUE(part.prefix_hit());
  ASSERT_TRUE(part.pinned);

  // A different family's write-back overfills the store: fam-a's unpinned
  // suffix is evicted, the pinned prefix stays.
  WriteBack(*pc, "other", Stranger(8), 0x88, 3.0);
  EXPECT_EQ(store->stats().evictions, 1u);
  EXPECT_EQ(pc->TotalBytes(), 3 * ChunkTotal());

  // Erasing the prefix's last registration leaves it a zombie: zero refs,
  // but pinned by the in-flight sibling stream, so its bytes stay.
  pc->EraseContext("fam-a");
  EXPECT_EQ(pc->stats().contexts, 1u);
  EXPECT_EQ(pc->TotalBytes(), 3 * ChunkTotal());  // zombie + other's 2

  pc->Unpin("sib");  // last pin: the zombie's bytes are reclaimed now
  EXPECT_EQ(pc->TotalBytes(), 2 * ChunkTotal());
  EXPECT_EQ(pc->stats().unique_chunks, 2u);
}

// A write-back pins its chunks before it stores them, so its second chunk's
// insert cannot evict its first from a full inner store.
TEST(PrefixCache, WriteBackKeepsItsChunksInAFullInnerStore) {
  auto [store, pc] = MakeBoundedCache(2 * ChunkTotal());
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  pc->Touch("fam-a", 1.0);
  WriteBack(*pc, "other", Stranger(8), 0x88, 2.0);
  // Both of fam-a's chunks made room; both of the write-back's stayed.
  EXPECT_EQ(store->stats().evictions, 2u);
  EXPECT_TRUE(pc->ContainsContext("other"));
  const TierLookup look = pc->LookupAndPin("other", Stranger(8), 3.0);
  EXPECT_EQ(look.tier, KVTier::kHot);
  EXPECT_EQ(look.covered_chunks, 2u);
  if (look.pinned) pc->Unpin("other");
}

// The prefix chunk a sibling's partial hit pins is still found after its
// family's only registered member is erased: lookups walk chunk addresses,
// not registrations.
TEST(PrefixCache, PinnedPrefixIsFoundAfterItsLastRegistrationIsErased) {
  auto pc = MakeCache();
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  const TierLookup first = pc->LookupAndPin("sib-1", Member(2), 1.0);
  ASSERT_TRUE(first.prefix_hit());
  pc->EraseContext("fam-a");
  ASSERT_EQ(pc->stats().contexts, 0u);

  const TierLookup next = pc->LookupAndPin("sib-2", Member(3), 2.0);
  EXPECT_TRUE(next.prefix_hit());
  EXPECT_EQ(next.covered_chunks, 1u);
  EXPECT_EQ(next.covered_tokens, kChunk);
  if (next.pinned) pc->Unpin("sib-2");
  pc->Unpin("sib-1");
  EXPECT_EQ(pc->TotalBytes(), 0u);
}

TEST(PrefixCache, EraseIsRefusedWhilePinned) {
  auto pc = MakeCache();
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  pc->Pin("fam-a");
  pc->EraseContext("fam-a");
  EXPECT_EQ(pc->stats().contexts, 1u);
  EXPECT_TRUE(pc->ContainsContext("fam-a"));
  pc->Unpin("fam-a");
  pc->EraseContext("fam-a");
  EXPECT_EQ(pc->stats().contexts, 0u);
  EXPECT_FALSE(pc->ContainsContext("fam-a"));
  EXPECT_EQ(pc->TotalBytes(), 0u);
}

// Registrations outlive chunks the inner budget evicts; ContainsContext
// reports a registered context only while every chunk of it is held.
TEST(PrefixCache, ContainsContextNeedsEveryChunkInTheInnerTier) {
  auto [store, pc] = MakeBoundedCache(2 * ChunkTotal());
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  pc->Touch("fam-a", 1.0);
  EXPECT_TRUE(pc->ContainsContext("fam-a"));
  WriteBack(*pc, "other", Stranger(8), 0x88, 2.0);
  EXPECT_EQ(pc->stats().contexts, 2u);
  EXPECT_FALSE(pc->ContainsContext("fam-a"));
  EXPECT_TRUE(pc->ContainsContext("other"));
  // The next write-back of fam-a stores its chunks again.
  WriteBack(*pc, "fam-a", Member(1), 0xAA, 3.0);
  EXPECT_TRUE(pc->ContainsContext("fam-a"));
  EXPECT_FALSE(pc->ContainsContext("other"));
}

TEST(PrefixCache, UnannouncedContextsPassThroughUntouched) {
  auto pc = MakeCache();
  const std::vector<uint8_t> payload(64, 0x42);
  const ChunkView view{ChunkKey{"opaque", 0, 0},
                       std::span<const uint8_t>(payload)};
  pc->PutBatch("opaque", std::span<const ChunkView>(&view, 1));
  EXPECT_TRUE(pc->ContainsContext("opaque"));
  ASSERT_TRUE(pc->Get({"opaque", 0, 0}).has_value());
  EXPECT_EQ(*pc->Get({"opaque", 0, 0}), payload);
  // Raw contexts hit through the inner tier (no prefix semantics).
  TierLookup look = pc->LookupAndPin("opaque", ContextSpec{}, 1.0);
  EXPECT_EQ(look.tier, KVTier::kHot);
  pc->Unpin("opaque");
  EXPECT_EQ(pc->stats().contexts, 0u);
}

TEST(PrefixCache, GetTranslatesRegisteredChunkKeys) {
  auto pc = MakeCache();
  StoreMember(*pc, "fam-a", Member(1), 0xAA);
  // Reads under the ORIGINAL id resolve through the translation table.
  ASSERT_TRUE(pc->Get({"fam-a", 0, 1}).has_value());
  EXPECT_EQ(*pc->Get({"fam-a", 0, 1}), LevelBytes(1, 0xAA));
  // The shared chunk is readable under a sibling id once that sibling is
  // registered, and the bytes are the FIRST writer's (content equality is
  // the caller's contract via the digest).
  StoreMember(*pc, "fam-b", Member(2), 0xBB);
  ASSERT_TRUE(pc->Get({"fam-b", 0, 1}).has_value());
  EXPECT_EQ(*pc->Get({"fam-b", 0, 1}), LevelBytes(1, 0xAA));
  // Suffix chunks stay private.
  EXPECT_EQ(*pc->Get({"fam-b", 1, 1}), LevelBytes(1, 0xBB));
}

TEST(PrefixCache, ConcurrentStoreAndLookupKeepsCountsConsistent) {
  auto pc = MakeCache();
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pc, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        // Two families across all threads: heavy digest collisions on the
        // prefix chunk exercise the dedup path under contention.
        ContextSpec spec = Member(1000 + t * 100 + i);
        spec.prefix_seed = (t % 2 == 0) ? 0xFA111ULL : 0xFA222ULL;
        std::string id = "t";
        id.append(std::to_string(t));
        id.append("-c");
        id.append(std::to_string(i));
        StoreMember(*pc, id, spec, static_cast<uint8_t>(t * 16 + i));
        const TierLookup look = pc->LookupAndPin(id, spec, 1.0 + (double)i);
        EXPECT_EQ(look.tier, KVTier::kHot);
        pc->Unpin(id);
        // Fresh-suffix sibling: full prefix coverage, never a full hit.
        ContextSpec sibling = spec;
        sibling.seed ^= 0x5555;
        std::string sib_id = id;
        sib_id.append("-sib");
        const TierLookup part =
            pc->LookupAndPin(sib_id, sibling, 2.0 + (double)i);
        EXPECT_TRUE(part.prefix_hit());
        EXPECT_EQ(part.covered_chunks, 1u);
        if (part.pinned) pc->Unpin(sib_id);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = pc->stats();
  EXPECT_EQ(stats.contexts, kThreads * kPerThread);
  // Two families -> two shared prefix chunks; every context owns a unique
  // suffix chunk.
  EXPECT_EQ(stats.unique_chunks, 2 + kThreads * kPerThread);
  EXPECT_EQ(pc->TotalBytes(), (2 + kThreads * kPerThread) * ChunkTotal());
  EXPECT_EQ(stats.full_hits, kThreads * kPerThread);
  EXPECT_EQ(stats.prefix_hits, kThreads * kPerThread);
}

// The storage lock chain from several threads (storage/cache_tier.h): the
// tiered inner's hot tier holds three chunks, so lookups promote chunks out
// of the cold tier under the prefix lock, while read-backs of unpinned
// chunks take promote_mu_ without it and write-backs demote. The cold tier
// is unbounded and the prefix layer never evicts, so every count is exact.
TEST(PrefixCache, ConcurrentLookupsPromoteThroughATieredInner) {
  constexpr size_t kFamilies = 4;
  constexpr size_t kMembers = 3;
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 12;
  const fs::path root = fs::temp_directory_path() /
                        ("cachegen_prefix_tiered_" + std::to_string(::getpid()));
  fs::remove_all(root);
  TieredKVStore::Options topts;
  topts.hot = {.num_shards = 1, .capacity_bytes = 3 * ChunkTotal()};
  topts.cold_root = root;
  auto tiered = std::make_shared<TieredKVStore>(topts);
  PrefixCache::Options popts;
  popts.chunk_tokens = kChunk;
  PrefixCache pc(tiered, popts);

  // Every writer of an address writes the same bytes: a family's prefix
  // chunk carries the family's fill, a suffix chunk its member's.
  const auto spec_of = [](size_t family, uint64_t seed) {
    ContextSpec spec = Member(seed);
    spec.prefix_seed = 0xFA000ULL + family;
    return spec;
  };
  const auto family_fill = [](size_t family) {
    return static_cast<uint8_t>(0xF0 + family);
  };
  const auto member_fill = [](uint64_t seed) {
    return static_cast<uint8_t>(seed % 199);
  };
  const auto stored_id = [](size_t family, size_t member) {
    return "fam" + std::to_string(family) + "-m" + std::to_string(member);
  };
  const auto stored_seed = [](size_t family, size_t member) {
    return static_cast<uint64_t>(10 * family + member);
  };
  // Both levels of a chunk read back byte for byte under `id`.
  const auto chunk_reads_back = [&pc](const std::string& id, uint32_t chunk,
                                      uint8_t fill) {
    for (int level = 0; level < 2; ++level) {
      const auto bytes = pc.Get({id, chunk, level});
      if (!bytes || *bytes != LevelBytes(level, fill)) return false;
    }
    return true;
  };
  for (size_t f = 0; f < kFamilies; ++f) {
    for (size_t m = 0; m < kMembers; ++m) {
      const uint64_t seed = stored_seed(f, m);
      pc.BeginStore(stored_id(f, m), spec_of(f, seed));
      PutMember(pc, stored_id(f, m), member_fill(seed), family_fill(f));
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        const double now = 1.0 + static_cast<double>(r);
        const size_t f = (t + r) % kFamilies;
        const size_t m = r % kMembers;
        const uint64_t seed = stored_seed(f, m);
        const std::string id = stored_id(f, m);
        // Full hit, read back while pinned.
        const TierLookup full = pc.LookupAndPin(id, spec_of(f, seed), now);
        EXPECT_TRUE(full.hit());
        EXPECT_EQ(full.covered_chunks, 2u);
        EXPECT_TRUE(chunk_reads_back(id, 0, family_fill(f)));
        EXPECT_TRUE(chunk_reads_back(id, 1, member_fill(seed)));
        if (full.pinned) pc.Unpin(id);

        // Partial hit of a never-stored sibling: the family prefix chunk.
        const ContextSpec sibling = spec_of(f, 1000 + 100 * t + r);
        const std::string sib_id =
            "sib" + std::to_string(t) + "-" + std::to_string(r);
        const TierLookup part = pc.LookupAndPin(sib_id, sibling, now);
        EXPECT_TRUE(part.prefix_hit());
        EXPECT_EQ(part.covered_chunks, 1u);
        EXPECT_TRUE(chunk_reads_back(pc.ContentAddress(sibling, 0), 0,
                                     family_fill(f)));
        if (part.pinned) pc.Unpin(sib_id);

        // Unpinned read-back of another member: its suffix chunk may be
        // cold, or mid-promotion on another thread.
        const size_t f2 = (f + 1) % kFamilies;
        const uint64_t seed2 = stored_seed(f2, m);
        EXPECT_TRUE(chunk_reads_back(stored_id(f2, m), 1, member_fill(seed2)));
        EXPECT_TRUE(pc.ContainsContext(pc.ContentAddress(spec_of(f2, seed2), 1)));

        // Write-back of a fresh member: dedups the prefix chunk, and its
        // suffix insert demotes colder chunks.
        const uint64_t wb_seed = 5000 + 100 * t + r;
        const std::string wb_id =
            "wb" + std::to_string(t) + "-" + std::to_string(r);
        pc.BeginStore(wb_id, spec_of(f, wb_seed));
        pc.Pin(wb_id);
        PutMember(pc, wb_id, member_fill(wb_seed), family_fill(f));
        pc.Touch(wb_id, now);
        pc.Unpin(wb_id);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr size_t kLookups = kThreads * kRounds;
  const auto stats = pc.stats();
  EXPECT_EQ(stats.full_hits, kLookups);
  EXPECT_EQ(stats.prefix_hits, kLookups);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.contexts, kFamilies * kMembers + kLookups);
  EXPECT_EQ(stats.unique_chunks, kFamilies + stats.contexts);
  EXPECT_EQ(pc.TotalBytes(), stats.unique_chunks * ChunkTotal());
  // Each full hit looks up two chunks and each partial hit one; the
  // sibling's own id probes the inner tier first and misses.
  const auto ts = tiered->stats();
  EXPECT_EQ(ts.hot_hits + ts.cold_hits, 3 * kLookups);
  EXPECT_EQ(ts.misses, kLookups);
  EXPECT_EQ(ts.cold_hits, ts.promotions);
  EXPECT_GT(ts.promotions, 0u);
  pc.Flush();
  EXPECT_EQ(tiered->stats().pending_demotion_bytes, 0u);
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Cluster-level partial-prefix serving.
// ---------------------------------------------------------------------------

TEST(ClusterPrefix, PartialHitStreamsSuffixOnlyAndBeatsMissTtft) {
  auto inner = std::make_shared<ShardedKVStore>(
      ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0});
  PrefixCache::Options popts;  // chunk_tokens = engine default (1500)
  auto pc = std::make_shared<PrefixCache>(inner, popts);
  Engine::Options eopts;
  eopts.calib_context_tokens = 600;
  eopts.calib_num_contexts = 4;
  Engine engine(eopts, pc);
  ClusterServer::Options copts;
  // One worker serializes admissions, so each request's lookup comes after
  // the previous request's write-back, whatever the arrival gaps.
  copts.num_workers = 1;
  // Tight SLO: the lossless all-text configuration cannot meet it (three
  // 1500-token prefills ~0.57 s), so the adapter streams cached chunks as
  // encoded KV — the regime the paper (and this subsystem) is about.
  copts.default_slo_s = 0.45;
  ClusterServer server(engine, std::static_pointer_cast<CacheTier>(pc),
                       BandwidthTrace::Constant(2.0), copts);

  PrefixTraceOptions topts;
  topts.prefix_tokens = 3000;  // two shared chunks
  topts.suffix_min_tokens = 1500;
  topts.suffix_max_tokens = 1500;  // equal totals: TTFTs are comparable
  topts.slo_s = 0.45;

  // Hand-built trace, arrivals far apart so queueing never interferes:
  //  r0 miss (first family member, written back)
  //  r1 same family, new suffix -> PARTIAL prefix hit
  //  r2 solo context, same total length -> full miss (the TTFT baseline)
  //  r3 repeats r1's context -> FULL hit
  std::vector<ClusterRequest> trace;
  const auto push = [&trace](std::string id, ContextSpec spec, double at) {
    ClusterRequest rq;
    rq.id = trace.size();
    rq.arrival_s = at;
    rq.context_id = std::move(id);
    rq.spec = spec;
    rq.slo_s = 0.45;
    trace.push_back(std::move(rq));
  };
  const ContextSpec m0 = PrefixFamilySpec(topts, 0, 0);
  const ContextSpec m1 = PrefixFamilySpec(topts, 0, 1);
  ContextSpec solo;
  solo.seed = 0x5010;
  solo.num_tokens = m1.num_tokens;
  push("fam0-sfx0", m0, 0.0);
  push("fam0-sfx1", m1, 50.0);
  push("solo-0", solo, 100.0);
  push("fam0-sfx1", m1, 150.0);

  const auto outcomes = server.Serve(std::move(trace));
  ASSERT_EQ(outcomes.size(), 4u);

  EXPECT_TRUE(outcomes[0].forced_text);  // cold start: nothing cached
  EXPECT_FALSE(outcomes[0].prefix_hit);

  EXPECT_TRUE(outcomes[1].prefix_hit);
  EXPECT_FALSE(outcomes[1].cache_hit);
  EXPECT_FALSE(outcomes[1].forced_text);
  EXPECT_EQ(outcomes[1].covered_tokens, topts.prefix_tokens);

  EXPECT_TRUE(outcomes[2].forced_text);

  EXPECT_TRUE(outcomes[3].cache_hit);  // the partial hit wrote itself back
  EXPECT_FALSE(outcomes[3].prefix_hit);

  // Suffix-only streaming: the partial hit strictly beats the equal-length
  // full miss on TTFT (only 1500 of 4500 tokens paid text + prefill), and
  // the full hit beats the partial.
  EXPECT_LT(outcomes[1].ttft_s, outcomes[2].ttft_s);
  EXPECT_LT(outcomes[3].ttft_s, outcomes[1].ttft_s);

  // Dedup observed: r1's write-back shared the two prefix chunks.
  const auto stats = pc->stats();
  EXPECT_GT(stats.deduped_bytes, 0u);
  EXPECT_GE(stats.deduped_chunks, 2u);

  // Metrics surface the scenario taxonomy and dedup'd bytes.
  const ClusterSummary s = Summarize(outcomes, &server.tier());
  EXPECT_DOUBLE_EQ(s.prefix_hit_rate, 0.25);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 0.25);
  EXPECT_DOUBLE_EQ(s.miss_rate, 0.5);
  EXPECT_GT(s.deduped_bytes, 0u);
  EXPECT_GT(s.mean_covered_fraction, 0.5);
  EXPECT_LT(s.mean_prefix_ttft_s, s.mean_miss_ttft_s);
}

}  // namespace
}  // namespace cachegen
