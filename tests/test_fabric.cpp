// Cache fabric: consistent-hash ring properties (balance, minimal remap,
// determinism), CRT replica schedules vs brute force, cross-node chunk dedup
// and peer fetch in CacheFabric, and the cluster-level scenario ladder —
// local hit < remote hit < miss on TTFT (the bench_cache_fabric CI gate,
// asserted here at unit scale).
//
// CACHEGEN_THREADS=1 is pinned before the lazy ThreadPool exists so codec
// tails run single-threaded — the determinism test compares two runs
// bitwise and must not depend on worker interleaving inside a chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_server.h"
#include "fabric/cache_fabric.h"
#include "fabric/hash_ring.h"
#include "fabric/replica_schedule.h"
#include "net/bandwidth_trace.h"
#include "obs/trace.h"
#include "prefix/prefix_cache.h"
#include "serving/engine.h"
#include "storage/sharded_kv_store.h"
#include "workload/prefix_trace.h"

namespace cachegen {
namespace {

[[maybe_unused]] const bool kThreadsPinned = [] {
  ::setenv("CACHEGEN_THREADS", "1", 1);
  return true;
}();

// ---------------------------------------------------------------------------
// HashRing.
// ---------------------------------------------------------------------------

std::vector<std::string> Keys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back("ctx-" + std::to_string(i));
  return keys;
}

TEST(HashRing, BalanceBoundOver10kContexts) {
  const size_t kNodes = 4, kKeys = 10000;
  HashRing ring(kNodes);
  std::vector<size_t> per_node(kNodes, 0);
  for (const std::string& k : Keys(kKeys)) ++per_node[ring.PrimaryNode(k)];
  const double fair = static_cast<double>(kKeys) / kNodes;
  size_t total = 0;
  for (size_t node = 0; node < kNodes; ++node) {
    total += per_node[node];
    // 128 vnodes/node keeps every share within ±40% of fair — loose enough
    // to be robust, tight enough that a broken ring (all keys on one node)
    // fails loudly.
    EXPECT_GT(per_node[node], 0.6 * fair) << "node " << node;
    EXPECT_LT(per_node[node], 1.4 * fair) << "node " << node;
  }
  EXPECT_EQ(total, kKeys);
}

TEST(HashRing, AddNodeMovesAboutOneOverNKeysOnlyToTheNewNode) {
  const size_t kKeys = 10000;
  HashRing ring(4);
  const auto keys = Keys(kKeys);
  std::vector<uint32_t> before;
  before.reserve(kKeys);
  for (const auto& k : keys) before.push_back(ring.PrimaryNode(k));

  const uint32_t added = ring.AddNode();
  EXPECT_EQ(added, 4u);
  EXPECT_EQ(ring.num_nodes(), 5u);
  size_t moved = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t now = ring.PrimaryNode(keys[i]);
    if (now != before[i]) {
      ++moved;
      // Consistent hashing's whole point: keys only ever move TO the
      // arriving node, never shuffle between survivors.
      EXPECT_EQ(now, added) << keys[i];
    }
  }
  // Expected remap fraction is 1/5; allow a wide deterministic band.
  EXPECT_GT(moved, kKeys / 10);
  EXPECT_LT(moved, kKeys * 35 / 100);
}

TEST(HashRing, RemoveNodeRemapsOnlyTheRemovedNodesKeys) {
  const size_t kKeys = 10000;
  HashRing ring(4);
  const auto keys = Keys(kKeys);
  std::vector<uint32_t> before;
  before.reserve(kKeys);
  for (const auto& k : keys) before.push_back(ring.PrimaryNode(k));

  ring.RemoveNode(2);
  EXPECT_EQ(ring.num_nodes(), 3u);
  size_t orphaned = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t now = ring.PrimaryNode(keys[i]);
    EXPECT_NE(now, 2u) << keys[i];
    if (before[i] == 2) {
      ++orphaned;
    } else {
      EXPECT_EQ(now, before[i]) << keys[i] << " moved without cause";
    }
  }
  // The departed node owned ~1/4 of the keyspace.
  EXPECT_GT(orphaned, kKeys * 15 / 100);
  EXPECT_LT(orphaned, kKeys * 35 / 100);

  EXPECT_THROW(ring.RemoveNode(2), std::invalid_argument);  // already gone
}

TEST(HashRing, PlacementIsDeterministicAcrossInstancesAndSeedSensitive) {
  HashRing a(6), b(6);
  HashRing::Options other;
  other.seed ^= 0x9e3779b97f4a7c15ull;
  HashRing c(6, other);
  size_t differs = 0;
  for (const auto& k : Keys(1000)) {
    EXPECT_EQ(a.PrimaryNode(k), b.PrimaryNode(k)) << k;
    EXPECT_EQ(a.ReplicaNodes(k, 3), b.ReplicaNodes(k, 3)) << k;
    if (a.PrimaryNode(k) != c.PrimaryNode(k)) ++differs;
  }
  EXPECT_GT(differs, 500u);  // a different seed is an independent placement
}

TEST(HashRing, ReplicaNodesAreDistinctPrimaryFirstAndClamped) {
  HashRing ring(4);
  for (const auto& k : Keys(200)) {
    const auto reps = ring.ReplicaNodes(k, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], ring.PrimaryNode(k));
    std::set<uint32_t> uniq(reps.begin(), reps.end());
    EXPECT_EQ(uniq.size(), reps.size()) << k;
    // r beyond the node count clamps to all nodes, still distinct.
    const auto all = ring.ReplicaNodes(k, 64);
    EXPECT_EQ(all.size(), 4u);
    EXPECT_EQ(std::set<uint32_t>(all.begin(), all.end()).size(), 4u);
  }
}

// ---------------------------------------------------------------------------
// CRT replica schedules.
// ---------------------------------------------------------------------------

TEST(ReplicaSchedule, EverySchedulePermutesTheStripe) {
  for (uint32_t r : {2u, 3u, 5u, 7u}) {
    for (uint64_t reader = 1; reader <= 64; ++reader) {
      const auto params = ReplicaScheduleFor(reader, r);
      EXPECT_EQ(std::gcd(params.step, r), 1u);
      std::set<uint32_t> seen;
      for (uint64_t slot = 0; slot < r; ++slot) {
        const uint32_t c = ReplicaChoice(reader, slot, r);
        ASSERT_LT(c, r);
        EXPECT_EQ(c, (params.offset + slot * params.step) % r);
        seen.insert(c);
      }
      // step coprime to R: R consecutive fetches touch every replica once.
      EXPECT_EQ(seen.size(), r) << "reader " << reader << " R " << r;
    }
  }
}

TEST(ReplicaSchedule, CrtCollisionBoundMatchesBruteForceForPrimeR) {
  const uint32_t kR = 5;  // prime, so every nonzero step is a unit
  const uint64_t kReaders = 48;
  size_t distinct_param_pairs = 0;
  for (uint64_t a = 1; a <= kReaders; ++a) {
    for (uint64_t b = a + 1; b <= kReaders; ++b) {
      const auto pa = ReplicaScheduleFor(a, kR);
      const auto pb = ReplicaScheduleFor(b, kR);
      if (pa.offset == pb.offset && pa.step == pb.step) continue;
      ++distinct_param_pairs;
      // Brute force: distinct linear schedules over Z_prime intersect in at
      // most one slot per R consecutive slots (two lines cross at most once).
      for (uint64_t base : {0ull, 7ull, 1000ull}) {
        size_t collisions = 0;
        for (uint64_t slot = base; slot < base + kR; ++slot) {
          if (ReplicaChoice(a, slot, kR) == ReplicaChoice(b, slot, kR)) {
            ++collisions;
          }
        }
        EXPECT_LE(collisions, 1u) << "readers " << a << "," << b;
      }
    }
  }
  // The bound must have been exercised on real pairs, not vacuously.
  EXPECT_GT(distinct_param_pairs, kReaders);
}

TEST(ReplicaSchedule, DegenerateWidths) {
  EXPECT_EQ(ReplicaChoice(123, 7, 1), 0u);
  EXPECT_THROW(ReplicaChoice(1, 0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CacheFabric: cross-node dedup, peer fetch, refcounted erase.
// ---------------------------------------------------------------------------

constexpr size_t kChunk = 100;

// Family member: one shared prefix chunk + one private suffix chunk.
ContextSpec Member(uint64_t suffix_seed) {
  ContextSpec spec;
  spec.seed = suffix_seed;
  spec.num_tokens = 2 * kChunk;
  spec.prefix_seed = 0xFAB00ULL;
  spec.prefix_tokens = kChunk;
  return spec;
}

std::vector<uint8_t> LevelBytes(int level, uint8_t fill) {
  return std::vector<uint8_t>(static_cast<size_t>(40 + 10 * level), fill);
}

uint64_t ChunkTotal() {
  return LevelBytes(0, 0).size() + LevelBytes(1, 0).size();
}

void StoreMember(CacheFabric& fab, const std::string& id,
                 const ContextSpec& spec, uint8_t fill) {
  fab.BeginStore(id, spec);
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<ChunkView> views;
  for (uint32_t chunk = 0; chunk < 2; ++chunk) {
    for (int level = 0; level < 2; ++level) {
      bufs.push_back(LevelBytes(level, fill));
      views.emplace_back(ChunkKey{id, chunk, level},
                         std::span<const uint8_t>(bufs.back()));
    }
  }
  fab.PutBatch(id, views);
}

CacheFabric::Options SmallFabricOpts(size_t nodes, size_t replicas) {
  CacheFabric::Options f;
  f.num_nodes = nodes;
  f.chunk_replicas = replicas;
  f.node_store = ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0};
  f.prefix_opts.chunk_tokens = kChunk;
  return f;
}

// First id of the form stem<i> satisfying pred (placement is deterministic,
// so the found id is too).
template <typename Pred>
std::string FindId(const std::string& stem, Pred pred) {
  for (int i = 0; i < 100000; ++i) {
    std::string id = stem + std::to_string(i);
    if (pred(id)) return id;
  }
  ADD_FAILURE() << "no id found for stem " << stem;
  return stem;
}

TEST(CacheFabric, DedupSharesPrefixChunkBytesAcrossHomeNodes) {
  CacheFabric fab(SmallFabricOpts(4, 2));
  // Two family members homed on DIFFERENT nodes — the prefix chunk they
  // share must still be stored once per replica, not once per home.
  const std::string id_a =
      FindId("fam-a-", [&](const std::string& id) { return fab.HomeNode(id) == 0; });
  const std::string id_b =
      FindId("fam-b-", [&](const std::string& id) { return fab.HomeNode(id) == 1; });

  StoreMember(fab, id_a, Member(1), 0xAA);
  const uint64_t after_one = fab.TotalBytes();
  EXPECT_EQ(after_one, 2 * 2 * ChunkTotal());  // 2 chunks x 2 replicas

  StoreMember(fab, id_b, Member(2), 0xBB);
  // Only b's private suffix chunk landed; the shared prefix chunk was
  // cross-node-deduped through the global directory.
  EXPECT_EQ(fab.TotalBytes(), 3 * 2 * ChunkTotal());
  const auto stats = fab.stats();
  EXPECT_EQ(stats.dir_chunks, 3u);
  EXPECT_EQ(stats.xnode_dedup_chunks, 1u);
  EXPECT_TRUE(fab.ContainsContext(id_a));
  EXPECT_TRUE(fab.ContainsContext(id_b));

  // Full hits through the tier interface, on both homes.
  TierLookup la = fab.LookupAndPin(id_a, Member(1), 1.0);
  EXPECT_TRUE(la.hit());
  if (la.pinned) fab.Unpin(id_a);
  TierLookup lb = fab.LookupAndPin(id_b, Member(2), 2.0);
  EXPECT_TRUE(lb.hit());
  if (lb.pinned) fab.Unpin(id_b);

  // Refcounted erase: dropping one member keeps the shared chunk alive for
  // the other; dropping both releases every replica byte.
  fab.EraseContext(id_a);
  EXPECT_FALSE(fab.ContainsContext(id_a));
  EXPECT_TRUE(fab.ContainsContext(id_b));
  EXPECT_EQ(fab.TotalBytes(), 2 * 2 * ChunkTotal());
  fab.EraseContext(id_b);
  EXPECT_EQ(fab.TotalBytes(), 0u);
  EXPECT_EQ(fab.stats().dir_chunks, 0u);
}

TEST(CacheFabric, PeerFetchIsCountedAndClassifiedRemote) {
  CacheFabric fab(SmallFabricOpts(4, 2));
  ASSERT_NE(fab.prefix(), nullptr);
  // A context whose home node owns NO replica of either of its chunks:
  // every chunk lookup is then a peer fetch, so the hit is remote no matter
  // where the front node lands.
  uint64_t seed = 0;
  std::string id;
  ContextSpec spec;
  for (uint64_t s = 1; s < 4000 && id.empty(); ++s) {
    const ContextSpec cand = Member(0xD00D00 + s);
    const auto own0 =
        fab.ring().ReplicaNodes(fab.prefix()->ContentAddress(cand, 0), 2);
    const auto own1 =
        fab.ring().ReplicaNodes(fab.prefix()->ContentAddress(cand, 1), 2);
    for (int i = 0; i < 2000; ++i) {
      const std::string cand_id = "far-" + std::to_string(s) + "-" + std::to_string(i);
      const uint32_t home = fab.HomeNode(cand_id);
      const auto off = [&](const std::vector<uint32_t>& owners) {
        return std::find(owners.begin(), owners.end(), home) == owners.end();
      };
      if (off(own0) && off(own1)) {
        id = cand_id;
        spec = cand;
        seed = s;
        break;
      }
    }
  }
  ASSERT_FALSE(id.empty()) << "no off-replica context found";
  (void)seed;

  StoreMember(fab, id, spec, 0xCC);
  TierLookup look = fab.LookupAndPin(id, spec, 1.0);
  EXPECT_TRUE(look.hit());
  EXPECT_TRUE(look.any_remote);
  if (look.pinned) fab.Unpin(id);

  const auto stats = fab.stats();
  EXPECT_EQ(stats.remote_hits, 1u);
  EXPECT_EQ(stats.local_hits, 0u);
  EXPECT_EQ(stats.chunk_reads, 2u);
  EXPECT_EQ(stats.remote_chunk_fetches, 2u);  // both chunks live off-home
  EXPECT_GT(stats.remote_chunk_bytes, 0u);
  EXPECT_LE(stats.max_read_share(), 1.0);
}

TEST(CacheFabric, SingleNodeFabricIsAlwaysLocal) {
  CacheFabric fab(SmallFabricOpts(1, 2));  // replicas clamp to the 1 node
  StoreMember(fab, "solo", Member(9), 0xEE);
  TierLookup look = fab.LookupAndPin("solo", Member(9), 1.0);
  EXPECT_TRUE(look.hit());
  EXPECT_FALSE(look.any_remote);
  if (look.pinned) fab.Unpin("solo");
  const auto stats = fab.stats();
  EXPECT_EQ(stats.local_hits, 1u);
  EXPECT_EQ(stats.remote_hits, 0u);
  EXPECT_EQ(stats.remote_chunk_fetches, 0u);
}

// One request's chunk reads can run on different threads: its lookup on the
// worker serving it, its assembly on whichever pool thread drains the tail.
// The replica that serves a chunk must depend on the request and the chunk
// alone, not on how many chunks the reading thread fetched before it.
TEST(CacheFabric, ReplicaChoiceIsAFunctionOfRequestAndChunk) {
  CacheFabric fab(SmallFabricOpts(4, 2));
  StoreMember(fab, "rc", Member(5), 0x5A);
  // The node whose read counter one read moved.
  const auto read = [&](uint32_t chunk) {
    const std::vector<uint64_t> before = fab.stats().node_chunk_reads;
    EXPECT_TRUE(fab.kv().Get(ChunkKey{"rc", chunk, 0}).has_value());
    const std::vector<uint64_t> after = fab.stats().node_chunk_reads;
    int served = -1;
    for (size_t n = 0; n < after.size(); ++n) {
      if (after[n] != before[n]) served = static_cast<int>(n);
    }
    return served;
  };
  int first = -1, second = -1;
  std::thread a([&] {
    obs::ScopedRequestId rid(7);
    first = read(0);
  });
  a.join();
  std::thread b([&] {
    obs::ScopedRequestId rid(7);
    read(1);
    second = read(0);
  });
  b.join();
  ASSERT_GE(first, 0);
  EXPECT_EQ(first, second);
}

TEST(CacheFabric, RejectsInvalidTopologies) {
  CacheFabric::Options f = SmallFabricOpts(0, 2);
  EXPECT_THROW(CacheFabric{f}, std::invalid_argument);
  f = SmallFabricOpts(65, 2);
  EXPECT_THROW(CacheFabric{f}, std::invalid_argument);
  f = SmallFabricOpts(4, 0);
  EXPECT_THROW(CacheFabric{f}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cluster-level scenario ladder: local hit < remote hit < miss on TTFT.
// ---------------------------------------------------------------------------

// Engine calibration and write-back encoding dominate the serving tests'
// runtime, most of all under TSan. The engines use test_outcome_digest's
// small settings: 256-token chunks, a 2x400-token profile and a 64-token
// layered calibration slice.
constexpr size_t kServeChunkTokens = 256;

Engine::Options SmallEngineOptions() {
  Engine::Options eopts;
  eopts.chunk_tokens = kServeChunkTokens;
  eopts.calib_context_tokens = 400;
  eopts.calib_num_contexts = 2;
  eopts.layered_calib_tokens = 64;
  return eopts;
}

TEST(ClusterFabric, RemoteHitTtftSitsBetweenLocalHitAndMiss) {
  // prefix=false keeps classification purely topological (front vs home):
  // contexts store whole on their home node, so the remote surcharge is
  // exactly the interconnect model — the cleanest ladder to assert on.
  CacheFabric::Options f;
  f.num_nodes = 4;
  f.prefix = false;
  f.node_store = ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0};
  auto fab = std::make_shared<CacheFabric>(f);

  const std::string id_local = FindId("loc-", [&](const std::string& id) {
    return fab->FrontNode(id) == fab->HomeNode(id);
  });
  const std::string id_remote = FindId("rem-", [&](const std::string& id) {
    return fab->FrontNode(id) != fab->HomeNode(id);
  });

  Engine engine(SmallEngineOptions(), fab);
  ClusterServer::Options copts;
  copts.num_workers = 1;  // serialize: each lookup after the prior write-back
  copts.default_slo_s = 0.45;
  copts.remote_read_gbps = 1.5;  // below the 2 Gbps link: remote visibly slower
  copts.remote_rtt_s = 0.02;
  ClusterServer server(engine, std::static_pointer_cast<CacheTier>(fab),
                       BandwidthTrace::Constant(2.0), copts);

  // The contexts keep their 4500 tokens: the ladder is a long-context
  // property. At 1024 tokens a remote hit's RTT and read cap already cost
  // more than re-prefilling (0.175 s against 0.155 s TTFT).
  ContextSpec spec;
  spec.num_tokens = 4500;
  std::vector<ClusterRequest> trace;
  const auto push = [&trace, &spec](const std::string& id, uint64_t seed,
                                    double at) {
    ClusterRequest rq;
    rq.id = trace.size();
    rq.arrival_s = at;
    rq.context_id = id;
    rq.spec = spec;
    rq.spec.seed = seed;
    rq.slo_s = 0.45;
    trace.push_back(std::move(rq));
  };
  push(id_local, 1, 0.0);    // miss, written back to its home node
  push(id_remote, 2, 50.0);  // miss, written back
  push(id_local, 1, 100.0);  // full LOCAL hit (front == home)
  push(id_remote, 2, 150.0); // full REMOTE hit (front != home)
  push("fresh-miss", 3, 200.0);  // the TTFT baseline to beat

  const auto outcomes = server.Serve(std::move(trace));
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].forced_text);
  EXPECT_TRUE(outcomes[1].forced_text);

  EXPECT_TRUE(outcomes[2].cache_hit);
  EXPECT_FALSE(outcomes[2].remote_hit);
  EXPECT_TRUE(outcomes[3].cache_hit);
  EXPECT_TRUE(outcomes[3].remote_hit);
  EXPECT_TRUE(outcomes[4].forced_text);

  // The ladder the fabric exists to create.
  EXPECT_LT(outcomes[2].ttft_s, outcomes[3].ttft_s);
  EXPECT_LT(outcomes[3].ttft_s, outcomes[4].ttft_s);

  const ClusterSummary s = Summarize(outcomes);
  EXPECT_DOUBLE_EQ(s.remote_hit_rate, 0.2);
  EXPECT_DOUBLE_EQ(s.local_hit_rate, 0.2);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 0.4);
  EXPECT_GT(s.mean_remote_ttft_s, s.mean_local_ttft_s);
  EXPECT_LT(s.mean_remote_ttft_s, s.mean_miss_ttft_s);

  const auto fstats = fab->stats();
  EXPECT_EQ(fstats.local_hits, 1u);
  EXPECT_EQ(fstats.remote_hits, 1u);
}

TEST(ClusterFabric, ServingOutcomesAreBitIdenticalAcrossRuns) {
  struct Run {
    std::vector<RequestOutcome> outcomes;
    uint64_t remote_chunk_fetches = 0;
  };
  const auto run = [] {
    CacheFabric::Options f;
    f.num_nodes = 4;
    f.chunk_replicas = 2;
    f.node_store =
        ShardedKVStore::Options{.num_shards = 2, .capacity_bytes = 0};
    // The prefix layer content-addresses write-backs and peer-fetches
    // striped chunks — the full fabric path.
    f.prefix_opts.chunk_tokens = kServeChunkTokens;
    auto fab = std::make_shared<CacheFabric>(f);
    Engine engine(SmallEngineOptions(), fab);
    ClusterServer::Options copts;
    copts.num_workers = 1;
    copts.default_slo_s = 0.45;
    ClusterServer server(engine, std::static_pointer_cast<CacheTier>(fab),
                         BandwidthTrace::Constant(2.0), copts);

    PrefixTraceOptions topts;
    topts.prefix_tokens = 2 * kServeChunkTokens;
    topts.suffix_min_tokens = kServeChunkTokens;
    topts.suffix_max_tokens = kServeChunkTokens;
    std::vector<ClusterRequest> trace;
    for (size_t i = 0; i < 8; ++i) {
      ClusterRequest rq;
      rq.id = trace.size();
      rq.arrival_s = 40.0 * static_cast<double>(i);
      rq.context_id = "fam0-sfx" + std::to_string(i % 3);
      rq.spec = PrefixFamilySpec(topts, 0, i % 3);
      rq.slo_s = 0.45;
      trace.push_back(std::move(rq));
    }
    Run r;
    r.outcomes = server.Serve(std::move(trace));
    r.remote_chunk_fetches = fab->stats().remote_chunk_fetches;
    return r;
  };

  const Run run_a = run();
  const Run run_b = run();
  const auto& a = run_a.outcomes;
  const auto& b = run_b.outcomes;
  // The trace must exercise the path it pins: prefix hits served from
  // shared chunks, some fetched from peer nodes.
  EXPECT_GT(std::count_if(a.begin(), a.end(),
                          [](const RequestOutcome& o) { return o.prefix_hit; }),
            0);
  EXPECT_GT(run_a.remote_chunk_fetches, 0u);
  EXPECT_EQ(run_a.remote_chunk_fetches, run_b.remote_chunk_fetches);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise-equal virtual-time outcomes: placement, routing, replica
    // choice, and streaming timelines are all pure functions of the inputs.
    EXPECT_EQ(a[i].ttft_s, b[i].ttft_s) << i;
    EXPECT_EQ(a[i].admit_s, b[i].admit_s) << i;
    EXPECT_EQ(a[i].finish_s, b[i].finish_s) << i;
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit) << i;
    EXPECT_EQ(a[i].remote_hit, b[i].remote_hit) << i;
    EXPECT_EQ(a[i].prefix_hit, b[i].prefix_hit) << i;
    EXPECT_EQ(a[i].bytes_sent, b[i].bytes_sent) << i;
  }
}

}  // namespace
}  // namespace cachegen
