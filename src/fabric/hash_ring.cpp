#include "fabric/hash_ring.h"

#include <stdexcept>

namespace cachegen {

namespace {

// Virtual points each node projects onto the circle.
constexpr size_t kVnodesPerNode = 128;

// FNV-1a 64 seeded: the seed replaces the standard offset basis, then the
// bytes fold in as usual. Matches storage's Fnv1a64 discipline (stable
// across platforms, not collision-resistant) without depending on it, so
// the ring's placement never silently changes if storage retunes its hash.
uint64_t Fnv1a64Seeded(std::string_view s, uint64_t seed) {
  uint64_t h = seed ^ 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  // Final avalanche (splitmix64 tail): raw FNV's low bits are weak for
  // short keys, and ring points need all 64 bits well mixed.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

uint64_t HashRing::HashKey(std::string_view key, uint64_t seed) {
  return Fnv1a64Seeded(key, seed);
}

HashRing::HashRing(size_t num_nodes, Options opts) : opts_(opts) {
  if (num_nodes == 0) {
    throw std::invalid_argument("HashRing: need at least one node");
  }
  for (size_t i = 0; i < num_nodes; ++i) AddNode();
}

void HashRing::InsertNodePoints(uint32_t id) {
  const std::string prefix = "node:" + std::to_string(id) + ":vnode:";
  for (size_t v = 0; v < kVnodesPerNode; ++v) {
    uint64_t point = HashKey(prefix + std::to_string(v), opts_.seed);
    // A point collision between distinct vnodes is ~impossible (64-bit) but
    // would silently drop a vnode; probe linearly so the census is exact.
    while (ring_.count(point) != 0) ++point;
    ring_.emplace(point, id);
  }
}

uint32_t HashRing::AddNode() {
  const uint32_t id = next_id_++;
  InsertNodePoints(id);
  ++live_nodes_;
  return id;
}

void HashRing::RemoveNode(uint32_t id) {
  size_t erased = 0;
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == id) {
      it = ring_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  if (erased == 0) {
    throw std::invalid_argument("HashRing: RemoveNode of unknown node id");
  }
  if (--live_nodes_ == 0) {
    throw std::logic_error("HashRing: removed the last node");
  }
}

uint32_t HashRing::PrimaryNode(std::string_view key) const {
  auto it = ring_.lower_bound(HashKey(key, opts_.seed));
  if (it == ring_.end()) it = ring_.begin();  // wrap the circle
  return it->second;
}

std::vector<uint32_t> HashRing::ReplicaNodes(std::string_view key,
                                             size_t r) const {
  r = std::min(r, live_nodes_);
  std::vector<uint32_t> out;
  out.reserve(r);
  auto it = ring_.lower_bound(HashKey(key, opts_.seed));
  // Walk clockwise collecting distinct nodes; at most one full revolution.
  for (size_t steps = 0; out.size() < r && steps < ring_.size(); ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    const uint32_t node = it->second;
    bool seen = false;
    for (uint32_t n : out) seen |= (n == node);
    if (!seen) out.push_back(node);
    ++it;
  }
  return out;
}

}  // namespace cachegen
