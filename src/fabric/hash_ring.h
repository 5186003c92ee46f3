// HashRing: consistent-hash placement of context ids and cas- chunk
// addresses over N cache nodes — the routing core of the cache fabric.
//
// Classic Karger-style ring: every node projects 128 virtual points onto a
// 64-bit circle; a key is owned by the first node point at or
// clockwise-after the key's own point. Virtual points smooth the per-node
// share (the balance bound tests assert it over 10k contexts) and make node
// arrival/departure move only ~1/N of the keyspace — the property that lets
// a fabric grow without a global reshuffle.
//
// Determinism: all points come from seeded FNV-1a hashing of stable strings
// ("node:<id>:vnode:<v>"), never from std::hash or process state, so
// placement is bit-identical across runs, platforms, and node-set replay
// order. Node ids are stable handles: RemoveNode(i) deletes node i's points
// but never renumbers the survivors.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cachegen {

class HashRing {
 public:
  struct Options {
    // Folded into every point hash; two rings with equal node sets and equal
    // seeds are identical, different seeds are independent placements.
    uint64_t seed = 0x66ab0fab51cd0001ull;
  };

  // Ring over nodes 0..num_nodes-1.
  HashRing(size_t num_nodes, Options opts);
  explicit HashRing(size_t num_nodes) : HashRing(num_nodes, Options{}) {}

  // Live node count (ids may be sparse after RemoveNode).
  size_t num_nodes() const { return live_nodes_; }

  // Owner of `key`: first node point clockwise from Hash(key).
  uint32_t PrimaryNode(std::string_view key) const;

  // First `r` DISTINCT nodes clockwise from the key's point, primary first
  // (replica set for striped hot chunks). r is clamped to num_nodes().
  std::vector<uint32_t> ReplicaNodes(std::string_view key, size_t r) const;

  // Add a node with the next unused id and return that id.
  uint32_t AddNode();
  // Remove node `id`'s virtual points; other ids are untouched.
  void RemoveNode(uint32_t id);

  // Seeded, platform-stable key hash (exposed for tests and for the
  // fabric's independent front-end routing hash).
  static uint64_t HashKey(std::string_view key, uint64_t seed);

 private:
  void InsertNodePoints(uint32_t id);

  Options opts_;
  size_t live_nodes_ = 0;
  uint32_t next_id_ = 0;
  std::map<uint64_t, uint32_t> ring_;  // point -> node id, sorted circle
};

}  // namespace cachegen
