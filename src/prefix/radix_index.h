// RadixPrefixIndex: a compressed radix tree (Patricia trie) over token-id
// sequences, answering "what is the longest prefix of this request's token
// sequence that some cached context shares?" in O(match length).
//
// The tree stores one path per inserted sequence with per-node reference
// counts, so erasing one sequence prunes exactly the branches no surviving
// sequence shares.
//
// Off the serving path: PrefixCache finds a request's cached prefix by
// walking its chunk addresses, which commit to every earlier token. Only
// perfbench's `prefix.radix_lookup_ns` probe and this class's own tests use
// it; retire it with that probe. Not internally synchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

namespace cachegen {

class RadixPrefixIndex {
 public:
  RadixPrefixIndex();
  ~RadixPrefixIndex();
  RadixPrefixIndex(const RadixPrefixIndex&) = delete;
  RadixPrefixIndex& operator=(const RadixPrefixIndex&) = delete;

  // Add one sequence. Duplicate sequences stack (each Insert needs its own
  // Erase before the path is pruned).
  void Insert(std::span<const uint32_t> tokens);

  // Remove one previously inserted sequence; returns false (and changes
  // nothing) when no such sequence is present. Branches shared with other
  // sequences survive.
  bool Erase(std::span<const uint32_t> tokens);

  // Length (in tokens) of the longest common prefix between `tokens` and any
  // inserted sequence. May end mid-edge: two sequences diverging inside a
  // compressed label still share the label's matched head.
  size_t LongestPrefixTokens(std::span<const uint32_t> tokens) const;

  size_t sequences() const { return sequences_; }
  // Node count including the root — lets tests assert structural sharing
  // (inserting a shared-prefix family must not grow linearly in total
  // tokens) and pruning (erase returns the tree to its prior shape).
  size_t nodes() const;

 private:
  struct Node;
  struct Edge {
    std::vector<uint32_t> label;  // compressed token run
    std::unique_ptr<Node> child;
  };
  struct Node {
    // Sequences whose path runs through (or ends at) this node; the edge
    // from the parent dies when this hits zero.
    size_t refs = 0;
    // Sequences ending exactly here (a sequence can be a proper prefix of
    // another).
    size_t ends = 0;
    std::map<uint32_t, Edge> kids;  // keyed by the label's first token
  };

  static size_t CountNodes(const Node& n);

  std::unique_ptr<Node> root_;
  size_t sequences_ = 0;
};

}  // namespace cachegen
