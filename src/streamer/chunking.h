// Context chunking (§5.3): a long context is split into chunks of
// consecutive tokens (default 1.5K — long enough to batch GPU prefill work
// and fill the congestion window, short enough to react to bandwidth shifts
// within one chunk). Each chunk is encoded independently at every encoding
// level, so the streamer can pick a different configuration per chunk.
#pragma once

#include <cstddef>
#include <vector>

namespace cachegen {

inline constexpr size_t kDefaultChunkTokens = 1500;

struct ChunkRange {
  size_t begin = 0;  // token index, inclusive
  size_t end = 0;    // token index, exclusive

  size_t size() const { return end - begin; }
};

std::vector<ChunkRange> SplitIntoChunks(size_t num_tokens,
                                        size_t chunk_tokens = kDefaultChunkTokens);

// One chunk's streaming costs: the size of its bitstream at every level of
// the ladder.
struct ChunkPlan {
  ChunkRange range;
  std::vector<double> bytes_per_level;    // indexed by EncodingLevel::id
  // Layered (§9) extension: enhancement-layer bytes when this chunk's base
  // shipped at each level. Empty when the context carries no layered streams.
  std::vector<double> enh_bytes_per_level;
};

// Everything the streamer needs to know about one context: chunk table,
// per-level quality factors, and the cost of the text fallback. Stored
// contexts are planned from the offline codec calibration
// (Engine::PlanFromCalibration).
struct ContextPlan {
  std::vector<ChunkPlan> chunks;
  std::vector<double> quality_per_level;  // distortion quality factor per level
  // Quality factor after the enhancement layer is applied on top of each
  // base level; empty when the context carries no layered streams.
  std::vector<double> quality_enhanced_per_level;
  double text_bytes_per_token = 4.0;      // ~1 token = 4 UTF-8 bytes
  size_t total_tokens = 0;

  double BytesAtLevel(size_t first_chunk, int level) const;
  size_t TokensFrom(size_t first_chunk) const;

  // True when every chunk carries enhancement sizes, i.e. the progressive
  // two-pass timeline has something to schedule.
  bool HasLayered() const;
  // Enhancement bytes for one chunk's base level; 0 when unavailable.
  double EnhancementBytes(size_t chunk, int level) const;
};

}  // namespace cachegen
