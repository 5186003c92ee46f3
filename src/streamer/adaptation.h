// Streaming adaptation logic — Algorithm 1 of the paper (§5.3, §C.1).
//
// Per chunk, the adapter estimates, under the throughput measured for the
// previous chunk, the expected delay of finishing *all remaining chunks*
// with each streaming configuration (text recompute, or KV bitstream at each
// encoding level), then picks the configuration with the least compression
// loss whose expected delay still fits within the SLO's remaining time:
// text (lossless) is preferred when feasible, then finer levels before
// coarser ones. If nothing fits, the fastest configuration is chosen.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "llm/cost_model.h"
#include "llm/model_config.h"
#include "streamer/chunking.h"

namespace cachegen {

struct StreamConfig {
  bool text = false;  // send text and recompute KV on the GPU
  int level_id = 1;   // valid when !text
  // Progressive delivery (§9): the chunk ships as the base layer of a
  // layered encoding at `level_id`; its enhancement layer may follow in the
  // enhancement pass once every chunk's base has landed.
  bool layered = false;

  bool operator==(const StreamConfig&) const = default;
};

struct AdaptDecision {
  StreamConfig config;
  double expected_remaining_s = 0.0;  // projected completion of all remaining work
  bool feasible = false;              // fit within the SLO's remaining time
};

class Adapter {
 public:
  // `num_levels` is the depth of the encoding ladder (ids 0..num_levels-1,
  // finer first). SLO is on the full KV-loading delay (TTFT minus the final
  // prompt pass, footnote 4).
  Adapter(const CostModel& cost, const ModelConfig& model, double slo_s,
          size_t num_levels);

  // Decide the configuration for chunk `next_chunk` of `plan`, given the
  // throughput measured on the previous chunk (bytes/s) and the time already
  // elapsed since the request arrived. `gpu_share` scales recompute cost.
  AdaptDecision Choose(const ContextPlan& plan, size_t next_chunk,
                       double throughput_bytes_per_s, double elapsed_s,
                       double gpu_share = 1.0) const;

  // One enhanceable chunk after the base pass.
  struct EnhancementOption {
    size_t chunk_index = 0;
    double bytes = 0.0;        // enhancement payload still to ship
    double gain_tokens = 0.0;  // (enhanced - base quality) * chunk tokens
  };

  // Enhancement-pass decision: among candidates whose transfer still fits
  // within the SLO's remaining time at the measured throughput, pick the one
  // with the highest quality gain per byte (ties to the earlier chunk).
  // Returns an index into `options`, or nullopt when nothing fits.
  std::optional<size_t> ChooseEnhancement(
      std::span<const EnhancementOption> options, double throughput_bytes_per_s,
      double elapsed_s) const;

  double slo_s() const { return slo_s_; }

 private:
  double RecomputeSeconds(const ContextPlan& plan, size_t first_chunk,
                          double throughput_bytes_per_s, double gpu_share) const;

  const CostModel& cost_;
  ModelConfig model_;
  double slo_s_;
  size_t num_levels_;
};

}  // namespace cachegen
