// KVStreamer: drives the chunk-by-chunk delivery of one context's KV cache
// over a (bandwidth-varying) link, adapting the per-chunk streaming
// configuration with the Algorithm-1 Adapter and modelling the two-resource
// timeline: the link transfers chunks sequentially, while the GPU decodes KV
// chunks (or prefills text chunks) in order, overlapped with the next
// chunk's transmission (§6 pipelining).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "llm/cost_model.h"
#include "llm/model_config.h"
#include "net/link.h"
#include "streamer/adaptation.h"
#include "streamer/chunking.h"

namespace cachegen {

struct StreamStep {
  size_t chunk_index = 0;
  StreamConfig config;
  double tx_start_s = 0.0;
  double tx_end_s = 0.0;
  double gpu_done_s = 0.0;   // chunk decoded (KV) or prefilled (text)
  double bytes = 0.0;
  // Progressive delivery: this step shipped an enhancement layer on top of
  // an already-delivered base (aborted = cut off mid-transfer because the
  // measured throughput collapsed, or completed past the SLO window and
  // discarded; either way the chunk stays at base quality).
  bool enhancement = false;
  bool aborted = false;
};

struct StreamResult {
  std::vector<StreamStep> steps;
  double load_finish_s = 0.0;  // last chunk usable, relative to request arrival
  double ttft_s = 0.0;         // load_finish + final prompt pass
  bool slo_violated = false;
  double quality = 1.0;        // token-weighted composed quality factor
  double bytes_sent = 0.0;
  // Progressive delivery accounting. load_finish_s/ttft_s are pinned to the
  // base pass (the base layers alone make every chunk usable); enhancement
  // layers land behind the first tokens but must arrive within the SLO
  // window to lift `quality` above `base_quality`. The token fractions are
  // only filled by a progressive run (0 otherwise).
  double base_quality = 1.0;          // token-weighted quality after the base pass
  // Instant the stream went quiet — last transfer (applied or aborted) and
  // any GPU apply done; >= load_finish_s.
  double stream_finish_s = 0.0;
  double base_token_fraction = 0.0;      // KV tokens left at base-only quality
  double enhanced_token_fraction = 0.0;  // KV tokens upgraded by an enhancement
  size_t enhancements_sent = 0;
  size_t enhancements_aborted = 0;
};

// Per-event GPU accounting: the cluster wires one stream's GPU lane into its
// SharedLink. With hooks, both must be set: each GPU stage (a chunk's decode
// or prefill, an applied enhancement's decode) is posted right after its
// transfer as a lane work item — `const_s` drains at rate 1 (per-call
// overhead), `shared_s` at the share in effect while it drains — and
// `drain_gpu` is the one lane resolution: the stream awaits it (parking
// until the cluster's virtual time has drained the lane) and gets back the
// completion instant of every posted item in post order. The `gpu_share`
// argument then only seeds the adapter's decision heuristics. Without
// hooks, the lane resolves at the fixed `gpu_share` (PipelineTimeline).
// Either way the streamer back-fills per-step gpu_done_s, load_finish and
// the GPU lifecycle spans from the completion instants.
struct StreamHooks {
  std::function<void(double arrival_s, double const_s, double shared_s)> post_gpu;
  std::function<Task<std::vector<double>>()> drain_gpu;
};

// Per-chunk configuration policy for one stream.
enum class StreamMode {
  kAdaptive,     // Algorithm-1 adapter picks text/level per chunk (default)
  // §9 progressive delivery: a base pass (identical decisions and timeline
  // to kAdaptive) makes every chunk usable, then an enhancement pass
  // upgrades chunks in quality-gain-per-byte order until the SLO budget or
  // the link runs out. Falls back to kAdaptive when the plan carries no
  // layered streams.
  kProgressive,
};

class KVStreamer {
 public:
  KVStreamer(const CostModel& cost, const ModelConfig& model, double slo_s,
             size_t num_levels);

  // Stream all chunks of `plan` over `link`. `throughput_hint_gbps` stands
  // in for prior knowledge of the path (§5.3); without it the first chunk
  // goes out at the default medium encoding level.
  //
  // `kv_chunk_limit` is the cache-coverage knob: chunks with index >= the
  // limit are NOT cached and must ship as text + re-prefill, while chunks
  // below it stream under the chosen mode. The default (no limit) leaves
  // every chunk to the mode; a partial prefix hit passes its covered chunk
  // count, and a cache miss passes 0, so every chunk ships as text.
  StreamResult Stream(const ContextPlan& plan, Link& link, double gpu_share = 1.0,
                      std::optional<double> throughput_hint_gbps = std::nullopt,
                      StreamMode mode = StreamMode::kAdaptive,
                      size_t kv_chunk_limit = SIZE_MAX,
                      const StreamHooks* hooks = nullptr) const;

  // The same stream as a resumable operation: it parks at each link
  // operation and at the GPU-lane drain, and Stream() drives it in place.
  // Over a cluster ClientLink the coordinator resumes it as SharedLink's
  // virtual time completes each operation. Every argument must outlive the
  // task.
  Task<StreamResult> StreamOp(const ContextPlan& plan, Link& link,
                              double gpu_share,
                              std::optional<double> throughput_hint_gbps,
                              StreamMode mode, size_t kv_chunk_limit,
                              const StreamHooks* hooks) const;

 private:
  const CostModel& cost_;
  ModelConfig model_;
  Adapter adapter_;
};

}  // namespace cachegen
