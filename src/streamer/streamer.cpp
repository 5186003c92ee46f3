#include "streamer/streamer.h"

#include <algorithm>
#include <stdexcept>

#include "net/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace {
// Default medium level for the first chunk when no throughput prior exists.
constexpr int kDefaultFirstLevel = 1;
// An enhancement transfer is split into segments so the streamer can re-check
// the deadline against the measured throughput mid-stream and abort the
// remainder when the link collapses (the chunk stays usable at base quality).
constexpr int kEnhancementSegments = 4;
}

KVStreamer::KVStreamer(const CostModel& cost, const ModelConfig& model,
                       double slo_s, size_t num_levels)
    : cost_(cost), model_(model), adapter_(cost_, model_, slo_s, num_levels) {}

StreamResult KVStreamer::Stream(const ContextPlan& plan, Link& link,
                                double gpu_share,
                                std::optional<double> throughput_hint_gbps,
                                StreamMode mode, size_t kv_chunk_limit,
                                const StreamHooks* hooks) const {
  StreamResult result;
  const double t0 = link.now();
  double measured_bytes_per_s =
      throughput_hint_gbps ? *throughput_hint_gbps * 1e9 / 8.0 : 0.0;
  const bool progressive = mode == StreamMode::kProgressive && plan.HasLayered();
  const uint64_t track = obs::ScopedRequestId::Current();

  // The GPU lane (§6): every step but an aborted enhancement posts one GPU
  // stage (a base chunk's decode or prefill, an applied enhancement's
  // decode), ready when its transfer ends, and the whole lane is resolved
  // once at end of stream, so chunk transfers overlap the GPU tail. With
  // hooks the cluster arbiter drains it at the share in effect while each
  // stage runs, so stages are priced at share 1 here; without, they are
  // priced at the fixed `gpu_share`.
  std::vector<double> gpu_ready_s;
  std::vector<double> gpu_work_s;
  gpu_ready_s.reserve(plan.chunks.size());
  gpu_work_s.reserve(plan.chunks.size());
  const double pricing_share = hooks ? 1.0 : gpu_share;
  const double decode_overhead_s = cost_.params().decode_call_overhead_s;
  // `const_s` of the stage's seconds is per-call overhead, which a shared
  // lane drains at rate 1 whatever the share.
  const auto post_gpu = [&](double ready_s, double seconds, double const_s) {
    gpu_ready_s.push_back(ready_s);
    gpu_work_s.push_back(seconds);
    if (hooks) hooks->post_gpu(ready_s, const_s, seconds - const_s);
  };

  double quality_tokens = 0.0;
  double kv_tokens = 0.0;  // tokens delivered as KV bitstreams (not text)

  // ---- base pass: every chunk becomes usable -----------------------------
  // In progressive mode the decisions and timeline are identical to
  // kAdaptive; the picked KV configs are additionally marked layered so the
  // enhancement pass knows what it can upgrade.
  for (size_t i = 0; i < plan.chunks.size(); ++i) {
    const ChunkPlan& chunk = plan.chunks[i];
    StreamConfig config{false, kDefaultFirstLevel, progressive};
    if (i >= kv_chunk_limit) {
      // Either a full miss, or the uncovered tail past a cached prefix:
      // these tokens exist nowhere as bitstreams, so text + GPU prefill is
      // the only configuration.
      config = StreamConfig{true, kDefaultFirstLevel};
    } else if (measured_bytes_per_s > 0.0) {
      const AdaptDecision d = adapter_.Choose(plan, i, measured_bytes_per_s,
                                              link.now() - t0, gpu_share);
      config = d.config;
      config.layered = progressive && !config.text;
    }

    StreamStep step;
    step.chunk_index = i;
    step.config = config;

    const size_t tokens = chunk.range.size();
    double gpu_seconds = 0.0;
    double tx_bytes = 0.0;
    if (config.text) {
      tx_bytes = plan.text_bytes_per_token * static_cast<double>(tokens);
      gpu_seconds = cost_.PrefillSeconds(model_, tokens, pricing_share);
    } else {
      tx_bytes = chunk.bytes_per_level.at(static_cast<size_t>(config.level_id));
      // Decode cost scales with the decoded fp16 bytes of this chunk.
      const double decoded_bytes =
          model_.RawKVBytes(tokens);
      gpu_seconds = cost_.DecodeSeconds(decoded_bytes, pricing_share);
    }

    const TransferRecord rec = link.Send(tx_bytes);
    step.tx_start_s = rec.start_s;
    step.tx_end_s = rec.end_s;
    step.bytes = tx_bytes;
    post_gpu(rec.end_s, gpu_seconds, config.text ? 0.0 : decode_overhead_s);

    // Per-chunk lifecycle on the serving thread's request track: the
    // transfer here, the GPU stage (prefill for text chunks, bitstream
    // decode for KV chunks) once the lane is resolved.
    CG_TRACE_VSPAN("streamer", config.text ? "chunk_tx_text" : "chunk_tx",
                   track, rec.start_s, rec.end_s, "bytes", tx_bytes);
    CG_METRIC_COUNT(config.text ? "streamer.chunks_text"
                                : "streamer.chunks_kv",
                    1);
    CG_METRIC_HIST("streamer.chunk_bytes", static_cast<uint64_t>(tx_bytes));

    measured_bytes_per_s = rec.Seconds() > 0.0 ? tx_bytes / rec.Seconds()
                                               : measured_bytes_per_s;
    result.bytes_sent += tx_bytes;

    const double chunk_quality =
        config.text ? 1.0
                    : plan.quality_per_level.at(static_cast<size_t>(config.level_id));
    quality_tokens += chunk_quality * static_cast<double>(tokens);
    if (!config.text) kv_tokens += static_cast<double>(tokens);

    result.steps.push_back(step);
  }

  const double total_tokens = static_cast<double>(plan.total_tokens);
  result.base_quality =
      plan.total_tokens ? quality_tokens / total_tokens : 1.0;

  // ---- enhancement pass: upgrade in quality-gain-per-byte order ----------
  double enhanced_tokens = 0.0;
  if (progressive && !result.steps.empty() && measured_bytes_per_s > 0.0) {
    std::vector<Adapter::EnhancementOption> cands;
    cands.reserve(plan.chunks.size());
    for (size_t i = 0; i < plan.chunks.size(); ++i) {
      const StreamConfig& cfg = result.steps[i].config;
      if (cfg.text || !cfg.layered) continue;
      const size_t lv = static_cast<size_t>(cfg.level_id);
      const double bytes = plan.EnhancementBytes(i, cfg.level_id);
      const double gain = (plan.quality_enhanced_per_level.at(lv) -
                           plan.quality_per_level.at(lv)) *
                          static_cast<double>(plan.chunks[i].range.size());
      if (bytes <= 0.0 || gain <= 0.0) continue;
      cands.push_back({i, bytes, gain});
    }

    while (!cands.empty()) {
      const auto pick = adapter_.ChooseEnhancement(cands, measured_bytes_per_s,
                                                   link.now() - t0);
      if (!pick) break;
      const Adapter::EnhancementOption opt = cands[*pick];
      cands.erase(cands.begin() + static_cast<ptrdiff_t>(*pick));

      StreamStep step;
      step.chunk_index = opt.chunk_index;
      step.config = result.steps[opt.chunk_index].config;
      step.enhancement = true;
      step.tx_start_s = link.now();
      step.tx_end_s = step.tx_start_s;
      const double seg_bytes = opt.bytes / kEnhancementSegments;
      double sent = 0.0;
      for (int s = 0; s < kEnhancementSegments; ++s) {
        // Re-check the deadline against the measured throughput before every
        // segment: when the link collapses, the remainder is abandoned and
        // the chunk simply stays at base quality.
        const double left_with_seg = opt.bytes - sent;
        if (left_with_seg / measured_bytes_per_s >
            adapter_.slo_s() - (link.now() - t0)) {
          step.aborted = true;
          break;
        }
        const TransferRecord rec = link.Send(seg_bytes);
        step.tx_end_s = rec.end_s;
        sent += seg_bytes;
        measured_bytes_per_s = rec.Seconds() > 0.0 ? seg_bytes / rec.Seconds()
                                                   : measured_bytes_per_s;
      }
      // A collapse inside the very last segment can still blow the deadline
      // after every projection said it fit; a refinement that lands outside
      // the SLO window is discarded rather than credited.
      if (!step.aborted && step.tx_end_s - t0 > adapter_.slo_s()) {
        step.aborted = true;
      }
      step.bytes = sent;
      result.bytes_sent += sent;

      CG_TRACE_VSPAN("streamer", "enh_tx", track, step.tx_start_s,
                     step.tx_end_s, "bytes", sent);
      if (step.aborted) {
        ++result.enhancements_aborted;
        CG_TRACE_VINSTANT("streamer", "enh_abort", track, step.tx_end_s);
        CG_METRIC_COUNT("streamer.enhancements_aborted", 1);
      } else {
        const size_t tokens = plan.chunks[opt.chunk_index].range.size();
        post_gpu(step.tx_end_s,
                 cost_.DecodeSeconds(model_.RawKVBytes(tokens), pricing_share),
                 decode_overhead_s);
        quality_tokens += opt.gain_tokens;
        enhanced_tokens += static_cast<double>(tokens);
        ++result.enhancements_sent;
        CG_METRIC_COUNT("streamer.enhancements_sent", 1);
      }
      result.steps.push_back(step);
    }
  }

  // ---- GPU lane resolution: back-fill every posted stage -----------------
  if (!gpu_work_s.empty()) {
    const std::vector<double> done =
        hooks ? hooks->drain_gpu()
              : PipelineTimeline(gpu_ready_s, gpu_work_s, t0);
    double prev_done = t0;
    size_t i = 0;
    for (StreamStep& step : result.steps) {
      if (step.aborted) {
        // Nothing applied, so no stage was posted; the link was still held
        // through the wasted segments.
        step.gpu_done_s = step.tx_end_s;
        result.stream_finish_s =
            std::max(result.stream_finish_s, step.tx_end_s - t0);
        continue;
      }
      if (i == done.size()) break;
      step.gpu_done_s = done[i];
      // The GPU occupancy span: from when the stage reached the lane head
      // (its chunk arrived and the previous stage finished) to its
      // completion; on a shared lane possibly longer than its share-1
      // seconds, when peers held the GPU part-way.
      CG_TRACE_VSPAN("streamer",
                     step.enhancement ? "enh_gpu_decode"
                     : step.config.text ? "chunk_gpu_prefill"
                                        : "chunk_gpu_decode",
                     track, std::max(gpu_ready_s[i], prev_done), done[i]);
      prev_done = done[i];
      // The base pass makes every chunk usable; its last stage is the
      // load-finish instant. Enhancements only extend the stream tail.
      if (!step.enhancement) result.load_finish_s = done[i] - t0;
      result.stream_finish_s = std::max(result.stream_finish_s, done[i] - t0);
      ++i;
    }
  }
  result.ttft_s = result.load_finish_s + cost_.PromptPassSeconds();
  result.slo_violated = result.load_finish_s > adapter_.slo_s();

  result.quality = plan.total_tokens ? quality_tokens / total_tokens : 1.0;
  if (plan.total_tokens && progressive) {
    result.enhanced_token_fraction = enhanced_tokens / total_tokens;
    result.base_token_fraction = (kv_tokens - enhanced_tokens) / total_tokens;
  }
  return result;
}

}  // namespace cachegen
