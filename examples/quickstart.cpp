// Quickstart: the 60-second tour of the CacheGen public API.
//
// 1. Create an Engine for a model (builds the offline codec profile).
// 2. store_kv: prefill a long context once and persist its encoded KV cache.
// 3. Stream the KV cache over a simulated 3 Gbps link with SLO adaptation.
// 4. Compare the resulting TTFT against the text and quantization baselines.
#include <cstdio>

#include "net/link.h"
#include "serving/engine.h"
#include "streamer/streamer.h"

using namespace cachegen;

int main() {
  Engine engine;  // defaults to the mistral-7b preset

  // A 9.6K-token context (e.g. a long chat history), identified by a seed.
  ContextSpec ctx{.seed = 1234, .num_tokens = 9600};

  std::printf("== CacheGen quickstart (model: %s) ==\n",
              engine.model().name.c_str());
  std::printf("context: %zu tokens, raw fp16 KV cache = %.1f MB\n",
              ctx.num_tokens, engine.model().RawKVBytes(ctx.num_tokens) / 1e6);

  // Offline: encode every chunk at every level and store the bitstreams.
  engine.StoreKV("chat-history-1234", ctx);
  // The streaming plan (per-chunk sizes and quality at every level) comes
  // from the engine's codec calibration.
  const ContextPlan plan = engine.PlanFromCalibration(ctx.num_tokens);
  std::printf("stored %zu chunks; default-level size = %.1f MB (%.1fx vs 8-bit)\n",
              plan.chunks.size(), plan.BytesAtLevel(0, 1) / 1e6,
              engine.model().RawKVBytes(ctx.num_tokens) / 2.0 /
                  plan.BytesAtLevel(0, 1));

  // Online: a query arrives; stream the KV cache within a 1-second SLO.
  Link link(BandwidthTrace::Constant(3.0));
  KVStreamer streamer(engine.cost(), engine.model(), /*slo_s=*/1.0,
                      DefaultEncodingLevels().size());
  const StreamResult result = streamer.Stream(plan, link);
  std::printf("CacheGen: TTFT = %.2f s, quality factor = %.3f, SLO %s\n",
              result.ttft_s, result.quality,
              result.slo_violated ? "VIOLATED" : "met");

  // Baselines at the same bandwidth.
  TTFTModel ttft = engine.MakeTTFTModel();
  std::printf("text baseline:   TTFT = %.2f s\n",
              ttft.Text(ctx.num_tokens, 3.0).Total());
  std::printf("8-bit quant:     TTFT = %.2f s\n",
              ttft.Quant(8, ctx.num_tokens, 3.0).Total());

  // The loaded cache is handed to the LLM for generation.
  const GenerateResult answer = engine.GenerateWithKV(ctx, result.quality);
  std::printf("generated: \"%s\" (%s)\n", answer.text.c_str(),
              answer.correct ? "correct" : "wrong");
  return 0;
}
