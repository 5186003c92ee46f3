// RAG document serving: the paper's motivating deployment (§2.2, §8).
//
// A knowledge base of long documents lives on a storage server. Each
// document's KV cache is encoded once (store_kv). When user queries arrive,
// the retrieved document's bitstream is streamed to the inference server and
// decoded — instead of re-prefilling thousands of tokens per query.
//
// The example serves several queries against a small document corpus over a
// 3 Gbps link and reports the per-query TTFT against re-prefilling the text,
// plus the aggregate GPU compute saved.
#include <cstdio>
#include <map>

#include "net/link.h"
#include "serving/engine.h"
#include "streamer/streamer.h"

using namespace cachegen;

int main() {
  Engine engine;  // defaults to the mistral-7b preset
  std::printf("== RAG document serving over CacheGen ==\n");

  // The document corpus: financial reports, case law, a wiki article.
  const std::map<std::string, ContextSpec> corpus = {
      {"earnings-report-q4", {2001, 11000}},
      {"case-law-2023-0417", {2002, 7500}},
      {"wiki-transformers", {2003, 4200}},
  };
  for (const auto& [doc_id, ctx] : corpus) {
    engine.StoreKV(doc_id, ctx);
    std::printf("stored %-20s %5zu tokens, %6.1f MB encoded (all levels)\n",
                doc_id.c_str(), ctx.num_tokens,
                static_cast<double>(engine.store().ContextBytes(doc_id)) *
                    engine.model().size_scale() / 1e6);
  }

  // Queries retrieve documents (RAG retrieval itself is out of scope, §2.2
  // footnote: well-studied elsewhere).
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"What were the top revenue sources last quarter?", "earnings-report-q4"},
      {"Summarize the earnings report.", "earnings-report-q4"},
      {"Which precedent governs liability here?", "case-law-2023-0417"},
      {"How does multi-head attention work?", "wiki-transformers"},
      {"What guidance did management give?", "earnings-report-q4"},
  };

  KVStreamer streamer(engine.cost(), engine.model(), /*slo_s=*/1.5,
                      DefaultEncodingLevels().size());
  TTFTModel ttft = engine.MakeTTFTModel();

  double total_cachegen_s = 0.0, total_text_s = 0.0, saved_gpu_s = 0.0;
  std::printf("\n%-48s %-22s %9s %9s\n", "query", "document", "CacheGen", "re-prefill");
  for (const auto& [question, doc_id] : queries) {
    const ContextSpec ctx = corpus.at(doc_id);
    // The stored document's plan: calibrated per-chunk sizes and quality.
    const ContextPlan plan = engine.PlanFromCalibration(ctx.num_tokens);

    Link link(BandwidthTrace::Constant(3.0));
    const StreamResult r = streamer.Stream(plan, link);
    const double text_s = ttft.Text(ctx.num_tokens, 3.0).Total();
    total_cachegen_s += r.ttft_s;
    total_text_s += text_s;
    saved_gpu_s += engine.cost().PrefillSeconds(engine.model(), ctx.num_tokens);
    std::printf("%-48s %-22s %7.2f s %7.2f s\n", question.c_str(), doc_id.c_str(),
                r.ttft_s, text_s);

    const GenerateResult answer = engine.GenerateWithKV(ctx, r.quality);
    (void)answer;
  }
  std::printf("\nTTFT total: %.2f s with CacheGen vs %.2f s re-prefilling (%.1fx)\n",
              total_cachegen_s, total_text_s, total_text_s / total_cachegen_s);
  std::printf("GPU prefill compute avoided across queries: %.2f s\n", saved_gpu_s);
  return 0;
}
