// Codec hot-path throughput: encode/decode MB/s and symbols/s for the
// overhauled fast path (batch symbol kernels, EncodeRun, interleaved lane
// decoding) against the retained pre-overhaul scalar coder
// (codec/reference_codec.h), swept over encoding levels (per-layer-group bin
// ladders), chunk sizes, and thread counts.
//
// Emits machine-readable JSON (default BENCH_codec_throughput.json) so the
// perf trajectory is tracked across PRs.
//
// Also times the §9 enhancement-size estimate of one chunk at every level,
// both ways: encode then EstimateEnhancementBytes(chunk, encoded), which
// decodes the bits just written, against encode with the encoder's own
// reconstruction then EstimateEnhancementBytes(chunk, recon).
//
// Flags:
//   --quick       small sweep + loud assertions (CI regression gate):
//                 fast single-thread decode must stay >= 1.5x the reference
//                 coder, the quantize kernel >= 20 Melem/s, and the
//                 enhancement estimate from the encoder's reconstruction
//                 >= 1.3x the decode-based form with equal estimates.
//   --out PATH    JSON output path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codec/encoding_level.h"
#include "codec/kv_decoder.h"
#include "codec/kv_encoder.h"
#include "codec/layered_encoder.h"
#include "codec/profile.h"
#include "codec/reference_codec.h"
#include "common/thread_pool.h"
#include "llm/synthetic_model.h"
#include "quant/symbol_kernels.h"
#include "streamer/chunking.h"

namespace cachegen {
namespace {

using Clock = std::chrono::steady_clock;

double BestOf(int reps, const std::function<void()>& fn) {
  double best = 1e18;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

struct Result {
  std::string level;
  size_t tokens = 0;
  unsigned threads = 0;
  double symbols = 0;
  double payload_bytes = 0;
  double enc_msym_s = 0, dec_msym_s = 0;
  double enc_mb_s = 0, dec_mb_s = 0;         // fp32 tensor bytes / s
  double ref_enc_msym_s = 0, ref_dec_msym_s = 0;  // 0 if not measured
  double dec_speedup = 0;                         // fast vs reference, 1-thread
};

// Enhancement-size estimate of one chunk at one level: the decode-based form
// against the encoder-reconstruction form.
struct WritePathResult {
  std::string level;
  size_t tokens = 0;
  double decode_ms = 0, recon_ms = 0;  // best of reps
  double decode_estimate = 0, recon_estimate = 0;
};

WritePathResult TimeWritePath(const std::shared_ptr<const KVProfile>& profile,
                              const EncodingLevel& level, const KVCache& chunk,
                              int reps) {
  const auto tables = std::make_shared<TableSet>(*profile, level, CodecOptions{});
  const KVEncoder enc(profile, tables);
  const LayeredEncoder layered(profile, tables, level);
  WritePathResult r;
  r.level = level.name;
  r.tokens = chunk.num_tokens();
  r.decode_ms = r.recon_ms = 1e18;
  // One reconstruction buffer across reps, as store_kv keeps one across
  // levels and chunks; DecodeChunk allocates its output on every call.
  KVCache recon;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  // Alternate the two forms so clock drift hits both alike.
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    const EncodedChunk e = enc.EncodeChunk(chunk);
    r.decode_estimate = layered.EstimateEnhancementBytes(chunk, e);
    r.decode_ms = std::min(r.decode_ms, ms_since(t0));
    t0 = Clock::now();
    (void)enc.EncodeChunk(chunk, 0, 0, 0, &recon);
    r.recon_estimate = layered.EstimateEnhancementBytes(chunk, recon);
    r.recon_ms = std::min(r.recon_ms, ms_since(t0));
  }
  return r;
}

double QuantizeKernelMelemS() {
  const size_t n = 1 << 14;
  std::vector<float> x(n);
  std::vector<double> offset(n, 0.1), sigma(n, 0.37);
  std::vector<uint32_t> syms(n);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<float>(i % 97) * 0.013f;
  const int inner = 64;
  const double secs = BestOf(5, [&] {
    for (int it = 0; it < inner; ++it) {
      QuantizeRow(x.data(), offset.data(), sigma.data(), 0.8,
                  KVProfile::kDeltaMaxSym, n, syms.data());
    }
  });
  return static_cast<double>(n) * inner / secs / 1e6;
}

}  // namespace
}  // namespace cachegen

int main(int argc, char** argv) {
  using namespace cachegen;

  bool quick = false;
  std::string out_path = "BENCH_codec_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  bench::PrintHeader("Codec hot-path throughput (fast path vs pre-overhaul scalar coder)",
                     quick ? "quick sweep (CI gate)" : "full sweep");

  const ModelConfig cfg = ModelConfig::Preset("mistral-7b");
  const SyntheticModel model(cfg);
  std::vector<KVCache> calib;
  std::vector<const KVCache*> ptrs;
  for (uint64_t i = 0; i < 8; ++i) calib.push_back(model.Prefill({100 + i, 256}));
  for (const auto& c : calib) ptrs.push_back(&c);
  const auto profile = std::make_shared<KVProfile>(KVProfile::Build(cfg, ptrs));

  const unsigned hw = ThreadPool::Instance().size();
  std::vector<size_t> token_sweep = quick ? std::vector<size_t>{256}
                                          : std::vector<size_t>{64, 256, 1024};
  std::vector<unsigned> thread_sweep{1};
  if (!quick) {
    if (hw >= 2) thread_sweep.push_back(2);
    if (hw > 2) thread_sweep.push_back(hw);
  }
  std::vector<EncodingLevel> levels;
  if (quick) {
    levels.push_back(DefaultLevel());
  } else {
    for (const auto& l : DefaultEncodingLevels()) levels.push_back(l);
  }
  const int reps = quick ? 3 : 5;

  std::vector<Result> results;
  for (const auto& level : levels) {
    const auto tables =
        std::make_shared<TableSet>(*profile, level, CodecOptions{});
    const KVEncoder enc(profile, tables);
    const KVDecoder dec(profile, tables);
    for (size_t tokens : token_sweep) {
      const KVCache chunk = model.Prefill({999, tokens});
      const double symbols = static_cast<double>(chunk.num_layers()) *
                             static_cast<double>(tokens) *
                             static_cast<double>(chunk.num_channels()) * 2.0;
      const double fp32_bytes = symbols * 4.0;
      EncodedChunk encoded = enc.EncodeChunk(chunk, 0, 0, 1);  // warm-up
      for (unsigned threads : thread_sweep) {
        Result r;
        r.level = level.name;
        r.tokens = tokens;
        r.threads = threads;
        r.symbols = symbols;
        r.payload_bytes = static_cast<double>(encoded.PayloadBytes());

        const double enc_s =
            BestOf(reps, [&] { (void)enc.EncodeChunk(chunk, 0, 0, threads); });
        const double dec_s =
            BestOf(reps, [&] { (void)dec.DecodeChunk(encoded, threads); });
        r.enc_msym_s = symbols / enc_s / 1e6;
        r.dec_msym_s = symbols / dec_s / 1e6;
        r.enc_mb_s = fp32_bytes / enc_s / 1e6;
        r.dec_mb_s = fp32_bytes / dec_s / 1e6;

        if (threads == 1) {
          // Pre-overhaul coder: the seed's per-element scalar loops, kept
          // verbatim in codec/reference_codec.h.
          const double ref_enc_s =
              BestOf(reps, [&] { (void)reference::EncodeChunk(*tables, chunk); });
          const double ref_dec_s =
              BestOf(reps, [&] { (void)reference::DecodeChunk(*tables, encoded); });
          r.ref_enc_msym_s = symbols / ref_enc_s / 1e6;
          r.ref_dec_msym_s = symbols / ref_dec_s / 1e6;
          r.dec_speedup = ref_dec_s / dec_s;
        }
        results.push_back(r);
      }
    }
  }

  const double kernel_melem_s = QuantizeKernelMelemS();

  // Write path: one store_kv-sized chunk priced at every level.
  std::vector<WritePathResult> write_path;
  double wp_decode_ms = 0, wp_recon_ms = 0;
  {
    const KVCache chunk = model.Prefill({4242, kDefaultChunkTokens});
    for (const auto& level : DefaultEncodingLevels()) {
      write_path.push_back(TimeWritePath(profile, level, chunk, reps));
      wp_decode_ms += write_path.back().decode_ms;
      wp_recon_ms += write_path.back().recon_ms;
    }
  }
  const double wp_speedup = wp_decode_ms / wp_recon_ms;

  // ---- human-readable summary -------------------------------------------
  TablePrinter table({"level", "tokens", "thr", "enc Msym/s", "dec Msym/s",
                      "enc MB/s", "dec MB/s", "ref dec", "speedup"});
  for (const auto& r : results) {
    table.AddRow({r.level, std::to_string(r.tokens), std::to_string(r.threads),
                  TablePrinter::Fmt(r.enc_msym_s, 1),
                  TablePrinter::Fmt(r.dec_msym_s, 1),
                  TablePrinter::Fmt(r.enc_mb_s, 0), TablePrinter::Fmt(r.dec_mb_s, 0),
                  r.threads == 1 ? TablePrinter::Fmt(r.ref_dec_msym_s, 1) : "-",
                  r.threads == 1 ? TablePrinter::Fmt(r.dec_speedup, 2) + "x" : "-"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf("quantize kernel: %.1f Melem/s (auto-vectorized batch mapping)\n",
              kernel_melem_s);
  std::printf("pool size: %u executors\n", hw);

  TablePrinter wp_table({"write path", "tokens", "decode-based ms",
                         "encoder recon ms", "speedup", "estimate B"});
  for (const auto& r : write_path) {
    wp_table.AddRow({r.level, std::to_string(r.tokens),
                     TablePrinter::Fmt(r.decode_ms, 2),
                     TablePrinter::Fmt(r.recon_ms, 2),
                     TablePrinter::Fmt(r.decode_ms / r.recon_ms, 2) + "x",
                     TablePrinter::Fmt(r.recon_estimate, 0)});
  }
  std::printf("%s", wp_table.Render().c_str());
  std::printf("write-path pricing, every level: %.2f ms -> %.2f ms (%.2fx)\n",
              wp_decode_ms, wp_recon_ms, wp_speedup);

  // ---- machine-readable JSON --------------------------------------------
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f) {
    std::fprintf(f, "{\n  \"bench\": \"codec_throughput\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"pool_executors\": %u,\n", hw);
    std::fprintf(f, "  \"quantize_kernel_melem_s\": %.2f,\n", kernel_melem_s);
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(
          f,
          "    {\"level\": \"%s\", \"tokens\": %zu, \"threads\": %u, "
          "\"symbols\": %.0f, \"payload_bytes\": %.0f, "
          "\"encode_msym_s\": %.2f, \"decode_msym_s\": %.2f, "
          "\"encode_mb_s\": %.2f, \"decode_mb_s\": %.2f, "
          "\"ref_encode_msym_s\": %.2f, \"ref_decode_msym_s\": %.2f, "
          "\"decode_speedup\": %.3f}%s\n",
          r.level.c_str(), r.tokens, r.threads, r.symbols, r.payload_bytes,
          r.enc_msym_s, r.dec_msym_s, r.enc_mb_s, r.dec_mb_s, r.ref_enc_msym_s,
          r.ref_dec_msym_s, r.dec_speedup, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"write_path\": {\"decode_ms\": %.3f, \"recon_ms\": %.3f, "
                 "\"speedup\": %.3f, \"levels\": [\n",
                 wp_decode_ms, wp_recon_ms, wp_speedup);
    for (size_t i = 0; i < write_path.size(); ++i) {
      const WritePathResult& r = write_path[i];
      std::fprintf(f,
                   "    {\"level\": \"%s\", \"tokens\": %zu, "
                   "\"decode_ms\": %.3f, \"recon_ms\": %.3f, "
                   "\"decode_estimate_bytes\": %.17g, "
                   "\"recon_estimate_bytes\": %.17g}%s\n",
                   r.level.c_str(), r.tokens, r.decode_ms, r.recon_ms,
                   r.decode_estimate, r.recon_estimate,
                   i + 1 < write_path.size() ? "," : "");
    }
    std::fprintf(f, "  ]}\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n", out_path.c_str());
  }

  // ---- regression gate (quick mode) -------------------------------------
  if (quick) {
    // Throughput assertions, deliberately far below steady-state
    // measurements (~3x decode speedup, >200 Melem/s kernel on one 2.7 GHz
    // core) so only genuine regressions — not noisy shared CI runners —
    // fail the gate. The ratio is fast-vs-reference in one process, so most
    // machine noise cancels; 1.5x still catches any real hot-path backslide
    // (losing the lane interleave alone drops the ratio below 1.3).
    bool ok = true;
    for (const auto& r : results) {
      if (r.threads == 1 && r.dec_speedup < 1.5) {
        std::fprintf(stderr,
                     "FAIL: decode speedup %.2fx < 1.5x (level %s, %zu tokens)\n",
                     r.dec_speedup, r.level.c_str(), r.tokens);
        ok = false;
      }
    }
    if (kernel_melem_s < 20.0) {
      std::fprintf(stderr, "FAIL: quantize kernel %.1f Melem/s < 20\n",
                   kernel_melem_s);
      ok = false;
    }
    // Enhancement estimate: skipping the decode of just-written bits must
    // keep the estimate exactly and save a clear margin (measured ~1.7x on
    // one thread and ~2.1x on four, 4-vCPU Xeon VM); the ratio is within one
    // process, so runner speed cancels.
    for (const auto& r : write_path) {
      if (r.decode_estimate != r.recon_estimate) {
        std::fprintf(stderr,
                     "FAIL: write-path estimate differs at level %s: "
                     "%.17g (decode) vs %.17g (encoder recon)\n",
                     r.level.c_str(), r.decode_estimate, r.recon_estimate);
        ok = false;
      }
    }
    if (wp_speedup < 1.3) {
      std::fprintf(stderr, "FAIL: write-path pricing speedup %.2fx < 1.3x\n",
                   wp_speedup);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("quick gate: OK\n");
  }
  return 0;
}
