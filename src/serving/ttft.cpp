#include "serving/ttft.h"

#include <algorithm>
#include <stdexcept>

#include "net/pipeline.h"

namespace cachegen {

TTFTModel::TTFTModel(const CostModel& cost, const ModelConfig& model,
                     CodecCalibration calibration, size_t chunk_tokens)
    : cost_(cost),
      model_(model),
      calib_(std::move(calibration)),
      chunk_tokens_(chunk_tokens) {
  if (chunk_tokens_ == 0) throw std::invalid_argument("TTFTModel: zero chunk size");
}

TTFTBreakdown TTFTModel::Text(size_t tokens, double bw_gbps, double gpu_share) const {
  TTFTBreakdown b;
  b.bytes = calib_.text_bytes_per_token * static_cast<double>(tokens);
  b.network_s = b.bytes / (bw_gbps * 1e9 / 8.0);
  b.compute_s = cost_.PrefillSeconds(model_, tokens, gpu_share);
  b.prompt_s = cost_.PromptPassSeconds();
  b.quality = 1.0;
  return b;
}

TTFTBreakdown TTFTModel::Quant(int bits, size_t tokens, double bw_gbps,
                               double gpu_share) const {
  TTFTBreakdown b;
  b.bytes = calib_.quant_bytes_per_token.at(bits) * static_cast<double>(tokens);
  b.network_s = b.bytes / (bw_gbps * 1e9 / 8.0);
  b.dequant_s = cost_.DequantSeconds(b.bytes, gpu_share);
  b.prompt_s = cost_.PromptPassSeconds();
  b.quality = calib_.quant_quality.at(bits);
  return b;
}

TTFTBreakdown TTFTModel::CacheGen(size_t tokens, double bw_gbps, double gpu_share,
                                  int level, bool pipelined) const {
  TTFTBreakdown b;
  const double bytes_per_token =
      calib_.bytes_per_token_per_level.at(static_cast<size_t>(level));
  b.bytes = bytes_per_token * static_cast<double>(tokens);
  b.quality = calib_.quality_per_level.at(static_cast<size_t>(level));
  b.prompt_s = cost_.PromptPassSeconds();

  // Chunks go out back to back on one connection; each decode is ready once
  // its chunk has arrived.
  const auto ranges = SplitIntoChunks(tokens, chunk_tokens_);
  std::vector<double> arrived(ranges.size()), dec(ranges.size());
  const double bytes_per_sec = bw_gbps * 1e9 / 8.0;
  double decode_s = 0.0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    b.network_s +=
        bytes_per_token * static_cast<double>(ranges[i].size()) / bytes_per_sec;
    arrived[i] = b.network_s;
    dec[i] = cost_.DecodeSeconds(model_.RawKVBytes(ranges[i].size()), gpu_share);
    decode_s += dec[i];
  }
  const std::vector<double> done = PipelineTimeline(arrived, dec);
  const double exposed_s = done.empty() ? 0.0 : done.back() - b.network_s;
  b.decode_exposed_s =
      cost_.params().decode_setup_s + (pipelined ? exposed_s : decode_s);
  return b;
}

TTFTBreakdown TTFTModel::CacheGenAuto(size_t tokens, double bw_gbps,
                                      double gpu_share, int level) const {
  const TTFTBreakdown kv = CacheGen(tokens, bw_gbps, gpu_share, level);
  const TTFTBreakdown text = Text(tokens, bw_gbps, gpu_share);
  return text.Total() < kv.Total() ? text : kv;
}

}  // namespace cachegen
