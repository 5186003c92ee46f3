#include "streamer/adaptation.h"

#include <limits>
#include <stdexcept>

namespace cachegen {

Adapter::Adapter(const CostModel& cost, const ModelConfig& model, double slo_s,
                 size_t num_levels)
    : cost_(cost), model_(model), slo_s_(slo_s), num_levels_(num_levels) {
  if (slo_s <= 0.0) throw std::invalid_argument("Adapter: SLO must be positive");
  if (num_levels == 0) throw std::invalid_argument("Adapter: empty level ladder");
}

double Adapter::RecomputeSeconds(const ContextPlan& plan, size_t first_chunk,
                                 double throughput_bytes_per_s,
                                 double gpu_share) const {
  // Text fallback: ship the (tiny) text of the remaining chunks and prefill
  // them on the GPU.
  const size_t tokens = plan.TokensFrom(first_chunk);
  const double text_bytes = plan.text_bytes_per_token * static_cast<double>(tokens);
  return text_bytes / throughput_bytes_per_s +
         cost_.PrefillSeconds(model_, tokens, gpu_share);
}

AdaptDecision Adapter::Choose(const ContextPlan& plan, size_t next_chunk,
                              double throughput_bytes_per_s, double elapsed_s,
                              double gpu_share) const {
  if (throughput_bytes_per_s <= 0.0) {
    throw std::invalid_argument("Adapter::Choose: non-positive throughput");
  }
  const double remaining_s = slo_s_ - elapsed_s;

  // Expected delays for every configuration, in quality order: text first
  // (lossless), then levels fine -> coarse.
  const double text_s =
      RecomputeSeconds(plan, next_chunk, throughput_bytes_per_s, gpu_share);
  std::vector<std::pair<StreamConfig, double>> options;
  options.reserve(num_levels_ + 1);
  options.push_back({{true, 0}, text_s});
  for (size_t level = 0; level < num_levels_; ++level) {
    const double bytes = plan.BytesAtLevel(next_chunk, static_cast<int>(level));
    options.push_back(
        {{false, static_cast<int>(level)}, bytes / throughput_bytes_per_s});
  }

  // Algorithm 1: least compression loss whose projected completion still
  // meets the SLO.
  for (const auto& [config, expected] : options) {
    if (expected <= remaining_s) {
      return {config, expected, true};
    }
  }
  // Nothing fits: minimize the damage (fastest configuration).
  AdaptDecision best{options.front().first, options.front().second, false};
  for (const auto& [config, expected] : options) {
    if (expected < best.expected_remaining_s) best = {config, expected, false};
  }
  return best;
}

std::optional<size_t> Adapter::ChooseEnhancement(
    std::span<const EnhancementOption> options, double throughput_bytes_per_s,
    double elapsed_s) const {
  if (throughput_bytes_per_s <= 0.0) {
    throw std::invalid_argument("Adapter::ChooseEnhancement: non-positive throughput");
  }
  const double remaining_s = slo_s_ - elapsed_s;
  std::optional<size_t> best;
  double best_gain_per_byte = 0.0;
  for (size_t i = 0; i < options.size(); ++i) {
    const EnhancementOption& o = options[i];
    if (o.bytes <= 0.0 || o.gain_tokens <= 0.0) continue;
    if (o.bytes / throughput_bytes_per_s > remaining_s) continue;
    const double gain_per_byte = o.gain_tokens / o.bytes;
    if (!best || gain_per_byte > best_gain_per_byte ||
        (gain_per_byte == best_gain_per_byte &&
         o.chunk_index < options[*best].chunk_index)) {
      best = i;
      best_gain_per_byte = gain_per_byte;
    }
  }
  return best;
}

}  // namespace cachegen
