#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace cachegen {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double StdDev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  const double idx = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::vector<double> EmpiricalCdf(std::vector<double> xs, std::span<const double> at) {
  std::sort(xs.begin(), xs.end());
  std::vector<double> out;
  out.reserve(at.size());
  for (double x : at) {
    const auto it = std::upper_bound(xs.begin(), xs.end(), x);
    out.push_back(xs.empty() ? 0.0
                             : static_cast<double>(it - xs.begin()) /
                                   static_cast<double>(xs.size()));
  }
  return out;
}

double EntropyBits(std::span<const int32_t> symbols, bool miller_madow) {
  if (symbols.empty()) return 0.0;
  std::unordered_map<int32_t, uint64_t> counts;
  counts.reserve(256);
  for (int32_t s : symbols) ++counts[s];
  const double n = static_cast<double>(symbols.size());
  double h = 0.0;
  for (const auto& [sym, c] : counts) {
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  if (miller_madow) {
    h += (static_cast<double>(counts.size()) - 1.0) / (2.0 * n * std::log(2.0));
  }
  return h;
}

double GroupedEntropyBits(std::span<const int32_t> symbols,
                          std::span<const uint32_t> group_of_symbol,
                          uint32_t num_groups, bool miller_madow) {
  if (symbols.empty() || symbols.size() != group_of_symbol.size()) return 0.0;
  std::vector<std::unordered_map<int32_t, uint64_t>> counts(num_groups);
  std::vector<uint64_t> totals(num_groups, 0);
  for (size_t i = 0; i < symbols.size(); ++i) {
    const uint32_t g = group_of_symbol[i];
    if (g >= num_groups) continue;
    ++counts[g][symbols[i]];
    ++totals[g];
  }
  double weighted = 0.0;
  uint64_t grand_total = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    if (totals[g] == 0) continue;
    double h = 0.0;
    const double n = static_cast<double>(totals[g]);
    for (const auto& [sym, c] : counts[g]) {
      const double p = static_cast<double>(c) / n;
      h -= p * std::log2(p);
    }
    if (miller_madow) {
      h += (static_cast<double>(counts[g].size()) - 1.0) / (2.0 * n * std::log(2.0));
    }
    weighted += h * n;
    grand_total += totals[g];
  }
  return grand_total ? weighted / static_cast<double>(grand_total) : 0.0;
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

}  // namespace cachegen
