// Descriptive statistics used across the evaluation harness: moments,
// percentiles, empirical CDFs, and Shannon entropy of discrete symbol
// streams (the quantity Figure 5 of the paper reports per grouping
// strategy).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace cachegen {

double Mean(std::span<const double> xs);
double Variance(std::span<const double> xs);  // population variance
double StdDev(std::span<const double> xs);

// p in [0, 1]; linear interpolation between order statistics.
double Percentile(std::vector<double> xs, double p);

// Empirical CDF evaluated at the given points. Returns fractions <= x.
std::vector<double> EmpiricalCdf(std::vector<double> xs, std::span<const double> at);

// Shannon entropy (bits per symbol) of a discrete symbol stream. With
// `miller_madow`, applies the Miller-Madow bias correction
// (+ (K_observed - 1) / (2 N ln 2)) — important when comparing groupings
// whose groups have very different sample counts (plug-in entropy is biased
// low for small groups, which would flatter fine-grained groupings).
double EntropyBits(std::span<const int32_t> symbols, bool miller_madow = false);

// Average entropy when the stream is partitioned into groups: computes the
// entropy of each group separately and returns the element-weighted mean.
// This is the "bits per element under grouping" metric of paper Fig. 5.
double GroupedEntropyBits(std::span<const int32_t> symbols,
                          std::span<const uint32_t> group_of_symbol,
                          uint32_t num_groups, bool miller_madow = false);

// Online accumulator for streaming mean/variance (Welford).
class RunningStats {
 public:
  // Inline because profiling and the quality model call it once per KV
  // element. Each call ends in a division the next call depends on; inlined,
  // the compiler can interleave the chains of several independent
  // accumulators (one per channel or per layer) instead of running them one
  // call at a time.
  void Add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
  uint64_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : 0.0; }
  double Variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  double StdDev() const;
  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace cachegen
