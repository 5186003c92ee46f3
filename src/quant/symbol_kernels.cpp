#include "quant/symbol_kernels.h"

#include <algorithm>

namespace cachegen {

namespace {

// Round-half-away-from-zero on a pre-saturated quotient, then clamp to
// ±max_sym and shift to the unsigned symbol, reproducing std::lround
// bit-for-bit in plain double arithmetic the compiler vectorizes (a
// double->int32 truncation feeding integer compares does not vectorize on
// baseline x86-64). Adding and subtracting 1.5 * 2^52 rounds |q| <= bound
// to the nearest integer r, ties to even; q - r is then exact, and a tie
// that went toward zero is moved one step away from it. Needs IEEE double
// evaluation: no -ffast-math reassociation, no x87 excess precision.
inline uint32_t RoundClampShift(double q, double bound, double max_d) {
  constexpr double kRoundToInt = 6755399441055744.0;  // 1.5 * 2^52
  q = std::max(std::min(q, bound), -bound);
  const double r = (q + kRoundToInt) - kRoundToInt;
  const double d = q - r;
  // `&` on ints, not `&&` (or `&` on bools, which clang warns about): GCC
  // vectorizes this loop only in this branch-free form.
  const double up =
      static_cast<int>(d == 0.5) & static_cast<int>(q > 0.0) ? 1.0 : 0.0;
  const double down =
      static_cast<int>(d == -0.5) & static_cast<int>(q < 0.0) ? 1.0 : 0.0;
  double s = r + up - down;
  s = std::max(std::min(s, max_d), -max_d);
  return static_cast<uint32_t>(static_cast<int32_t>(s + max_d));
}

}  // namespace

void QuantizeRow(const float* x, const double* offset, const double* sigma,
                 double bin, uint32_t max_sym, size_t n, uint32_t* symbols) {
  const double bound = static_cast<double>(max_sym) + 1.0;
  const double max_d = static_cast<double>(max_sym);
  for (size_t i = 0; i < n; ++i) {
    // Same two-division sequence as the scalar path: normalize, then bin.
    double q = (static_cast<double>(x[i]) - offset[i]) / sigma[i];
    q /= bin;
    symbols[i] = RoundClampShift(q, bound, max_d);
  }
}

void ResidualSymbolRow(const float* x, const float* base, const double* sigma,
                       double bin, uint32_t max_sym, size_t n,
                       uint32_t* symbols) {
  const double bound = static_cast<double>(max_sym) + 1.0;
  const double max_d = static_cast<double>(max_sym);
  for (size_t i = 0; i < n; ++i) {
    const float diff = x[i] - base[i];
    double q = static_cast<double>(diff) / sigma[i];
    q /= bin;
    symbols[i] = RoundClampShift(q, bound, max_d);
  }
}

void QuantizeAnchorRow(const float* x, const double* scale, uint32_t max_sym,
                       size_t n, uint32_t* symbols, double* ref) {
  const double bound = static_cast<double>(max_sym) + 1.0;
  const double max_d = static_cast<double>(max_sym);
  for (size_t i = 0; i < n; ++i) {
    const double q = static_cast<double>(x[i]) / scale[i];
    const uint32_t sym = RoundClampShift(q, bound, max_d);
    symbols[i] = sym;
    ref[i] = (static_cast<double>(sym) - max_d) * scale[i];
  }
}

void ReconstructRow(const uint32_t* symbols, const double* sigma, double bin,
                    uint32_t max_sym, bool advance_ref, size_t n, double* ref,
                    float* out) {
  const double max_d = static_cast<double>(max_sym);
  if (advance_ref) {
    for (size_t i = 0; i < n; ++i) {
      const double sn = static_cast<double>(symbols[i]) - max_d;
      const double value = ref[i] + sn * bin * sigma[i];
      out[i] = static_cast<float>(value);
      ref[i] = value;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const double sn = static_cast<double>(symbols[i]) - max_d;
      out[i] = static_cast<float>(ref[i] + sn * bin * sigma[i]);
    }
  }
}

void ReconstructAnchorRow(const uint32_t* symbols, const double* scale,
                          uint32_t max_sym, size_t n, double* ref, float* out) {
  const double max_d = static_cast<double>(max_sym);
  for (size_t i = 0; i < n; ++i) {
    ref[i] = (static_cast<double>(symbols[i]) - max_d) * scale[i];
    out[i] = static_cast<float>(ref[i]);
  }
}

}  // namespace cachegen
