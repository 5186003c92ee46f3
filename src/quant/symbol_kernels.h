// Batch symbol-mapping kernels for the KV codec hot path.
//
// The seed mapped every element through scalar helpers (a std::lround libm
// call on a double quotient, then a clamp) from inside the coding loop.
// These kernels hoist that mapping into flat per-row batch loops the
// compiler can auto-vectorize: no libm calls, no branches in the core, all
// inputs as contiguous arrays (per-channel scales precomputed once per
// layer/kind by the caller).
//
// Bit-exactness contract: each kernel performs the *same* double arithmetic
// in the same order as the seed's scalar path — including the two-division
// normalize-then-bin sequence — and rounds half-away-from-zero exactly like
// std::lround, so emitted symbols (and therefore bitstreams) are
// byte-identical. A float reciprocal-multiply variant would be faster still
// but could flip round-to-nearest ties and break bitstream identity, which
// the golden-bitstream test forbids; speed is verified by a throughput
// assertion in bench_codec_throughput instead of by intrinsics.
//
// The only intentional divergence: quotients are saturated to ±(max_sym+1)
// *before* the float→int conversion (the conversion is UB out of range;
// std::lround was merely unspecified there). For every quotient below the
// clamp bound — all real data — results are identical.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cachegen {

// symbols[i] = clamp(round((double(x[i]) - offset[i]) / sigma[i] / bin),
//                    ±max_sym) + max_sym
// Covers both delta mode (offset = reconstructed reference row) and raw mode
// (offset = per-channel mean), mirroring the seed's DeltaSymbol.
void QuantizeRow(const float* x, const double* offset, const double* sigma,
                 double bin, uint32_t max_sym, size_t n, uint32_t* symbols);

// Anchor row: symbols[i] = clamp(round(double(x[i]) / scale[i]), ±max_sym)
// + max_sym, and ref[i] = (double(symbols[i]) - max_sym) * scale[i] — the
// reconstructed anchor the decoder will also compute.
void QuantizeAnchorRow(const float* x, const double* scale, uint32_t max_sym,
                       size_t n, uint32_t* symbols, double* ref);

// out[i] = float(ref[i] + (double(symbols[i]) - max_sym) * bin * sigma[i]).
// With advance_ref, the double value is stored back into ref (consecutive
// anchor mode, where the reference tracks the reconstructed previous token).
void ReconstructRow(const uint32_t* symbols, const double* sigma, double bin,
                    uint32_t max_sym, bool advance_ref, size_t n, double* ref,
                    float* out);

// ref[i] = (double(symbols[i]) - max_sym) * scale[i]; out[i] = float(ref[i]).
void ReconstructAnchorRow(const uint32_t* symbols, const double* scale,
                          uint32_t max_sym, size_t n, double* ref, float* out);

// Enhancement-layer residual (§9 layered streaming):
// symbols[i] = clamp(round(double(x[i] - base[i]) / sigma[i] / bin),
//                    ±max_sym) + max_sym.
// The subtraction is a float one, as in the seed's per-element residual walk
// over two float tensors; the two divisions then run in double.
void ResidualSymbolRow(const float* x, const float* base, const double* sigma,
                       double bin, uint32_t max_sym, size_t n,
                       uint32_t* symbols);

}  // namespace cachegen
